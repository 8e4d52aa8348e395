"""Tests for the reproduction scorecard."""

from repro.experiments import format_scorecard
from repro.experiments.scorecard import Scorecard


class TestScorecardMechanics:
    def test_add_and_counts(self):
        card = Scorecard()
        card.add("e", "c1", "p", "m", True)
        card.add("e", "c2", "p", "m", False)
        assert card.total == 2 and card.passed == 1 and not card.all_passed

    def test_format_contains_results(self):
        card = Scorecard()
        card.add("fig9", "criterion-x", "pub", "meas", True)
        text = format_scorecard(card)
        assert "criterion-x" in text and "PASS" in text and "1/1" in text


class TestScorecardRun:
    def test_all_criteria_pass_at_smoke_scale(self, smoke_results):
        card = smoke_results["scorecard"]
        failing = [c for c in card.criteria if not c.passed]
        assert not failing, f"failing criteria: {[(c.experiment, c.name) for c in failing]}"

    def test_covers_every_experiment(self, smoke_results):
        card = smoke_results["scorecard"]
        exps = {c.experiment for c in card.criteria}
        assert {"table1", "fig1", "fig2", "fig5a", "fig5b", "fig6a", "fig6b"} <= exps
