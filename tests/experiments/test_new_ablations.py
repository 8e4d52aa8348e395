"""Tests for the replication and time-limit ablation experiments."""

from repro.experiments import (
    ExperimentScale,
    format_replication_ablation,
    format_timelimit_ablation,
    run_timelimit_ablation,
)

SMOKE = ExperimentScale.smoke()


class TestReplicationAblation:
    def test_replication_never_worse(self, smoke_results):
        r = smoke_results["replication"]
        for row in r.rows:
            assert row.replicated <= row.single_copy * 1.02
            assert row.replicated_pfs_files < row.single_pfs_files

    def test_refetches_nearly_eliminated(self, smoke_results):
        r = smoke_results["replication"]
        for row in r.rows:
            assert row.replicated_pfs_files <= 0.2 * max(row.single_pfs_files, 1)

    def test_format(self, smoke_results):
        text = format_replication_ablation(smoke_results["replication"])
        assert "Replication" in text and "PFS refetches" in text


class TestTimeLimitAblation:
    def test_violation_monotone_in_margin(self):
        r = run_timelimit_ablation(scale=SMOKE, trials=5)
        by_node: dict = {}
        for row in r.rows:
            by_node.setdefault(row.n_nodes, []).append(row)
        for rows in by_node.values():
            rows.sort(key=lambda x: x.margin_pct)
            for policy in ("FT w/ PFS", "FT w/ NVMe"):
                rates = [row.violation_rate[policy] for row in rows]
                assert rates == sorted(rates, reverse=True)

    def test_pfs_violates_at_least_as_often(self):
        r = run_timelimit_ablation(scale=SMOKE, trials=5)
        for row in r.rows:
            assert row.violation_rate["FT w/ PFS"] >= row.violation_rate["FT w/ NVMe"] - 1e-9

    def test_wide_margin_never_violates(self):
        r = run_timelimit_ablation(scale=SMOKE, trials=3, margins_pct=(10.0, 10_000.0))
        loosest = [row for row in r.rows if row.margin_pct == 10_000.0]
        for row in loosest:
            assert row.violation_rate["FT w/ PFS"] == 0.0
            assert row.violation_rate["FT w/ NVMe"] == 0.0

    def test_format(self):
        text = format_timelimit_ablation(run_timelimit_ablation(scale=SMOKE, trials=3))
        assert "Time-limit" in text and "Limit margin" in text
