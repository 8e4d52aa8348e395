"""Tests for the experiment harness: every table/figure runs and has the
published shape at smoke scale."""

import pytest

from repro.experiments import (
    ExperimentScale,
    format_detector_ablation,
    format_fig1,
    format_fig2,
    format_fig5,
    format_fig6a,
    format_fig6b,
    format_placement_ablation,
    format_recovery_ablation,
    format_table1,
    run_detector_ablation,
    run_fig1,
    run_fig2,
    run_fig5,
    run_fig6b,
    run_placement_ablation,
    run_table1,
)

SMOKE = ExperimentScale.smoke()


class TestTable1:
    def test_exact_published_counts(self):
        r = run_table1(seed=1)
        assert r.census.total_jobs == 181_933
        assert r.census.total_failures == 45_556
        assert 40 < r.combined_node_failure_pct < 55

    def test_format_mentions_paper(self):
        text = format_table1(run_table1(seed=1))
        assert "Table I" in text and "25.04%" in text


class TestFig1:
    def test_shapes(self):
        r = run_fig1(seed=1)
        assert r.n_weeks == 27
        assert r.weeks_with_failures == 27
        assert r.spike_weeks >= 1
        assert 60 < r.weekly.overall < 95

    def test_format(self):
        assert "Week" in format_fig1(run_fig1(seed=1))


class TestFig2:
    def test_published_trends(self):
        r = run_fig2(seed=1)
        assert r.node_fail_trend_increasing()
        assert r.elapsed_mix_flat()
        assert r.top_bucket.share["NODE_FAIL"] > 25

    def test_format(self):
        text = format_fig2(run_fig2(seed=1))
        assert "Fig 2(a)" in text and "Fig 2(b)" in text


class TestFig5:
    @pytest.fixture(scope="class")
    def result(self, smoke_results):
        return smoke_results["fig5"]

    def test_rows_cover_node_counts(self, result):
        assert [r.n_nodes for r in result.rows] == list(SMOKE.node_counts)

    def test_5a_time_decreases_with_nodes(self, result):
        for policy in ("NoFT", "FT w/ PFS", "FT w/ NVMe"):
            times = [r.nofail[policy] for r in result.rows]
            assert times[0] > times[-1]

    def test_5b_failures_cost_time(self, result):
        for r in result.rows:
            assert r.withfail["FT w/ PFS"] > r.nofail["FT w/ PFS"]
            assert r.withfail["FT w/ NVMe"] > r.nofail["FT w/ NVMe"]

    def test_5b_nvme_beats_pfs(self, result):
        for r in result.rows:
            assert r.nvme_vs_pfs_pct > 0  # paper: 14.8% / 24.9%

    def test_failures_all_injected(self, result):
        for r in result.rows:
            assert r.failures_injected == SMOKE.n_failures

    def test_des_model_smoke(self, smoke_results):
        res = smoke_results["fig5-des"]
        assert res.model == "des"
        row = res.rows[0]
        assert row.withfail["FT w/ NVMe"] > row.nofail["FT w/ NVMe"] > 0

    def test_invalid_model(self):
        with pytest.raises(ValueError):
            run_fig5(scale=SMOKE, model="quantum")

    def test_format(self, result):
        text = format_fig5(result)
        assert "Fig 5(a)" in text and "Fig 5(b)" in text and "NoFT" in text


class TestFig6a:
    @pytest.fixture(scope="class")
    def result(self, smoke_results):
        return smoke_results["fig6a"]

    def test_ordering_no_failure_fastest(self, result):
        for row in result.rows:
            assert row.no_failure < row.pfs_redirect
            assert row.no_failure < row.nvme_recache

    def test_nvme_beats_pfs_in_victim_epoch(self, result):
        for row in result.rows:
            assert row.nvme_recache <= row.pfs_redirect
        # NVMe recaching approaches no-failure as the node count grows, and
        # PFS redirection hurts most at the smallest scale
        nvme_excess = [r.nvme_recache - r.no_failure for r in result.rows]
        pfs_excess = [r.pfs_redirect - r.no_failure for r in result.rows]
        assert nvme_excess[-1] <= nvme_excess[0]
        assert pfs_excess[0] == max(pfs_excess)

    def test_format(self, result):
        assert "victim-epoch" in format_fig6a(result)


class TestFig6b:
    @pytest.fixture(scope="class")
    def result(self):
        return run_fig6b(scale=SMOKE, n_files=20_000, seed=1)

    def test_receivers_rise_with_vnodes(self, result):
        receivers = [r.receiver_nodes_mean for r in result.rows]
        assert receivers == sorted(receivers)
        assert receivers[-1] > 3 * receivers[0]

    def test_files_per_receiver_fall(self, result):
        files = [r.files_per_node_mean for r in result.rows]
        assert files[0] > files[-1]

    def test_balance_improves(self, result):
        stds = [r.files_per_node_std for r in result.rows]
        assert stds[0] > stds[-1]

    def test_memory_grows(self, result):
        mems = [r.ring_memory_bytes for r in result.rows]
        assert mems == sorted(mems)

    def test_saturation_flag(self, result):
        assert result.saturating()

    def test_format(self, result):
        assert "Fig 6(b)" in format_fig6b(result)


class TestAblations:
    def test_placement_movement_ordering(self):
        r = run_placement_ablation(n_nodes=16, n_keys=20_000)
        by_name = {m.policy: m for m in r.movement}
        assert by_name["HashRing (paper)"].is_minimal
        assert by_name["Rendezvous (multi-hash)"].is_minimal
        assert not by_name["StaticHash (orig. HVAC)"].is_minimal
        assert by_name["StaticHash (orig. HVAC)"].movement_fraction > 0.8
        assert "TreeHashRing (std::map)" in r.timing

    def test_placement_format(self):
        text = format_placement_ablation(run_placement_ablation(n_nodes=8, n_keys=5_000))
        assert "Strategy" in text

    def test_detector_tradeoff(self):
        r = run_detector_ablation(ttls=(0.05, 2.0), thresholds=(1, 3, 5), trials=50)
        pts = {(p.ttl, p.threshold): p for p in r.points}
        # Aggressive TTL + threshold 1 → many false positives; the published
        # guidance (TTL over the latency tail, threshold >= 3) → none.
        assert pts[(0.05, 1)].false_positive_rate > 0.5
        assert all(p.false_positive_rate == 0.0 for p in r.points if p.ttl >= 2.0 and p.threshold >= 3)
        # Detection delay grows with both knobs.
        assert pts[(2.0, 3)].mean_detection_delay > pts[(0.05, 1)].mean_detection_delay

    def test_detector_format(self):
        assert "TTL" in format_detector_ablation(run_detector_ablation(trials=20))

    def test_recovery_ablation(self, smoke_results):
        r = smoke_results["recovery"]
        for row in r.rows:
            assert row.epoch_recovery >= row.step_recovery
            assert row.step_recovery > row.nofail

    def test_recovery_format(self, smoke_results):
        assert "Recovery" in format_recovery_ablation(smoke_results["recovery"])
