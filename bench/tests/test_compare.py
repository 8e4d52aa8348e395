import json

import compare


def result(**workloads):
    """``result(hit_small={"ops_per_s": [3500, 3550]})`` → a result file's
    dict with one set per listed value."""
    n_sets = max(len(v) for metrics in workloads.values() for v in metrics.values())
    sets = []
    for i in range(n_sets):
        sets.append({
            w: {"untraced": {"failed": 0, "attempted": 1000, "metrics": {
                name: {"value": v[i], "unit": "x", "n": 1} for name, v in metrics.items()}}}
            for w, metrics in workloads.items()})
    return {"sets": sets}


def verdicts(a, b):
    lines, any_worse = compare.compare(a, b)
    return {tuple(line.split()[:2]): line for line in lines}, any_worse


def test_within_bound_and_ratio_with_its_base():
    got, worse = verdicts(result(hit_small={"ops_per_s": [3500, 3520], "read_p50_us": [500, 505]}),
                          result(hit_small={"ops_per_s": [3400, 3450], "read_p50_us": [520, 515]}))
    assert not worse
    line = got[("hit_small", "ops_per_s")]
    assert "within bound" in line and "B/A = 0.976" in line and "base A 3510" in line


def test_worse_beyond_the_bound_in_either_direction():
    got, worse = verdicts(result(hit_small={"ops_per_s": [3500, 3520], "read_p50_us": [500, 505]}),
                          result(hit_small={"ops_per_s": [2500, 2510], "read_p50_us": [680, 685]}))
    assert worse
    assert " worse " in got[("hit_small", "ops_per_s")]
    assert " worse " in got[("hit_small", "read_p50_us")]


def test_better_beyond_the_bound():
    got, worse = verdicts(result(hit_small={"read_p50_us": [500, 505]}),
                          result(hit_small={"read_p50_us": [300, 310]}))
    assert not worse and " better " in got[("hit_small", "read_p50_us")]


def test_noisy_side_is_unresolved_unless_every_run_wins():
    a = result(hit_small={"read_p50_us": [500, 600, 450]})
    got, worse = verdicts(a, result(hit_small={"read_p50_us": [520, 580, 470]}))
    assert not worse and "unresolved" in got[("hit_small", "read_p50_us")]
    got, _ = verdicts(a, result(hit_small={"read_p50_us": [300, 440, 350]}))
    assert " better " in got[("hit_small", "read_p50_us")]
    got, worse = verdicts(a, result(hit_small={"read_p50_us": [700, 900, 650]}))
    assert worse and " worse " in got[("hit_small", "read_p50_us")]


def test_scenario_metrics_are_gated_with_their_own_bounds():
    got, worse = verdicts(result(train_kill={"pfs_reads_per_lost_key": [1.0], "epoch_victim_s": [2.0]}),
                          result(train_kill={"pfs_reads_per_lost_key": [1.05], "epoch_victim_s": [2.1]}))
    assert worse
    assert " worse " in got[("train_kill", "pfs_reads_per_lost_key")]
    assert "within bound" in got[("train_kill", "epoch_victim_s")]


def test_any_failed_op_is_worse_and_exit_code_says_so(tmp_path, capsys):
    a = result(hit_small={"ops_per_s": [3500]})
    b = result(hit_small={"ops_per_s": [3500]})
    (tmp_path / "a.json").write_text(json.dumps(a))
    (tmp_path / "b.json").write_text(json.dumps(b))
    assert compare.main([str(tmp_path / "a.json"), str(tmp_path / "b.json")]) == 0
    b["sets"][0]["hit_small"]["untraced"]["failed"] = 1
    (tmp_path / "b.json").write_text(json.dumps(b))
    assert compare.main([str(tmp_path / "a.json"), str(tmp_path / "b.json")]) == 1
    assert "1 failed of 1000" in capsys.readouterr().out
