import json
import math
import subprocess
import sys
from pathlib import Path

import metrics

BENCH = Path(__file__).resolve().parent.parent
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def test_smoke_run_reports_every_named_metric(tmp_path):
    out = tmp_path / "result.json"
    proc = subprocess.run([sys.executable, str(BENCH / "run.py"), "--smoke", "--out", str(out)],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(out.read_text())
    (one,) = result["sets"]
    assert list(one) == [w["name"] for w in SPEC["workloads"]]
    reported = set()
    for workload, runs in one.items():
        for mode in ("untraced", "traced"):
            record = runs[mode]
            assert record["failed"] == 0 and record["attempted"] > 0, (workload, mode, record["errors"])
            for name, m in record["metrics"].items():
                assert math.isfinite(m["value"]), (workload, name)
            # every workload reports every end-to-end metric, in both modes
            assert {m["name"] for m in SPEC["end_to_end"]} <= set(record["metrics"]), (workload, mode)
            reported |= set(record["metrics"])
        # ... and its traced run measures every per-layer metric of BENCHMARK.json
        missing = {m["name"] for m in SPEC["per_layer"]} - set(runs["traced"]["metrics"])
        assert not missing, (workload, missing)
        assert f"{workload} ops_per_s " in proc.stdout
        # the two runs of one seed issue the same ops
        assert runs["untraced"]["op_digest"] == runs["traced"]["op_digest"]
    assert set(metrics.SCENARIO) <= reported
    assert result["fingerprint"]["nproc"] >= 1 and result["summary"]["hit_small"]["untraced"]["ops_per_s"]["runs"] == 1

    for workload in one:
        records = [json.loads(line) for line in (BENCH / "out" / f"{workload}.trace.jsonl").read_text().splitlines()]
        spans = [r for r in records if r["kind"] == "span"]
        ids = {s["id"] for s in spans}
        assert sum(s["parent"] is None for s in spans) == 1  # the workload span
        assert all(s["parent"] in ids for s in spans if s["parent"] is not None)
        assert any(r["kind"] == "sample" and r["stat"] for r in records)
    assert not list((BENCH / ".work").glob("*")), "scratch dirs left behind"
