#!/usr/bin/env python3
"""One command, every metric.

    python3 bench/run.py                      every workload, untraced then traced
    python3 bench/run.py --smoke              the same with 2 s windows (< 40 s)
    python3 bench/run.py --sets 3 --out F     what bench/results/baseline.json holds
    python3 bench/run.py --workload hit_small --seed 7 --seconds 10 --trace 0

Prints ``workload metric value unit n=<samples>`` per metric.  With
``--workload`` the last line of stdout is the JSON object the benchmark
contract asks for: the end-to-end metrics of ``BENCHMARK.json`` from an
untraced run (``--trace 0``) or its per-layer metrics from a traced run
(``--trace 1``).  Exit code 1 if any check failed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import metrics

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"


def fingerprint() -> dict:
    import numpy

    model = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            model = next((line.split(":", 1)[1].strip() for line in f if line.startswith("model name")), model)
    except OSError:
        pass
    try:
        commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
                                text=True, timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {"nproc": os.cpu_count(), "cpu_model": model, "kernel": platform.release(),
            "machine": platform.machine(), "python": platform.python_version(),
            "numpy": numpy.__version__, "commit": commit}


def run_record(run, seed: int, traced: bool, units: dict) -> dict:
    from workloads import config_dict

    unknown = sorted(set(run.metrics) - set(units))
    if unknown:
        raise KeyError(f"metrics named neither in BENCHMARK.json nor in bench/metrics.py: {unknown}")
    return {
        "workload": run.config.name, "seed": seed, "traced": traced,
        "config": config_dict(run.config),
        "metrics": {name: {"value": value, "unit": units[name], "n": n}
                    for name, (value, n) in run.metrics.items()},
        "attempted": run.attempted, "failed": run.failed, "errors": run.errors,
        "op_digest": run.op_digest,
    }


def print_record(record: dict, order: list[str]) -> None:
    metrics = record["metrics"]
    for name in order:
        if name in metrics:
            m = metrics[name]
            print(f"{record['workload']} {name} {m['value']:.6g} {m['unit']} n={m['n']}")
    for err in record["errors"]:
        print(f"{record['workload']} FAILED {err}", file=sys.stderr)


def add_tracing_overhead(traced: dict, untraced: dict | None) -> None:
    """``loadgen.tracing_overhead`` is the gap between the two runs, so it
    exists only when the untraced run of the same inputs is at hand."""
    if untraced is None or any(untraced[k] != traced[k] for k in ("seed", "config")):
        return
    a, b = untraced["metrics"]["ops_per_s"], traced["metrics"]["ops_per_s"]
    traced["metrics"]["loadgen.tracing_overhead"] = {
        "value": 1.0 - b["value"] / a["value"], "unit": "ratio", "n": b["n"]}


def contract_line(record: dict, spec: dict) -> str:
    """The last line of a ``--workload`` run.  A per-layer metric whose
    program symbol is gone reads 0."""
    metrics = record["metrics"]
    if record["traced"]:
        picked = {m["name"]: {"value": metrics.get(m["name"], {"value": 0.0})["value"], "unit": m["unit"]}
                  for m in spec["per_layer"]}
    else:
        picked = {m["name"]: {"value": metrics[m["name"]]["value"], "unit": m["unit"]}
                  for m in spec["end_to_end"]}
    return json.dumps({"correct": record["failed"] == 0, "attempted": record["attempted"],
                       "failed": record["failed"], "metrics": picked})


def summarise(sets: list[dict]) -> dict:
    """Per workload, mode and metric: min / median / max over the sets."""
    summary: dict = {}
    for workload in sets[0]:
        for mode in ("untraced", "traced"):
            values: dict = {}
            for one in sets:
                for name, m in one[workload][mode]["metrics"].items():
                    values.setdefault(name, []).append(m["value"])
            summary.setdefault(workload, {})[mode] = {
                name: {"min": min(v), "median": statistics.median(v), "max": max(v), "runs": len(v)}
                for name, v in values.items()}
    return summary


def main(argv: list[str] | None = None) -> int:
    spec = metrics.load_spec()
    units = metrics.units(spec)
    order = list(units)
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=names, help="run one workload (default: all, untraced then traced)")
    ap.add_argument("--seed", type=int, default=2024)
    ap.add_argument("--seconds", type=float, default=float(spec["run_seconds"]))
    ap.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                    help="with --workload: 1 = traced run (spans, 1 Hz series, layer ladder)")
    ap.add_argument("--smoke", action="store_true", help="2 s windows, 1 024-file epochs, one set-up")
    ap.add_argument("--threads", type=int, default=None,
                    help="load-issuing threads, at most min(nproc, 2), which is the default")
    ap.add_argument("--sets", type=int, default=1, help="without --workload: repeat every workload N times")
    ap.add_argument("--out", type=Path, default=None, help="result file (default bench/out/result.json)")
    args = ap.parse_args(argv)
    if args.smoke:
        args.seconds = 2.0

    if not (ROOT / "src" / "repro").is_dir():
        print(f"bench/run.py: no program to measure: {ROOT / 'src' / 'repro'} is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from procs import ProcessSet
    from workloads import resolve, run_workload

    procs = ProcessSet()
    procs.install_handlers()
    OUT.mkdir(parents=True, exist_ok=True)

    def one(workload: str, traced: bool) -> dict:
        cfg = resolve(workload, args.seconds, args.smoke, args.threads)
        run = run_workload(cfg, args.seed, traced, procs, OUT)
        return run_record(run, args.seed, traced, units)

    if args.workload:
        record = one(args.workload, bool(args.trace))
        pair = OUT / f"{args.workload}.untraced.json"
        if args.trace:
            add_tracing_overhead(record, json.loads(pair.read_text()) if pair.exists() else None)
        else:
            pair.write_text(json.dumps(record))
        print_record(record, order)
        print(contract_line(record, spec))
        return 0 if record["failed"] == 0 else 1

    sets, failed = [], 0
    for _ in range(args.sets):
        this: dict = {}
        for workload in names:
            untraced, traced = one(workload, False), one(workload, True)
            add_tracing_overhead(traced, untraced)
            print_record(untraced, order)
            print_record(traced, [n for n in order if n not in untraced["metrics"]])
            failed += untraced["failed"] + traced["failed"]
            this[workload] = {"untraced": untraced, "traced": traced}
        sets.append(this)
    result = {"schema": 1, "fingerprint": fingerprint(), "seed": args.seed, "seconds": args.seconds,
              "smoke": args.smoke, "sets": sets, "summary": summarise(sets)}
    out = args.out or OUT / "result.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(result, indent=1) + "\n")
    print(f"wrote {out}")
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
