#!/usr/bin/env python3
"""Compare two result files of ``bench/run.py`` (no ``--workload``).

    python3 bench/compare.py A.json B.json      A is the base, B the change

Per workload and gated metric, from the untraced runs: ``better``, ``within
bound``, ``worse`` or ``unresolved`` (a side's own runs spread wider than the
bound, and the two sides' runs overlap).  Every ratio is printed with its
base.  Exit code 1 on any ``worse``.

Gated are the end-to-end metrics of ``BENCHMARK.json`` with the bounds fixed
there, plus the metrics only one workload can report, with the bounds fixed
in ``bench/metrics.py``.  ``fail_ratio`` is absolute: any failed op on B is
``worse``.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

import metrics


def values(result: dict, workload: str, metric: str) -> list[float]:
    return [one[workload]["untraced"]["metrics"][metric]["value"]
            for one in result["sets"]
            if workload in one and metric in one[workload]["untraced"]["metrics"]]


def spread(v: list[float]) -> float:
    return (max(v) - min(v)) / statistics.median(v) if len(v) > 1 else 0.0


def verdict(a: list[float], b: list[float], better: str, bound: float) -> tuple[str, float]:
    """Verdict and the share of A's median by which B's median is worse
    (negative = better)."""
    ma, mb = statistics.median(a), statistics.median(b)
    worse_by = (mb - ma) / ma if better == "lower" else (ma - mb) / ma
    if max(spread(a), spread(b)) > bound:
        if better == "lower":
            b_wins, a_wins = max(b) < min(a), max(a) < min(b)
        else:
            b_wins, a_wins = min(b) > max(a), min(a) > max(b)
        if b_wins:
            return "better", worse_by
        if a_wins and worse_by > bound:
            return "worse", worse_by
        return "unresolved", worse_by
    if worse_by > bound:
        return "worse", worse_by
    return ("better" if worse_by < -bound else "within bound"), worse_by


def compare(a: dict, b: dict) -> tuple[list[str], bool]:
    lines, any_worse = [], False
    gates = metrics.gates(metrics.load_spec())
    for workload in a["sets"][0]:
        if workload not in b["sets"][0]:
            continue
        for metric, (better, bound) in gates.items():
            va, vb = values(a, workload, metric), values(b, workload, metric)
            if not va or not vb:
                continue
            what, worse_by = verdict(va, vb, better, bound)
            any_worse |= what == "worse"
            ma, mb = statistics.median(va), statistics.median(vb)
            unit = a["sets"][0][workload]["untraced"]["metrics"][metric]["unit"]
            lines.append(
                f"{workload:11s} {metric:24s} {what:13s} B/A = {mb / ma:.3f}  "
                f"(base A {ma:.6g} {unit}, B {mb:.6g}; {better} is better; worse by {worse_by:+.1%}, "
                f"bound {bound:.0%}; spread A {spread(va):.1%} of {len(va)}, B {spread(vb):.1%} of {len(vb)})")
        failed = sum(one[workload]["untraced"]["failed"] for one in b["sets"])
        attempted = sum(one[workload]["untraced"]["attempted"] for one in b["sets"])
        what = "worse" if failed else "within bound"
        any_worse |= bool(failed)
        lines.append(f"{workload:11s} {'fail_ratio':24s} {what:13s} B = {failed} failed of {attempted} attempted "
                     f"(absolute bound 0)")
    return lines, any_worse


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    a, b = (json.loads(Path(p).read_text()) for p in argv)
    lines, any_worse = compare(a, b)
    print("\n".join(lines))
    return 1 if any_worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
