"""``python -m repro.obs`` — merge span dumps into cross-node trace trees.

Typical use after a traced run, once ``LocalCluster.dump_obs(dir)`` has
written one ``spans-<node>.jsonl`` per process into ``dir``::

    python -m repro.obs results/obs/            # whole directory
    python -m repro.obs spans-client.jsonl spans-0.jsonl --slowest 5

Output: a per-stage breakdown table (count, total, mean, p50, p99, max),
instrumentation coverage at p50, and the slowest-N exemplar traces
rendered as trees with the critical path marked.  ``--json`` additionally
writes the whole analysis as one JSON document for machine consumers.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .analysis import (
    build_traces,
    coverage,
    coverage_quantile,
    critical_path,
    load_span_files,
    render_trace,
    slowest_traces,
    stage_breakdown,
)


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs",
        description="Merge per-node span dumps into cross-node trace trees",
    )
    parser.add_argument("paths", nargs="+",
                        help="span JSONL files, or directories of *.jsonl dumps")
    parser.add_argument("--slowest", type=int, default=3, metavar="N",
                        help="number of slowest exemplar traces to render (default 3)")
    parser.add_argument("--root-name", default=None, metavar="NAME",
                        help="only consider root spans with this name (e.g. client.read)")
    parser.add_argument("--json", default=None, metavar="OUT",
                        help="also write the full analysis as JSON to OUT ('-' for stdout)")
    return parser


def analyse(paths: list[str], slowest: int = 3, root_name=None) -> dict:
    """The full analysis as one JSON-safe dict (what ``--json`` writes)."""
    spans = load_span_files(paths)
    traces = build_traces(spans)
    exemplars = slowest_traces(traces, n=slowest, root_name=root_name)
    return {
        "spans": len(spans),
        "traces": len(traces),
        "nodes": sorted({str(s.get("node")) for s in spans}),
        "stage_breakdown": stage_breakdown(spans),
        "coverage_p50": coverage_quantile(traces, 0.5, root_name=root_name),
        "slowest": [
            {
                "trace_id": root.trace_id,
                "duration_s": root.duration,
                "coverage": coverage(root),
                "critical_path": [
                    {"name": n.name, "node": n.node, "duration_s": n.duration}
                    for n in critical_path(root)
                ],
                "tree": render_trace(root),
            }
            for root in exemplars
        ],
    }


def _print_breakdown(breakdown: dict) -> None:
    header = f"{'stage':<28} {'count':>7} {'total_s':>9} {'mean_ms':>9} {'p50_ms':>9} {'p99_ms':>9}"
    print(header)
    print("-" * len(header))
    for name, row in sorted(breakdown.items(), key=lambda kv: -kv[1]["total_s"]):
        print(
            f"{name:<28} {row['count']:>7} {row['total_s']:>9.3f} "
            f"{row['mean_s'] * 1e3:>9.3f} {row['p50_s'] * 1e3:>9.3f} {row['p99_s'] * 1e3:>9.3f}"
        )


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    report = analyse(args.paths, slowest=args.slowest, root_name=args.root_name)
    if not report["spans"]:
        print("no spans found in the given paths", file=sys.stderr)
        return 1

    print(f"{report['spans']} spans, {report['traces']} traces, "
          f"nodes: {', '.join(report['nodes'])}")
    cov = report["coverage_p50"]
    if cov is not None:
        print(f"instrumentation coverage (p50 over root traces): {cov:.1%}")
    print()
    _print_breakdown(report["stage_breakdown"])

    for i, ex in enumerate(report["slowest"], start=1):
        print()
        print(f"slowest #{i}:")
        for line in ex["tree"]:
            print(f"  {line}")
        hops = " -> ".join(f"{n['name']}@{n['node']}" for n in ex["critical_path"])
        print(f"  critical path: {hops}")

    if args.json:
        payload = json.dumps(report, indent=2, sort_keys=True)
        if args.json == "-":
            print(payload)
        else:
            Path(args.json).write_text(payload + "\n")
            print(f"\nwrote {args.json}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
