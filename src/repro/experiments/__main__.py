"""Command-line entry point: ``python -m repro.experiments <exp> [--scale s]``."""

from __future__ import annotations

import argparse
import sys

from .ablation_detector import format_detector_ablation, run_detector_ablation
from .ablation_interference import format_interference_ablation, run_interference_ablation
from .ablation_placement import format_placement_ablation, run_placement_ablation
from .ablation_recovery import format_recovery_ablation, run_recovery_ablation
from .ablation_replication import format_replication_ablation, run_replication_ablation
from .ablation_timelimit import format_timelimit_ablation, run_timelimit_ablation
from .common import ExperimentScale
from .fig1_weekly import format_fig1, run_fig1
from .fig2_distribution import format_fig2, run_fig2
from .fig3_sequences import format_fig3, run_fig3
from .fig4_ring_diagram import format_fig4, run_fig4
from .fig5_end_to_end import format_fig5, run_fig5
from .fig6a_victim_epoch import format_fig6a, run_fig6a
from .fig6b_load_distribution import format_fig6b, run_fig6b
from .export import export_results
from .scorecard import format_scorecard, run_scorecard
from .table1_failures import format_table1, run_table1
from .table2_specs import format_table2, run_table2
from ..viz import bar_chart, line_plot

EXPERIMENTS = (
    "table1", "table2", "fig1", "fig2", "fig3", "fig4", "fig5", "fig6a", "fig6b",
    "placement", "detector", "recovery", "replication", "timelimit", "interference", "scorecard",
)


def _scale(name: str) -> ExperimentScale:
    try:
        return {"paper": ExperimentScale.paper, "quick": ExperimentScale.quick, "smoke": ExperimentScale.smoke}[name]()
    except KeyError:
        raise SystemExit(f"unknown scale {name!r}; choose paper/quick/smoke")


def run_experiment(name: str, scale: ExperimentScale, seed: int = 2024, model: str = "fluid"):
    """The result object of experiment ``name``: what :func:`main` prints
    and exports.  ``model`` is fig5's engine."""
    runners = {
        "table1": lambda: run_table1(seed=seed),
        "table2": run_table2,
        "fig1": lambda: run_fig1(seed=seed),
        "fig2": lambda: run_fig2(seed=seed),
        "fig3": lambda: run_fig3(seed=seed),
        "fig4": run_fig4,
        "fig5": lambda: run_fig5(scale=scale, model=model),
        "fig6a": lambda: run_fig6a(scale=scale),
        "fig6b": lambda: run_fig6b(scale=scale, seed=seed),
        "placement": run_placement_ablation,
        "detector": lambda: run_detector_ablation(seed=seed),
        "recovery": lambda: run_recovery_ablation(scale=scale),
        "replication": lambda: run_replication_ablation(scale=scale),
        "timelimit": lambda: run_timelimit_ablation(scale=scale),
        "interference": lambda: run_interference_ablation(scale=scale),
        "scorecard": lambda: run_scorecard(scale=scale, seed=seed),
    }
    return runners[name]()


_FORMATS = {
    "table1": format_table1, "table2": format_table2, "fig1": format_fig1, "fig2": format_fig2,
    "fig3": format_fig3, "fig4": format_fig4, "fig5": format_fig5, "fig6a": format_fig6a,
    "fig6b": format_fig6b, "placement": format_placement_ablation,
    "detector": format_detector_ablation, "recovery": format_recovery_ablation,
    "replication": format_replication_ablation, "timelimit": format_timelimit_ablation,
    "interference": format_interference_ablation, "scorecard": format_scorecard,
}


def _chart_fig1(result) -> str:
    w = result.weekly
    return line_plot(
        {t: (w.weeks + 1, series) for t, series in w.by_type.items()},
        title="Fig 1 — mean elapsed minutes per week",
        y_label="minutes",
    )


def _chart_fig5(result) -> str:
    labels, values = [], []
    for row in result.rows:
        labels.append(f"{row.n_nodes} no-fail")
        values.append(row.nofail["FT w/ NVMe"] / 60)
        labels.append(f"{row.n_nodes} PFS+5f")
        values.append(row.withfail["FT w/ PFS"] / 60)
        labels.append(f"{row.n_nodes} NVMe+5f")
        values.append(row.withfail["FT w/ NVMe"] / 60)
    return bar_chart(labels, values, title="Fig 5 — end-to-end time (min)", unit=" min")


def _chart_fig6b(result) -> str:
    return bar_chart(
        [r.vnodes_per_node for r in result.rows],
        [r.receiver_nodes_mean for r in result.rows],
        title="Fig 6(b) — receiver nodes vs vnodes/node",
    )


_CHARTS = {"fig1": _chart_fig1, "fig5": _chart_fig5, "fig6b": _chart_fig6b}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="ftcache-experiments",
        description="Regenerate the paper's tables and figures (FT-Cache reproduction).",
    )
    parser.add_argument("experiment", choices=EXPERIMENTS + ("all",))
    parser.add_argument("--scale", default="paper", help="paper | quick | smoke (default: paper)")
    parser.add_argument("--model", default="fluid", help="fig5 engine: fluid | des")
    parser.add_argument("--seed", type=int, default=2024)
    parser.add_argument(
        "--chart", action="store_true", help="also render terminal charts of the series"
    )
    parser.add_argument(
        "--json", default="", metavar="PATH", help="also export the structured results as JSON"
    )
    args = parser.parse_args(argv)
    scale = _scale(args.scale)

    todo = EXPERIMENTS if args.experiment == "all" else (args.experiment,)
    collected: dict = {}
    for name in todo:
        result = collected[name] = run_experiment(name, scale, seed=args.seed, model=args.model)
        print(_FORMATS[name](result))
        if args.chart and name in _CHARTS:
            print()
            print(_CHARTS[name](result))
        if name == "scorecard" and not result.all_passed:
            return 1
        print()
    if args.json:
        path = export_results(collected, args.json, seed=args.seed, scale=args.scale)
        print(f"exported {len(collected)} result set(s) to {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
