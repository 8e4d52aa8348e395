"""Every metric the benchmark reports: name → unit, direction, bound.

``BENCHMARK.json`` lists what *every* workload reports: the end-to-end
metrics with their bounds, and the per-layer metrics of a traced run.  The
metrics only one workload can measure (an epoch time means nothing on
``hit_small``) are listed here instead, so that no run has to print a number
it did not measure; ``run.py`` prints and saves them and ``compare.py`` gates
the ones that have a bound.
"""

from __future__ import annotations

import json
from pathlib import Path

__all__ = ["SCENARIO", "load_spec", "units", "gates"]

ROOT = Path(__file__).resolve().parent.parent

#: name → (unit, better, bound or None).  Bounds are shares of the base's
#: median, as in ``BENCHMARK.json``, and as wide as the end-to-end ones for
#: the same reason (``bench/README.md``, "Spread"); the count repeats exactly.
SCENARIO = {
    # miss_churn
    "write_p50_us": ("us", "lower", 0.25),
    "loadgen.write_p99_us": ("us", "lower", None),
    "server.miss_service_us": ("us", "lower", None),
    # train_kill
    "epoch_cold_s": ("s", "lower", 0.25),
    "epoch_warm_s": ("s", "lower", 0.25),
    "epoch_victim_s": ("s", "lower", 0.25),
    "epoch_recovered_s": ("s", "lower", 0.25),
    "pfs_reads_per_lost_key": ("ratio", "lower", 0.02),
    "detector.detect_ms": ("ms", "lower", None),
    "detector.timeouts": ("count", "lower", None),
    "mover.warm_epoch_pfs_reads": ("count", "lower", None),
    "loader.samples_per_s": ("1/s", "higher", None),
    "loader.batch_p50_ms": ("ms", "lower", None),
    "loader.batch_p99_ms": ("ms", "lower", None),
    "loader.victim_stall_ms": ("ms", "lower", None),
    # join_live
    "join_s": ("s", "lower", 0.25),
    "rebalance.plan_ms": ("ms", "lower", None),
    "rebalance.moved_keys": ("count", "lower", None),
    "rebalance.moved_fraction": ("ratio", "lower", None),
    "rebalance.warm_key_us": ("us", "lower", None),
    "rebalance.throttle_pauses": ("count", "lower", None),
    "rebalance.source_cache_reads": ("count", "higher", None),
    "rebalance.source_pfs_reads": ("count", "lower", None),
    "rebalance.pfs_fallback_reads": ("count", "lower", None),
    "rebalance.transfers_rejected": ("count", "lower", None),
    "rebalance.installed_fraction": ("ratio", "higher", None),
    "rebalance.postjoin_pfs_reads": ("count", "lower", None),
    "loadgen.post_join_ops_per_s": ("1/s", "higher", None),
    # a traced run beside the untraced run of the same inputs
    "loadgen.tracing_overhead": ("ratio", "lower", None),
}


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def units(spec: dict) -> dict[str, str]:
    """Unit of every metric, in the order they are printed."""
    out = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    out.update((name, unit) for name, (unit, _, _) in SCENARIO.items())
    out.update((m["name"], m["unit"]) for m in spec["per_layer"])
    return out


def gates(spec: dict) -> dict[str, tuple[str, float]]:
    """Every metric with a bound: name → (better, bound)."""
    out = {m["name"]: (m["better"], m["bound"]) for m in spec["end_to_end"]}
    out.update((name, (better, bound)) for name, (_, better, bound) in SCENARIO.items() if bound is not None)
    return out
