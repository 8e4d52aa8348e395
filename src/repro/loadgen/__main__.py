"""Load-generation CLI: drive a real LocalCluster and report SLO metrics.

The acceptance smoke from the repo's bench trajectory::

    python -m repro.loadgen --servers 3 --duration 5 --workload zipf

spins up 3 socket servers over temp directories, runs warm-up → steady →
chaos (one mid-phase kill, then an elastic rejoin), prints per-phase
throughput and p50/p90/p99/p99.9 latency, and writes the machine-readable
``BENCH_loadgen.json`` artifact.  All randomness (key popularity, op mix,
Poisson arrivals, chaos timing) derives from ``--seed``; only wall-clock
latency values differ between runs.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from ..obs import configure_logging
from ..runtime.cluster import LocalCluster
from .drivers import DriverConfig
from .scenario import ChaosEvent, PhaseSpec, Scenario
from .workload import Workload, WorkloadSpec

__all__ = ["main", "build_scenario", "render_phase_line", "PHASE_HEADER"]

PHASE_HEADER = (
    f"{'phase':<10} {'mode':<6} {'secs':>6} {'ops':>8} {'ops/s':>8} {'err':>4} "
    f"{'shed':>5} {'hit%':>6} {'p50ms':>8} {'p90ms':>8} {'p99ms':>8} {'p99.9ms':>8} {'maxms':>8}"
)


def _ms(latency: dict | None, key: str) -> str:
    if not latency or key not in latency:
        return "-"
    return f"{latency[key] * 1e3:.2f}"


def render_phase_line(report) -> str:
    d = report.to_dict()
    lat = d.get("latency")
    hit = d.get("client_hit_rate")
    hit_s = f"{100 * hit:.1f}" if hit is not None else "-"
    return (
        f"{d['name']:<10} {d['mode']:<6} {d['duration_s']:>6.1f} {d['ops']:>8d} "
        f"{d['throughput_ops_s']:>8.0f} {d['errors']:>4d} {d['shed']:>5d} {hit_s:>6} "
        f"{_ms(lat, 'p50'):>8} {_ms(lat, 'p90'):>8} {_ms(lat, 'p99'):>8} "
        f"{_ms(lat, 'p999'):>8} {_ms(lat, 'max'):>8}"
    )


def build_scenario(cluster: LocalCluster, args: argparse.Namespace) -> Scenario:
    """Warm-up → steady → chaos phases from parsed CLI flags."""
    spec = WorkloadSpec(
        n_files=args.files,
        file_bytes=args.file_bytes,
        distribution=args.workload,
        zipf_s=args.zipf_s,
        read_fraction=args.read_fraction,
        size_model=args.size_model,
        seed=args.seed,
    )
    workload = Workload(spec)
    driver = DriverConfig(
        mode=args.mode,
        workers=args.workers,
        rate=args.rate,
        queue_depth=args.queue_depth,
        backpressure=args.backpressure,
    )
    warmup_driver = DriverConfig(mode="closed", workers=args.workers)
    phases = []
    if args.warmup > 0:
        phases.append(PhaseSpec(name="warmup", duration=args.warmup, driver=warmup_driver))
    phases.append(PhaseSpec(name="steady", duration=args.duration, driver=driver))
    if args.chaos > 0:
        events = []
        if args.monkey_interval > 0:
            monkey = {"interval": args.monkey_interval, "seed": args.seed, "min_alive": 1}
            phases.append(
                PhaseSpec(name="chaos", duration=args.chaos, driver=driver, monkey=monkey)
            )
        else:
            if not args.no_kill:
                kill_at = args.kill_at if args.kill_at is not None else args.chaos * 0.5
                events.append(ChaosEvent(at=kill_at, action="kill", kill_mode=args.kill_mode))
                if not args.no_restart:
                    restart_at = args.restart_at if args.restart_at is not None else args.chaos * 0.75
                    events.append(ChaosEvent(at=restart_at, action="restart"))
            if args.join_at is not None:
                events.append(
                    ChaosEvent(at=args.join_at, action="join", weight=args.join_weight)
                )
            phases.append(
                PhaseSpec(name="chaos", duration=args.chaos, driver=driver, chaos=tuple(events))
            )
    cli_config = {
        "servers": args.servers,
        "policy": args.policy,
        "ttl": args.ttl,
        "threshold": args.threshold,
        "pfs_delay": args.pfs_delay,
        "nvme_capacity_bytes": args.capacity or None,
        "join_at": args.join_at,
        "join_weight": args.join_weight,
        "trace_sample_rate": args.trace_sample_rate,
        "seed": args.seed,
    }
    return Scenario(cluster, workload, phases, extra_config=cli_config)


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.loadgen",
        description="Drive request traffic against a local FT-Cache cluster and report latency SLOs",
    )
    parser.add_argument("--servers", type=int, default=3, help="number of cache servers")
    parser.add_argument("--duration", type=float, default=5.0, help="steady-state phase seconds")
    parser.add_argument("--warmup", type=float, default=1.0, help="warm-up phase seconds (0 disables)")
    parser.add_argument("--chaos", type=float, default=2.0, help="chaos phase seconds (0 disables)")
    parser.add_argument("--workload", choices=("zipf", "uniform"), default="zipf")
    parser.add_argument("--zipf-s", type=float, default=1.1, help="Zipf exponent")
    parser.add_argument("--files", type=int, default=64, help="corpus size (files)")
    parser.add_argument("--file-bytes", type=int, default=16384, help="value size (bytes)")
    parser.add_argument("--size-model", choices=("fixed", "lognormal"), default="fixed")
    parser.add_argument("--read-fraction", type=float, default=0.9, help="read share of the op mix")
    parser.add_argument("--mode", choices=("closed", "open"), default="closed")
    parser.add_argument("--workers", type=int, default=4, help="driver worker threads")
    parser.add_argument("--rate", type=float, default=300.0, help="open loop: Poisson arrivals/s")
    parser.add_argument("--queue-depth", type=int, default=64, help="open loop: bounded queue depth")
    parser.add_argument("--backpressure", choices=("shed", "block"), default="shed")
    parser.add_argument("--policy", default="elastic",
                        help="elastic | nvme | pfs | NoFT | replicated (cluster fault policy)")
    parser.add_argument("--ttl", type=float, default=0.25, help="client RPC timeout seconds")
    parser.add_argument("--threshold", type=int, default=2, help="timeouts before declaring a node dead")
    parser.add_argument("--pfs-delay", type=float, default=0.0, help="artificial PFS read delay seconds")
    parser.add_argument("--capacity", type=int, default=0,
                        help="per-server NVMe capacity bytes (0 = unbounded; small values exercise LRU eviction)")
    parser.add_argument("--kill-at", type=float, default=None,
                        help="seconds into the chaos phase to kill a server (default: midpoint)")
    parser.add_argument("--restart-at", type=float, default=None,
                        help="seconds into the chaos phase to restart it (default: 75%%)")
    parser.add_argument("--no-restart", action="store_true", help="leave the killed server down")
    parser.add_argument("--no-kill", action="store_true",
                        help="skip the scheduled kill/restart (e.g. for a join-only chaos phase)")
    parser.add_argument("--kill-mode", choices=("hang", "drop"), default="hang")
    parser.add_argument("--join-at", type=float, default=None,
                        help="seconds into the chaos phase to live-join a new server (elastic scale-out)")
    parser.add_argument("--join-weight", type=float, default=1.0,
                        help="capacity weight of the joining server (weighted virtual nodes)")
    parser.add_argument("--monkey-interval", type=float, default=0.0,
                        help="use a random ChaosMonkey (mean seconds between events) instead of one scheduled kill")
    parser.add_argument("--trace-sample-rate", type=float, default=0.0,
                        help="fraction of client requests traced end-to-end (0 disables tracing)")
    parser.add_argument("--obs-dir", default="",
                        help="directory for span/event JSONL dumps ('' disables; implies tracing output)")
    parser.add_argument("--log-level", default="warning",
                        choices=("debug", "info", "warning", "error"),
                        help="stdlib logging level for the repro hierarchy")
    parser.add_argument("--seed", type=int, default=2024)
    parser.add_argument("--out", default="BENCH_loadgen.json", help="JSON artifact path ('' disables)")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = make_parser().parse_args(argv)
    configure_logging(args.log_level)
    with LocalCluster(
        n_servers=args.servers,
        policy=args.policy,
        ttl=args.ttl,
        timeout_threshold=args.threshold,
        pfs_read_delay=args.pfs_delay,
        nvme_capacity_bytes=args.capacity or None,
        trace_sample_rate=args.trace_sample_rate,
        trace_seed=args.seed,
    ) as cluster:
        scenario = build_scenario(cluster, args)
        print(f"loadgen: {args.servers} servers, policy={args.policy}, "
              f"workload={args.workload}(s={args.zipf_s}) over {args.files} x {args.file_bytes} B, "
              f"mode={args.mode}, seed={args.seed}")
        print(PHASE_HEADER)
        report = scenario.run(on_phase=lambda p: print(render_phase_line(p), flush=True))
        obs_files = cluster.dump_obs(Path(args.obs_dir)) if args.obs_dir else []
    for phase in report.phases:
        for action in phase.chaos_actions:
            print(f"  chaos[{phase.name}] t={action['t']:.2f}s {action['action']} node {action['node']}")
    for join in report.rebalance.get("joins", ()):
        plan = join.get("plan", {})
        print(
            f"  join node {join['node']} [{join['state']}]: "
            f"{join['warmed_keys']}/{plan.get('moved_keys', 0)} keys warmed "
            f"({join['warmed_bytes']} B) in {join['warmup_seconds']:.2f}s, "
            f"moved fraction {plan.get('predicted_fraction', 0):.3f} "
            f"(theoretical {plan.get('theoretical_fraction', 0):.3f}), "
            f"{join['throttle_pauses']} throttle pauses, "
            f"epoch {join['planned_epoch']}->{join['cutover_epoch']}"
        )
    if report.obs:
        cov = report.obs.get("coverage_p50")
        exemplars = report.obs.get("slowest_read_traces", [])
        print(f"  obs: {report.obs['spans']} spans / {report.obs['traces']} traces "
              f"(sample rate {report.obs['trace_sample_rate']}), "
              f"coverage p50 {'-' if cov is None else f'{cov:.3f}'}, "
              f"{report.obs['spans_dropped']} dropped")
        for ex in exemplars[:3]:
            print(f"    slow trace {ex['trace_id']}: {ex['duration_s'] * 1e3:.2f} ms "
                  f"via {' > '.join(ex['critical_path'])}")
    for f in obs_files:
        print(f"  obs dump {f}")
    totals = report.totals()
    print(f"totals: {totals['ops']} ops in {totals['duration_s']:.1f}s "
          f"({totals['throughput_ops_s']:.0f} ops/s), {totals['errors']} errors, {totals['shed']} shed")
    if args.out:
        path = report.write_json(args.out)
        print(f"wrote {path}")
    return 1 if totals["errors"] else 0


if __name__ == "__main__":
    sys.exit(main())
