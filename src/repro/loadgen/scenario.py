"""Scenario layer: compose warm-up, steady-state, and chaos phases.

A :class:`Scenario` runs a sequence of :class:`PhaseSpec` against one
:class:`~repro.runtime.cluster.LocalCluster` with one shared
fault-tolerant client (so failure detections persist across phases, as
they would for a long-lived training job).  Each phase drives traffic
with its own :class:`~repro.loadgen.drivers.DriverConfig` and may inject
failures two ways:

* **scheduled** :class:`ChaosEvent` — kill/restart a specific (or
  ``"auto"``-chosen) node at a fixed offset into the phase, for
  deterministic, reproducible failure timing (the CLI's default);
* **random** — a :class:`~repro.runtime.chaos.ChaosMonkey` unleashed for
  the phase's duration, for soak-style torture runs.

Per phase the runner reports throughput, error/shed counts, client hit
rate, server-side counter deltas (hits/misses/PFS reads/recaches/
evictions), latency percentiles, and the chaos actions that actually
fired — the whole thing JSON-serialisable as the ``BENCH_loadgen.json``
perf artifact.
"""

from __future__ import annotations

import json
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Sequence

from ..obs.analysis import (
    build_traces,
    coverage_quantile,
    critical_path,
    slowest_traces,
    stage_breakdown,
)
from ..obs.events import get_event_log
from ..runtime.chaos import ChaosMonkey
from ..runtime.client import FTCacheClient
from ..runtime.cluster import LocalCluster
from .drivers import DriverConfig, DriverResult, make_driver
from .workload import Workload

__all__ = ["ChaosEvent", "PhaseSpec", "PhaseReport", "ScenarioReport", "Scenario"]

#: v2: per-phase deltas and server snapshots grew the data-mover pool
#: counters (mover_enqueued/coalesced/dropped, mover_queue_len) and
#: race_fallthroughs; client_stats split cache_reads into
#: server_cache_reads / server_pfs_reads and added reconnects.
#: v3: elastic scale-out — ChaosEvent action "join" (live node join via
#: repro.rebalance), a top-level "rebalance" block (per-join move plan,
#: warmup traffic, cutover epochs, final ring epoch + membership version),
#: join/transfer counters in per-phase deltas and server snapshots
#: (join_plans, transfers_in, transfer_bytes), and client
#: join_plans_sent / transfers_sent counters.
#: v4: observability — a top-level "obs" block (per-stage span breakdown,
#: instrumentation coverage at p50, slowest-N exemplar trace ids, span/
#: event loss accounting; empty dict when tracing was off), per-phase
#: node_ops attribution and reconnects from the extended on_op hook.
BENCH_SCHEMA_VERSION = 4

_DELTA_KEYS = (
    "hits",
    "misses",
    "pfs_reads",
    "recached",
    "errors",
    "evictions",
    "race_fallthroughs",
    "mover_enqueued",
    "mover_coalesced",
    "mover_dropped",
    "join_plans",
    "transfers_in",
    "transfer_bytes",
)


@dataclass(frozen=True)
class ChaosEvent:
    """One scheduled failure-injection (or scale-out) action within a phase."""

    at: float  # seconds into the phase
    action: str  # "kill" | "restart" | "join"
    #: node id, or "auto" (kill: lowest-id live node; restart: lowest dead;
    #: join: always auto — the cluster assigns the next id)
    node: int | str = "auto"
    kill_mode: str = "hang"
    #: capacity weight for a "join" action (weighted virtual nodes)
    weight: float = 1.0

    def __post_init__(self) -> None:
        if self.at < 0:
            raise ValueError("at must be >= 0")
        if self.action not in ("kill", "restart", "join"):
            raise ValueError("action must be 'kill', 'restart' or 'join'")
        if self.weight <= 0:
            raise ValueError("weight must be positive")


@dataclass(frozen=True)
class PhaseSpec:
    """One scenario phase: a name, a duration, a driver, optional chaos."""

    name: str
    duration: float
    driver: DriverConfig = field(default_factory=DriverConfig)
    chaos: tuple[ChaosEvent, ...] = ()
    #: kwargs for a ChaosMonkey active during the phase (None = no monkey)
    monkey: Optional[dict] = None

    def __post_init__(self) -> None:
        if self.duration <= 0:
            raise ValueError("duration must be positive")


@dataclass
class PhaseReport:
    """Everything measured about one executed phase."""

    name: str
    result: DriverResult
    #: server-side counter deltas over the phase (cluster-wide)
    server_delta: dict
    #: chaos actions that fired: [{"t": s-into-phase, "action", "node"}]
    chaos_actions: list

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            **self.result.to_dict(),
            "server_delta": self.server_delta,
            "chaos": self.chaos_actions,
        }


@dataclass
class ScenarioReport:
    """The full run: config echo + per-phase reports + totals."""

    config: dict
    phases: list[PhaseReport]
    client_stats: dict
    server_snapshots: dict
    #: elastic scale-out summary (schema v3): per-join plan/warmup reports,
    #: final ring epoch and membership version; empty dict when no joins ran
    rebalance: dict = field(default_factory=dict)
    #: observability summary (schema v4): stage breakdown, coverage,
    #: slowest-N exemplar trace ids; empty dict when tracing was off
    obs: dict = field(default_factory=dict)

    def totals(self) -> dict:
        ops = sum(p.result.ops for p in self.phases)
        secs = sum(p.result.duration_s for p in self.phases)
        return {
            "ops": ops,
            "errors": sum(p.result.errors for p in self.phases),
            "shed": sum(p.result.shed for p in self.phases),
            "duration_s": secs,
            "throughput_ops_s": ops / secs if secs else 0.0,
        }

    def to_dict(self) -> dict:
        return {
            "bench": "loadgen",
            "schema_version": BENCH_SCHEMA_VERSION,
            "config": self.config,
            "phases": [p.to_dict() for p in self.phases],
            "totals": self.totals(),
            "client_stats": self.client_stats,
            "servers": self.server_snapshots,
            "rebalance": self.rebalance,
            "obs": self.obs,
        }

    def write_json(self, path: str | Path) -> Path:
        path = Path(path)
        path.write_text(json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n")
        return path


class _ChaosScheduler:
    """Fires a phase's scheduled ChaosEvents from a background thread."""

    def __init__(self, cluster: LocalCluster, events: Sequence[ChaosEvent]):
        self.cluster = cluster
        self.events = sorted(events, key=lambda e: e.at)
        self.fired: list[dict] = []
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    def _resolve(self, event: ChaosEvent) -> Optional[int]:
        alive = sorted(self.cluster.alive_servers)
        dead = sorted(set(self.cluster.servers) - set(alive))
        if event.node != "auto":
            return int(event.node)
        if event.action == "kill":
            return alive[0] if alive else None
        return dead[0] if dead else None

    def _run(self) -> None:
        from ..rebalance import JoinAborted

        t0 = time.monotonic()
        for event in self.events:
            if self._stop.wait(timeout=max(0.0, t0 + event.at - time.monotonic())):
                return
            if event.action == "join":
                # Live scale-out under traffic: plan → warm → cutover runs
                # entirely on this thread; serving traffic never stops.
                try:
                    report = self.cluster.join_server(weight=event.weight)
                except JoinAborted as exc:
                    self.fired.append(
                        {"t": round(time.monotonic() - t0, 3), "action": "join-aborted",
                         "node": None, "reason": str(exc)}
                    )
                    continue
                self.fired.append(
                    {"t": round(time.monotonic() - t0, 3), "action": "join", "node": report.node}
                )
                continue
            node = self._resolve(event)
            if node is None:
                continue  # nothing to kill/restart
            if event.action == "kill":
                self.cluster.kill_server(node, mode=event.kill_mode)
            else:
                self.cluster.restart_server(node)
            self.fired.append({"t": round(time.monotonic() - t0, 3), "action": event.action, "node": node})

    def __enter__(self) -> "_ChaosScheduler":
        if self.events:
            self._thread = threading.Thread(target=self._run, name="loadgen-chaos", daemon=True)
            self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=5.0)


class Scenario:
    """Run phases in order against a cluster, with one long-lived client."""

    def __init__(
        self,
        cluster: LocalCluster,
        workload: Workload,
        phases: Sequence[PhaseSpec],
        client: Optional[FTCacheClient] = None,
        extra_config: Optional[dict] = None,
    ):
        if not phases:
            raise ValueError("scenario needs at least one phase")
        self.cluster = cluster
        self.workload = workload
        self.phases = list(phases)
        self.client = client if client is not None else cluster.client()
        self.extra_config = dict(extra_config or {})

    def run(self, materialize: bool = True, on_phase=None) -> ScenarioReport:
        """Execute all phases; ``on_phase(report)`` streams per-phase results."""
        if materialize:
            self.cluster.paths = self.workload.materialize(self.cluster.pfs)
        reports: list[PhaseReport] = []
        for stream, spec in enumerate(self.phases):
            before = self.cluster.total_stats()
            monkey = ChaosMonkey(self.cluster, **spec.monkey) if spec.monkey else None
            driver = make_driver(self.client, self.workload, spec.driver)
            with _ChaosScheduler(self.cluster, spec.chaos) as sched:
                if monkey is not None:
                    monkey.start()
                try:
                    result = driver.run(spec.duration, stream=stream)
                finally:
                    if monkey is not None:
                        monkey.stop()
            after = self.cluster.total_stats()
            delta = {k: after[k] - before[k] for k in _DELTA_KEYS}
            actions = list(sched.fired)
            if monkey is not None:
                actions += [
                    {"t": round(a.t, 3), "action": a.kind, "node": a.node_id} for a in monkey.actions
                ]
            report = PhaseReport(name=spec.name, result=result, server_delta=delta, chaos_actions=actions)
            reports.append(report)
            if on_phase is not None:
                on_phase(report)
        config = {
            "workload": self.workload.spec.to_dict(),
            "phases": [
                {
                    "name": s.name,
                    "duration": s.duration,
                    "driver": s.driver.to_dict(),
                    "chaos": [
                        {"at": e.at, "action": e.action, "node": e.node,
                         "kill_mode": e.kill_mode, "weight": e.weight}
                        for e in s.chaos
                    ],
                    "monkey": s.monkey,
                }
                for s in self.phases
            ],
            **self.extra_config,
        }
        rebalance: dict = {}
        if self.cluster.join_reports:
            rebalance = {
                "joins": [r.to_dict() for r in self.cluster.join_reports],
                "ring_epoch": self.cluster.ring_epoch.value,
                "membership_version": self.cluster.membership.version,
            }
        return ScenarioReport(
            config=config,
            phases=reports,
            client_stats=dict(self.client.stats),
            server_snapshots=self.cluster.server_snapshots(),
            rebalance=rebalance,
            obs=self._obs_block(),
        )

    # -- observability (schema v4) ---------------------------------------------
    def collect_spans(self) -> list[dict]:
        """Every retained span across the run: driver client, all servers,
        and the join-control clients (which write into the cluster-owned
        buffer so warmup traces survive the short-lived control client)."""
        spans = list(self.client.tracer.buffer.snapshot())
        for server in self.cluster.servers.values():
            spans.extend(server.tracer.buffer.snapshot())
        spans.extend(self.cluster.control_spans.snapshot())
        return spans

    def _obs_block(self, slowest: int = 5) -> dict:
        """The v4 ``obs`` block: stage breakdown, instrumentation coverage,
        slowest-N exemplar read traces, and loss accounting.  Empty dict
        when tracing was off — consumers key on presence, not nulls."""
        spans = self.collect_spans()
        if not spans:
            return {}
        traces = build_traces(spans)
        exemplars = []
        for root in slowest_traces(traces, n=slowest, root_name="client.read"):
            exemplars.append(
                {
                    "trace_id": root.trace_id,
                    "duration_s": root.duration,
                    "nodes": sorted({str(n.node) for n in critical_path(root)}),
                    "critical_path": [n.name for n in critical_path(root)],
                }
            )
        dropped = self.client.tracer.buffer.counters()["spans_dropped"]
        dropped += sum(
            s.tracer.buffer.counters()["spans_dropped"]
            for s in self.cluster.servers.values()
        )
        return {
            "trace_sample_rate": self.cluster.trace_sample_rate,
            "spans": len(spans),
            "traces": len(traces),
            "spans_dropped": dropped,
            "stage_breakdown": stage_breakdown(spans),
            "coverage_p50": coverage_quantile(traces, 0.5, root_name="client.read"),
            "slowest_read_traces": exemplars,
            "events": get_event_log().counters(),
        }
