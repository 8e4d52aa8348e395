"""In-process cluster manager for the threaded runtime.

Spins up ``n`` :class:`~repro.runtime.server.FTCacheServer` threads over
per-node cache directories and one shared PFS directory, wires a
fault-tolerant client to them, and offers kill-based failure injection —
the laptop-scale twin of a Frontier allocation.

Typical use (also ``examples/runtime_cluster.py``)::

    with LocalCluster(n_servers=4, workdir=tmp, policy="nvme") as cluster:
        cluster.populate(n_files=64, file_bytes=1 << 16)
        client = cluster.client()
        data = client.read(cluster.paths[0])     # miss → PFS → recached
        cluster.kill_server(cluster.owner_of(cluster.paths[0]))
        data = client.read(cluster.paths[0])     # TTL → declare → re-route
"""

from __future__ import annotations

import json
import shutil
import tempfile
from pathlib import Path
from typing import Optional

import numpy as np

from ..core.fault_policy import FaultPolicy, make_policy
from ..core.membership import MembershipView
from ..core.replication import ReplicatedRecache
from ..core.hash_ring import HashRing
from ..core.static_hash import StaticHash
from ..obs import Counters, SpanBuffer, Tracer, get_event_log
from ..rebalance import JoinCoordinator, JoinReport, RingDiff, RingEpoch
from .client import FTCacheClient
from .server import STAT_COUNTER_KEYS, FTCacheServer
from .storage import NVMeDir, PFSDir

__all__ = ["LocalCluster"]


class LocalCluster:
    """n threaded cache servers + shared PFS dir + failure injection."""

    def __init__(
        self,
        n_servers: int = 4,
        workdir: Optional[str | Path] = None,
        policy: str = "nvme",
        vnodes_per_node: int = 100,
        ttl: float = 0.5,
        timeout_threshold: int = 2,
        pfs_read_delay: float = 0.0,
        nvme_capacity_bytes: Optional[int] = None,
        replicas: int = 2,
        ring_probes: int = 1,
        trace_sample_rate: float = 0.0,
        trace_seed: int = 0,
    ):
        if n_servers < 1:
            raise ValueError("n_servers must be >= 1")
        if not 0.0 <= trace_sample_rate <= 1.0:
            raise ValueError(f"trace_sample_rate must be in [0, 1], got {trace_sample_rate}")
        self.policy_name = policy
        self.replicas = replicas
        self.ttl = ttl
        self.timeout_threshold = timeout_threshold
        self.nvme_capacity_bytes = nvme_capacity_bytes
        self.ring_probes = ring_probes
        #: head-based sampling rate for client-rooted traces; 0 disables
        #: tracing entirely (servers still trace iff a header arrives,
        #: which then never happens)
        self.trace_sample_rate = trace_sample_rate
        self.trace_seed = trace_seed
        #: span sink for join-control clients, which are closed (and their
        #: tracers lost) when each join finishes — the buffer outlives them
        self.control_spans = SpanBuffer()
        self._owns_workdir = workdir is None
        self.workdir = Path(workdir) if workdir is not None else Path(tempfile.mkdtemp(prefix="ftcache-"))
        self.pfs = PFSDir(self.workdir / "pfs", read_delay=pfs_read_delay)
        self.servers: dict[int, FTCacheServer] = {}
        for i in range(n_servers):
            nvme = NVMeDir(self.workdir / f"nvme{i}", capacity_bytes=nvme_capacity_bytes)
            self.servers[i] = self._spawn_server(i, nvme)
        self.vnodes_per_node = vnodes_per_node
        #: per-node capacity weight, threaded into every new client's ring
        #: (nodes absent here weigh 1.0); set by join_server(weight=...)
        self.node_weights: dict[int, float] = {}
        #: cluster-level liveness/placement truth: kills mark FAILED,
        #: restarts mark ACTIVE, joins admit — always *before* placements flip
        self.membership = MembershipView(sorted(self.servers))
        #: placement version; advanced on every membership change
        self.ring_epoch = RingEpoch()
        self.paths: list[str] = []
        self._clients: list[FTCacheClient] = []
        #: reports of completed/aborted elastic joins, in order
        self.join_reports: list[JoinReport] = []
        #: counters of server instances retired by restart_server, so
        #: cluster-wide totals stay monotone across repairs
        self._retired_stats = Counters((*STAT_COUNTER_KEYS, "evictions"))

    def _spawn_server(self, node_id: int, nvme: NVMeDir, host: str = "127.0.0.1", port: int = 0) -> FTCacheServer:
        return FTCacheServer(node_id, nvme, self.pfs, host=host, port=port).start()

    # -- construction helpers ---------------------------------------------------------
    def _make_placement(self):
        if self.policy_name in ("FT w/ NVMe", "nvme", "replicated", "FT w/ NVMe (replicated)"):
            return HashRing(
                nodes=sorted(self.servers),
                vnodes_per_node=self.vnodes_per_node,
                weights=self.node_weights or None,
                probes=self.ring_probes,
            )
        return StaticHash(nodes=sorted(self.servers))

    def make_policy(self) -> FaultPolicy:
        if self.policy_name in ("replicated", "FT w/ NVMe (replicated)"):
            return ReplicatedRecache(self._make_placement(), replicas=self.replicas)
        return make_policy(self.policy_name, self._make_placement())

    def client(self, policy: Optional[FaultPolicy] = None) -> FTCacheClient:
        """A new fault-tolerant client (own policy instance by default)."""
        tracer = None
        if self.trace_sample_rate > 0.0:
            tracer = Tracer(
                node=f"client-{len(self._clients)}",
                sample_rate=self.trace_sample_rate,
                seed=self.trace_seed + len(self._clients),
            )
        c = FTCacheClient(
            servers={i: s.address for i, s in self.servers.items()},
            policy=policy if policy is not None else self.make_policy(),
            pfs=self.pfs,
            ttl=self.ttl,
            timeout_threshold=self.timeout_threshold,
            tracer=tracer,
        )
        self._clients.append(c)
        return c

    # -- dataset ------------------------------------------------------------------------
    def populate(self, n_files: int = 64, file_bytes: int = 4096, seed: int = 0) -> list[str]:
        """Write a synthetic dataset into the PFS dir; returns the paths."""
        rng = np.random.default_rng(seed)
        self.paths = []
        for i in range(n_files):
            path = f"/dataset/train/sample_{i:06d}.bin"
            self.pfs.write(path, rng.bytes(file_bytes))
            self.paths.append(path)
        return self.paths

    def owner_of(self, path: str, policy: Optional[FaultPolicy] = None) -> int:
        pol = policy if policy is not None else (self._clients[0].policy if self._clients else self.make_policy())
        target = pol.target_for(path)
        if target.kind != "node":
            raise ValueError(f"{path!r} routes to the PFS under the current policy state")
        return int(target.node)

    # -- failure injection ----------------------------------------------------------------
    def kill_server(self, node_id: int, mode: str = "hang") -> None:
        """The DRAIN analogue: the server stops answering."""
        get_event_log().emit("node_killed", node=node_id, mode=mode)
        self.servers[node_id].kill(mode=mode)
        self.membership.mark_failed(node_id)
        self.ring_epoch.advance()

    def restart_server(
        self, node_id: int, notify_clients: bool = True, same_address: bool = False
    ) -> FTCacheServer:
        """Bring a killed node back (repair + elastic rejoin).

        A fresh server starts over the node's existing cache directory —
        entries written before the failure survive, so the rejoin is warm.
        Clients created by this cluster are re-pointed at the new address
        and their policies re-admit the node (keys flow back to it).

        ``same_address=True`` rebinds the node's previous host:port — the
        HPC repair case where a node rejoins under its old identity.  With
        ``notify_clients=False`` this exercises the stale-pooled-socket
        path: clients discover the restart only when a reused connection
        resets, and must reconnect transparently rather than feed the
        failure detector.
        """
        old = self.servers[node_id]
        host, port = old.address
        old.close()
        self._retired_stats.bump(**old.counters())
        nvme = NVMeDir(old.nvme.root, capacity_bytes=old.nvme.capacity_bytes)  # rescans surviving entries
        if same_address:
            fresh = self._spawn_server(node_id, nvme, host=host, port=port)
        else:
            fresh = self._spawn_server(node_id, nvme)
        self.servers[node_id] = fresh
        get_event_log().emit(
            "node_restarted", node=node_id, same_address=same_address,
            notify_clients=notify_clients,
        )
        self.membership.ensure_active(node_id)
        self.ring_epoch.advance()
        if notify_clients:
            for c in self._clients:
                c.admit_node(node_id, fresh.address)
        return fresh

    # -- elastic scale-out ------------------------------------------------------------
    def join_server(
        self,
        weight: float = 1.0,
        nvme_capacity_bytes: Optional[int] = None,
        throttle_fraction: float = 0.75,
    ) -> JoinReport:
        """Live-join a brand-new server: plan → warm → cutover, zero client
        errors (see :mod:`repro.rebalance`).

        Spawns a fresh server on a new node id, computes the exact
        moved-key plan against the current ring, backfills those keys into
        the new node through its install path (reading from current
        owners, falling back to the PFS), and only then flips the node
        into membership and every existing client's placement under a new
        ring epoch.  Until cutover, no placement anywhere can route to the
        node; after cutover, its cache already holds the moved keys.

        ``weight`` is the node's relative capacity: it receives
        ``weight / total_weight`` of the keyspace (weighted vnodes).
        Returns the :class:`~repro.rebalance.JoinReport`; raises
        :class:`~repro.rebalance.JoinAborted` (after shutting the spawned
        server down) if the warmup cannot complete.
        """
        node_id = max(self.servers) + 1
        nvme = NVMeDir(
            self.workdir / f"nvme{node_id}",
            capacity_bytes=nvme_capacity_bytes
            if nvme_capacity_bytes is not None
            else self.nvme_capacity_bytes,
        )
        fresh = self._spawn_server(node_id, nvme)
        try:
            reference_ring = HashRing(
                nodes=sorted(self.servers),
                vnodes_per_node=self.vnodes_per_node,
                weights=self.node_weights or None,
                probes=self.ring_probes,
            )
            sizes = {
                p: self.pfs.resolve(p).stat().st_size for p in self.paths if self.pfs.exists(p)
            }
            plan = RingDiff(reference_ring).plan_join(
                node_id, self.paths, weight=weight, sizes=sizes,
                planned_epoch=self.ring_epoch.value,
            )

            # Dedicated control-plane client: explicit-node RPCs only, its
            # placement policy is never consulted (and must not be — the
            # joining node is deliberately absent from every placement here).
            control = FTCacheClient(
                servers={i: s.address for i, s in self.servers.items()},
                policy=make_policy("pfs", StaticHash(nodes=sorted(self.servers))),
                pfs=self.pfs,
                ttl=self.ttl,
                timeout_threshold=self.timeout_threshold,
                # Warmup traffic is rare and diagnostic gold: trace all of
                # it (when tracing is on at all) into the cluster-owned
                # buffer, which outlives this short-lived client.
                tracer=Tracer(node="control", buffer=self.control_spans)
                if self.trace_sample_rate > 0.0
                else None,
            )
        except Exception:
            fresh.close()  # never leak a server thread on a failed plan
            raise
        control.register_address(node_id, fresh.address)

        def cutover() -> int:
            # Ordering is the invariant (see DESIGN.md): membership first —
            # its version bump + subscriber notifications observe pre-join
            # routing — then the cluster's own books, then each client's
            # placement via the admit_node epoch machinery.
            self.membership.ensure_active(node_id)
            self.servers[node_id] = fresh
            if weight != 1.0:
                self.node_weights[node_id] = float(weight)
            for c in self._clients:
                c.admit_node(node_id, fresh.address, weight=weight)
            return self.ring_epoch.advance()

        def rollback() -> None:
            fresh.close()

        coordinator = JoinCoordinator(
            plan=plan,
            control=control,
            pfs=self.pfs,
            cutover=cutover,
            rollback=rollback,
            throttle_fraction=throttle_fraction,
        )
        try:
            report = coordinator.run()
        finally:
            control.close()
            self.join_reports.append(coordinator.report)
        return report

    @property
    def alive_servers(self) -> list[int]:
        return [i for i, s in self.servers.items() if s.alive]

    def total_stats(self) -> dict:
        out = self._retired_stats.snapshot()
        for s in self.servers.values():
            for k, v in s.counters().items():
                out[k] += v
        return out

    def server_snapshots(self) -> dict[int, dict]:
        """Per-server occupancy/traffic snapshot (in-process OP_STAT twin)."""
        out: dict[int, dict] = {}
        for i, s in self.servers.items():
            out[i] = {
                "alive": s.alive,
                "cached_entries": s.nvme.entry_count(),
                "cached_bytes": s.nvme.used_bytes,
                "capacity_bytes": s.nvme.capacity_bytes,
                "mover_queue_len": s.mover_queue_len,
                **s.counters(),
            }
        return out

    # -- observability -------------------------------------------------------------------
    def dump_obs(self, outdir: str | Path) -> list[Path]:
        """Write every span buffer + the event log as JSONL into ``outdir``.

        One ``spans-<name>.jsonl`` per process-side component (each server,
        each client, the join-control buffer) plus ``events.jsonl`` —
        exactly the layout ``python -m repro.obs`` merges back into
        cross-node trace trees.  Empty buffers write nothing.  Returns the
        files written.
        """
        outdir = Path(outdir)
        outdir.mkdir(parents=True, exist_ok=True)
        sources: list[tuple[str, list[dict]]] = [
            (f"server-{i}", s.tracer.buffer.snapshot()) for i, s in self.servers.items()
        ]
        sources += [
            (f"client-{j}", c.tracer.buffer.snapshot()) for j, c in enumerate(self._clients)
        ]
        sources.append(("control", self.control_spans.snapshot()))
        written: list[Path] = []
        for name, spans in sources:
            if not spans:
                continue
            path = outdir / f"spans-{name}.jsonl"
            path.write_text("".join(json.dumps(s, default=str) + "\n" for s in spans))
            written.append(path)
        events = get_event_log().snapshot()
        if events:
            path = outdir / "events.jsonl"
            path.write_text("".join(json.dumps(e, default=str) + "\n" for e in events))
            written.append(path)
        return written

    # -- lifecycle -----------------------------------------------------------------------
    def close(self) -> None:
        for c in self._clients:
            c.close()
        for s in self.servers.values():
            s.close()
        if self._owns_workdir:
            shutil.rmtree(self.workdir, ignore_errors=True)

    def __enter__(self) -> "LocalCluster":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
