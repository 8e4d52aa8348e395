"""Data-parallel training job over the HVAC cache — the end-to-end harness.

Assembles the whole stack for one training run (Fig 5's unit of
measurement): HVAC servers and clients on every node, a shared placement +
fault policy, a per-epoch distributed sampler, per-batch synchronisation
barriers, Horovod-elastic rollback, and a timeline recorder.

Flow per epoch:

* every alive node runs a *rank* process: read batch through the HVAC
  client → compute → barrier (allreduce);
* a node failure leaves survivors hung at the barrier; the elastic
  controller notices after ``ElasticConfig.detect_time``, interrupts all
  ranks, pays ``restart_overhead``, and restarts the epoch with N−1 ranks
  (the paper's "reverting to the start of the failed epoch");
* during the restarted epoch, surviving HVAC clients independently hit the
  dead server, time out, declare it failed, and the fault policy takes
  over (abort / PFS redirect / ring recache).

The policy and membership view are shared across clients by default: all
clients converge to the same post-failure view, and the per-client
detection *cost* (TTL expiries) is still paid by whichever clients touch
the dead node.  Pass ``shared_policy=False`` to give every client its own
placement instance (exact per-client views; memory grows with N²).
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from ..cluster.topology import Cluster
from ..core.fault_policy import FaultPolicy, UnrecoverableNodeFailure, make_policy
from ..core.hash_ring import HashRing
from ..core.membership import MembershipView
from ..core.placement import PlacementPolicy
from ..core.static_hash import StaticHash
from ..hvac.client import HvacClient
from ..hvac.rpc import RpcFabric
from ..hvac.server import HvacServer
from ..metrics import MetricsCollector, Timeline
from ..metrics.trace import Tracer
from ..sim import AnyOf, Event, Interrupt, Process
from .dataset import Dataset, combine_datasets
from .elastic import ElasticConfig, StepBarrier
from .sampler import DistributedSampler

__all__ = ["TrainingConfig", "TrainingResult", "TrainingJob", "JobAborted"]


class JobAborted(RuntimeError):
    """The training job terminated without completing all epochs (NoFT path)."""

    def __init__(self, reason: str, node_id: Optional[int] = None):
        super().__init__(reason)
        self.node_id = node_id


@dataclass(frozen=True)
class TrainingConfig:
    """Knobs for one training run (defaults follow the paper's setup)."""

    epochs: int = 5
    batch_size: int = 8  # samples per rank per step
    seed: int = 0
    shuffle: bool = True
    # --- cache-layer fault tolerance (artifact's TIMEOUT_SECONDS / TIMEOUT_LIMIT)
    ttl: float = 1.0
    timeout_threshold: int = 3
    #: virtual nodes per physical node for ring placement (paper: 100)
    vnodes_per_node: int = 100
    #: extra per-step cost of FT bookkeeping (conditional checks, timeout
    #: monitoring, mutexes — why NoFT wins slightly in Fig 5a)
    ft_step_overhead: float = 0.4e-3
    elastic: ElasticConfig = field(default_factory=ElasticConfig)
    #: start with the cache already populated (skip the cold first epoch)
    preload: bool = False
    #: pipelined data loading (tf.data/DataLoader prefetch): the next
    #: batch's reads overlap the current batch's compute, so a step costs
    #: max(io, compute) instead of io + compute.  Off by default — the
    #: paper's straggler analysis presumes synchronous, on-critical-path
    #: reads — and exposed for the prefetch ablation.
    pipelined_loader: bool = False
    #: pre-stage the cache before training starts: every server bulk-reads
    #: its shard from the PFS at full pipeline depth (aggregate-bound),
    #: so even the first epoch runs warm.  An operational extension — the
    #: paper's HVAC populates on demand during epoch 1.
    warmup: bool = False
    #: push-based recovery: when a failure is declared, the new owners
    #: bulk-fetch the lost files in the background instead of waiting for
    #: demand misses.  The paper's artifact "reactively caches the files
    #: upon missing" — this flag is the proactive alternative; demand
    #: misses racing ahead of the prefetch still work normally.
    proactive_recache: bool = False
    #: forward-pass cost of a validation batch relative to a training step
    validation_compute_fraction: float = 0.4
    #: elastic recovery granularity: "step" resumes from the last committed
    #: batch (Horovod elastic with per-batch ``state.commit()``, the
    #: behaviour required to reconcile the paper's Fig 5b percentages with
    #: five failures per run); "epoch" re-runs the failed epoch from its
    #: start (the paper's textual description) — kept for the ablation.
    recovery: str = "step"

    def __post_init__(self) -> None:
        if self.recovery not in ("step", "epoch"):
            raise ValueError(f"recovery must be 'step' or 'epoch', got {self.recovery!r}")


@dataclass
class TrainingResult:
    """Everything the experiment harness needs from one run."""

    policy_name: str
    n_nodes_start: int
    n_nodes_end: int
    completed: bool
    total_time: float
    #: wall-clock attributed to each epoch index (rollback attempts included)
    epoch_times: dict[int, float]
    restarts: int
    timeline: Timeline
    metrics: MetricsCollector
    abort_reason: str = ""

    @property
    def failures(self) -> int:
        return len(self.timeline.failures)


def _default_placement(policy_name: str, nodes: range, config: TrainingConfig) -> PlacementPolicy:
    """The paper's pairing: ring for elastic recaching, HVAC's static hash
    for NoFT and PFS redirection (their placement never changes)."""
    if policy_name in ("FT w/ NVMe", "nvme"):
        return HashRing(nodes=nodes, vnodes_per_node=config.vnodes_per_node)
    return StaticHash(nodes=nodes)


class TrainingJob:
    """One CosmoFlow-style run on a cluster under a fault-tolerance policy."""

    def __init__(
        self,
        cluster: Cluster,
        dataset: Dataset,
        policy_name: str = "FT w/ NVMe",
        config: TrainingConfig = TrainingConfig(),
        placement: Optional[PlacementPolicy] = None,
        metrics: Optional[MetricsCollector] = None,
        shared_policy: bool = True,
        trace: bool = False,
        val_dataset: Optional[Dataset] = None,
    ):
        self.cluster = cluster
        self.env = cluster.env
        self.train_samples = dataset.n_samples
        if val_dataset is not None:
            # One cache-visible id space: validation files follow training
            # files (the paper evaluates the 65,536-sample split each epoch).
            dataset = combine_datasets(dataset, val_dataset)
        self.val_samples = dataset.n_samples - self.train_samples
        self.dataset = dataset
        self.config = config
        self.policy_name = policy_name
        self.metrics = metrics if metrics is not None else MetricsCollector()
        self.timeline = Timeline()
        train_view = (
            Dataset(
                name=dataset.name,
                n_samples=self.train_samples,
                sample_bytes=dataset.sizes_array()[: self.train_samples],
            )
            if self.val_samples
            else dataset
        )
        self.sampler = DistributedSampler(
            train_view, batch_size=config.batch_size, seed=config.seed, shuffle=config.shuffle
        )

        n = cluster.n_nodes
        self.tracer = Tracer() if trace else None
        self.fabric = RpcFabric(cluster)
        self.servers = [
            HvacServer(cluster, i, self.fabric, metrics=self.metrics, tracer=self.tracer)
            for i in range(n)
        ]
        self.membership = MembershipView(range(n))

        base_placement = placement if placement is not None else _default_placement(
            policy_name, range(n), config
        )
        self.clients: list[HvacClient] = []
        self._shared_policy = shared_policy
        if shared_policy:
            shared = make_policy(policy_name, base_placement)
            self.policy: Optional[FaultPolicy] = shared
            policies = [shared] * n
        else:
            self.policy = None
            policies = [make_policy(policy_name, copy.deepcopy(base_placement)) for _ in range(n)]
        for i in range(n):
            self.clients.append(
                HvacClient(
                    cluster,
                    i,
                    policies[i],
                    self.fabric,
                    membership=self.membership,
                    metrics=self.metrics,
                    ttl=config.ttl,
                    timeout_threshold=config.timeout_threshold,
                    tracer=self.tracer,
                )
            )

        self._epoch_end_events: dict[int, Event] = {}
        self._ranks: list[int] = list(range(n))
        self._proc: Optional[Process] = None
        self.current_epoch = 0
        #: pre-failure owner map, kept for proactive recovery
        self._owner_snapshot: Optional[np.ndarray] = None
        if config.proactive_recache:
            self._owner_snapshot = policies[0].placement.lookup_many(
                np.arange(dataset.n_samples)
            )
            self.membership.subscribe(self._on_membership_change)
            self._recovery_policy = policies[0]

        if config.preload:
            self._preload_caches(policies[0])

    # -- setup helpers ---------------------------------------------------------------
    def _preload_caches(self, policy: FaultPolicy) -> None:
        """Populate every server as if epoch 1 had already run."""
        fids = np.arange(self.dataset.n_samples)
        owners = policy.placement.lookup_many(fids)
        sizes = self.dataset.sizes_array()
        for node_id in range(self.cluster.n_nodes):
            mask = owners == node_id
            files = [(int(f), float(s)) for f, s in zip(fids[mask], sizes[mask])]
            self.servers[node_id].preload(files)

    def epoch_end_event(self, epoch: int) -> Event:
        """Event fired when ``epoch`` completes (used by failure injectors)."""
        evt = self._epoch_end_events.get(epoch)
        if evt is None:
            evt = Event(self.env)
            self._epoch_end_events[epoch] = evt
        return evt

    @property
    def ranks(self) -> tuple[int, ...]:
        return tuple(self._ranks)

    def _allreduce_time(self, n_ranks: int) -> float:
        cc = self.cluster.config.compute
        return cc.allreduce_base + cc.allreduce_per_log2_node * math.log2(max(2, n_ranks))

    # -- run --------------------------------------------------------------------------
    def start(self) -> Process:
        """Launch servers + controller; returns the controller process."""
        if self._proc is not None:
            raise RuntimeError("job already started")
        for s in self.servers:
            s.start()
        self._proc = self.env.process(self._controller(), name="training-controller")
        return self._proc

    # -- proactive recovery (push-based recaching extension) --------------------------
    def _on_membership_change(self, node_id, state) -> None:
        from ..core.membership import NodeState

        if state is NodeState.FAILED:
            self.env.process(
                self._proactive_recache(int(node_id)), name=f"proactive-recache-{node_id}"
            )

    def _proactive_recache(self, failed_node: int):
        """Process body: new owners bulk-fetch the failed node's files.

        Runs concurrently with training; demand misses for files the
        prefetch has not reached yet still take the normal recache path
        (the server-side inflight set dedupes the PFS fetches).
        """
        assert self._owner_snapshot is not None
        fids = np.arange(self.dataset.n_samples)
        lost = fids[self._owner_snapshot == failed_node]
        if len(lost) == 0:
            return
        sizes = self.dataset.sizes_array()
        new_owners = self._recovery_policy.placement.lookup_many(lost)
        # Refresh the snapshot so cascading failures recover correctly.
        self._owner_snapshot = self._recovery_policy.placement.lookup_many(fids)

        def _pull(server, files):
            pending = [(int(f), float(s)) for f, s in files if int(f) not in server.store]
            if not pending:
                return
            total = sum(nb for _, nb in pending)
            yield from self.cluster.pfs.read(total, n_files=len(pending))
            server.preload(pending)
            self.metrics.add("proactive.bytes", total)
            self.metrics.inc("proactive.files", len(pending))

        procs = []
        for owner in set(new_owners.tolist()):
            if not self.cluster.nodes[int(owner)].alive:
                continue
            mask = new_owners == owner
            files = list(zip(lost[mask], sizes[lost[mask]]))
            procs.append(self.env.process(_pull(self.servers[int(owner)], files)))
        if procs:
            yield self.env.all_of(procs)

    # -- warmup (pre-staging extension) ---------------------------------------------
    def _warmup(self):
        """Process body: every server bulk-fetches its shard from the PFS.

        Runs before epoch 0; transfers share the PFS aggregate bandwidth
        concurrently (deep pipelines, no training barrier), after which the
        caches are populated and the first epoch behaves like a warm one.
        """
        policy_placement = self.clients[0].policy.placement
        fids = np.arange(self.dataset.n_samples)
        owners = policy_placement.lookup_many(fids)
        sizes = self.dataset.sizes_array()

        def _stage(server, files):
            total = float(sum(nb for _, nb in files))
            if not files:
                return
            yield from self.cluster.pfs.read(total, n_files=len(files))
            server.preload(files)
            self.metrics.add("warmup.bytes", total)

        procs = []
        for node_id in range(self.cluster.n_nodes):
            mask = owners == node_id
            files = [(int(f), float(s)) for f, s in zip(fids[mask], sizes[mask])]
            procs.append(self.env.process(_stage(self.servers[node_id], files)))
        if procs:
            yield self.env.all_of(procs)
        self.metrics.record("warmup.done", self.env.now, 1.0)

    def run(self) -> TrainingResult:
        """Convenience: start and drive the simulation to completion."""
        proc = self.start()
        self.env.run(until=proc)
        return proc.value

    # -- controller ---------------------------------------------------------------------
    def _controller(self):
        cfg = self.config
        t_start = self.env.now
        n_start = len(self._ranks)
        if cfg.warmup:
            yield from self._warmup()
        restarts = 0
        epoch = 0
        abort_reason = ""
        completed = True
        remaining = None  # unconsumed sample tail of the current epoch
        remaining_epoch = -1

        while epoch < cfg.epochs:
            self.current_epoch = epoch
            # Nodes that died while we were rolling back (detect/restart
            # window) were never seen by the AnyOf below — record them here
            # so the timeline counts every injected failure.
            dead_unnoticed = [
                n
                for n in self._ranks
                if not self.cluster.nodes[n].alive
                and not any(f.node_id == n for f in self.timeline.failures)
            ]
            for n in dead_unnoticed:
                self.timeline.note_failure(self.env.now, n, epoch)
                self.metrics.inc("job.node_failures")
            self._ranks = [n for n in self._ranks if self.cluster.nodes[n].alive]
            if not self._ranks:
                completed = False
                abort_reason = "all nodes failed"
                break
            n_ranks = len(self._ranks)
            rec = self.timeline.begin_epoch(epoch, self.env.now, n_ranks)
            barrier = StepBarrier(self.env, n_ranks, self._allreduce_time(n_ranks))
            # Shard whatever remains of this epoch over the current ranks.
            # A fresh epoch starts from its full permutation; after a
            # step-level rollback `remaining` holds the unconsumed tail.
            if remaining_epoch != epoch or remaining is None:
                remaining = self.sampler.epoch_permutation(epoch)
                remaining_epoch = epoch
            samples_m = DistributedSampler.shard_matrix(remaining, n_ranks, cfg.batch_size)
            rank_procs = [
                self.env.process(
                    self._rank_epoch(node, samples_m[rank], barrier),
                    name=f"rank{rank}-epoch{epoch}",
                )
                for rank, node in enumerate(self._ranks)
            ]
            epoch_done = self.env.all_of(rank_procs)
            fail_events = [self.cluster.nodes[n].failed_event for n in self._ranks]
            fired = yield AnyOf(self.env, [epoch_done] + fail_events)

            if epoch_done in fired:
                # A rank may have surfaced a NoFT abort as its return value.
                aborted = [p.value for p in rank_procs if isinstance(p.value, JobAborted)]
                if aborted:
                    rec.end = self.env.now
                    completed = False
                    abort_reason = str(aborted[0])
                    break
                if self.val_samples:
                    # Per-epoch validation over the held-out split (forward
                    # passes + metric allreduce; same barrier structure).
                    val_ids = np.arange(self.train_samples, self.dataset.n_samples)
                    val_m = DistributedSampler.shard_matrix(val_ids, n_ranks, cfg.batch_size)
                    val_barrier = StepBarrier(self.env, n_ranks, self._allreduce_time(n_ranks))
                    val_procs = [
                        self.env.process(
                            self._rank_validation(node, val_m[rank], val_barrier),
                            name=f"val-rank{rank}-epoch{epoch}",
                        )
                        for rank, node in enumerate(self._ranks)
                    ]
                    yield self.env.all_of(val_procs)
                    self.metrics.inc("job.validation_passes")
                rec.end = self.env.now
                evt = self._epoch_end_events.get(epoch)
                if evt is not None and not evt.triggered:
                    evt.succeed(self.env.now)
                epoch += 1
                remaining = None
                continue

            # --- a participating node failed mid-epoch ---
            failed_node = next(iter(fired.values()))
            self.timeline.note_failure(self.env.now, int(failed_node), epoch)
            self.metrics.inc("job.node_failures")

            if self.policy_name == "NoFT":
                # Baseline HVAC: no recovery — the job dies here (Fig 5b's
                # dashed line is the *no-failure* reference for this case).
                for p in rank_procs:
                    if p.is_alive:
                        p.interrupt("job-abort")
                yield epoch_done
                rec.end = self.env.now
                completed = False
                abort_reason = f"node {failed_node} failed under NoFT"
                break

            # Horovod elastic: detection delay, tear-down, fixed restart
            # cost, then re-enter the same epoch with the survivors.
            yield self.env.timeout(cfg.elastic.detect_time)
            for p in rank_procs:
                if p.is_alive:
                    p.interrupt("elastic-rollback")
            yield epoch_done  # all ranks unwound (AllOf of their processes)
            rec.end = self.env.now
            rec.restarts += 1
            restarts += 1
            self.metrics.inc("job.elastic_restarts")
            if cfg.recovery == "step":
                # Progress up to the last completed barrier generation is
                # committed; survivors re-shard only the unconsumed tail.
                committed = barrier.generations * cfg.batch_size
                left = samples_m[:, committed:]
                remaining = left[left >= 0]
            else:
                remaining = None  # epoch rollback: start the epoch over
            yield self.env.timeout(cfg.elastic.restart_time(len(self._ranks)))
            # epoch NOT incremented: re-enter it (fully or from the tail).

        total = self.env.now - t_start
        return TrainingResult(
            policy_name=self.policy_name,
            n_nodes_start=n_start,
            n_nodes_end=len([n for n in self._ranks if self.cluster.nodes[n].alive]),
            completed=completed,
            total_time=total,
            epoch_times=self.timeline.epoch_durations(),
            restarts=restarts,
            timeline=self.timeline,
            metrics=self.metrics,
            abort_reason=abort_reason,
        )

    # -- per-rank epoch ------------------------------------------------------------------
    def _rank_epoch(self, node_id: int, shard: "np.ndarray", barrier: StepBarrier):
        """One rank's pass over its padded shard row (-1 entries are holes)."""
        cfg = self.config
        client = self.clients[node_id]
        node = self.cluster.nodes[node_id]
        compute = self.cluster.config.compute.step_compute_time
        if self.policy_name != "NoFT":
            compute = compute + cfg.ft_step_overhead
        steps = len(shard) // cfg.batch_size
        try:
            if cfg.pipelined_loader:
                return (yield from self._rank_epoch_pipelined(
                    client, node, shard, steps, compute, barrier
                ))
            for step in range(steps):
                if not node.alive:
                    # This node died: its rank silently stops contributing
                    # (survivors hang at the barrier until the controller
                    # rolls the epoch back).
                    return "node-dead"
                batch = shard[step * cfg.batch_size : (step + 1) * cfg.batch_size]
                batch = batch[batch >= 0]
                if batch.size:
                    try:
                        yield from client.read_files(self.dataset.files(batch))
                    except UnrecoverableNodeFailure as exc:
                        # NoFT: the cache layer has no recovery; surface the
                        # abort to the controller via the return value.
                        return JobAborted(str(exc), node_id=exc.node)
                    yield self.env.timeout(compute)
                else:
                    yield self.env.timeout(compute * 0.1)  # tail step, no data
                yield barrier.arrive()
            return "epoch-complete"
        except Interrupt as intr:
            return f"interrupted:{intr.cause}"

    def _rank_validation(self, node_id: int, shard: "np.ndarray", barrier: StepBarrier):
        """One rank's validation pass: forward-only batches + metric allreduce."""
        cfg = self.config
        client = self.clients[node_id]
        node = self.cluster.nodes[node_id]
        compute = self.cluster.config.compute.step_compute_time * cfg.validation_compute_fraction
        steps = len(shard) // cfg.batch_size
        try:
            for step in range(steps):
                if not node.alive:
                    return "node-dead"
                batch = shard[step * cfg.batch_size : (step + 1) * cfg.batch_size]
                batch = batch[batch >= 0]
                if batch.size:
                    try:
                        yield from client.read_files(self.dataset.files(batch))
                    except UnrecoverableNodeFailure as exc:
                        return JobAborted(str(exc), node_id=exc.node)
                    yield self.env.timeout(compute)
                else:
                    yield self.env.timeout(compute * 0.1)
                yield barrier.arrive()
            return "validation-complete"
        except Interrupt as intr:
            return f"interrupted:{intr.cause}"

    def _rank_epoch_pipelined(self, client, node, shard, steps, compute, barrier):
        """Rank loop with a one-batch prefetch pipeline.

        The loader fetches batch ``k+1`` while batch ``k`` computes, so a
        steady-state step costs ``max(io, compute)`` — the tf.data /
        DataLoader behaviour, used by the prefetch ablation.
        """
        cfg = self.config

        def _read(step):
            batch = shard[step * cfg.batch_size : (step + 1) * cfg.batch_size]
            batch = batch[batch >= 0]
            if batch.size:
                yield from client.read_files(self.dataset.files(batch))
            return None

        pending = self.env.process(_read(0), name=f"prefetch-{node.node_id}-0")
        for step in range(steps):
            if not node.alive:
                return "node-dead"
            try:
                yield pending  # data for this step (may already be done)
            except UnrecoverableNodeFailure as exc:
                return JobAborted(str(exc), node_id=exc.node)
            if step + 1 < steps:
                pending = self.env.process(
                    _read(step + 1), name=f"prefetch-{node.node_id}-{step + 1}"
                )
            yield self.env.timeout(compute)
            yield barrier.arrive()
        return "epoch-complete"
