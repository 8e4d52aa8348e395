"""Fluid (analytic) training model for full-scale sweeps.

The discrete-event simulation in :mod:`repro.dl.training` resolves every
RPC and every bandwidth share; at the paper's full scale (1024 nodes ×
524,288 samples × 5 epochs) that is tens of millions of events — hours of
Python.  This module implements the standard macro-scale companion: a
**fluid-flow model** that advances time one *training step* at a time and
computes each rank's I/O duration from closed-form fair-share and queueing
expressions over exactly the same calibrated hardware constants
(:mod:`repro.cluster.config`) and exactly the same placement, sampler,
cache-state, failure, detection, and elastic-rollback logic.

The two models are cross-validated: ``tests/dl/test_fastsim.py`` asserts
that at small scale the fluid model agrees with the DES on epoch times and
policy orderings.  The benchmark harness uses the fluid model for the
Fig 5 / Fig 6(a) sweeps at full scale and the DES for micro-scale runs.

Per-step cost model (mirrors the DES component for component):

* local reads — NVMe op latency + bytes at the device's read bandwidth;
* remote reads — RPC overhead + wire latency + bytes at the server's
  serve rate (min of NIC and NVMe read bandwidth) divided fairly among the
  streams hitting that server this step (this reproduces post-failure
  incast on recache targets);
* PFS reads — access latency + per-file metadata service including MDS
  admission queueing, + bytes at ``min(per_stream, aggregate/streams)``,
  multiplied by a heavy-tailed (lognormal) service-noise factor.  The
  *max* over ranks of these noisy PFS times is what makes the straggler
  effect intensify with node count (Sec V-B.1's key observation);
* step time — ``max over ranks of I/O`` + compute + allreduce, matching
  the per-batch synchronisation barrier.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..cluster.config import ClusterConfig
from ..core.fault_policy import make_policy
from ..core.hash_ring import HashRing
from ..core.hashing import bulk_hash64
from ..core.static_hash import StaticHash
from ..metrics import Timeline
from ..sim.rng import RngRegistry
from .dataset import Dataset, combine_datasets
from .sampler import DistributedSampler
from .training import TrainingConfig

__all__ = ["FluidTrainingModel", "FluidResult"]


@dataclass
class FluidResult:
    """Fluid-model analogue of :class:`repro.dl.training.TrainingResult`."""

    policy_name: str
    n_nodes_start: int
    n_nodes_end: int
    completed: bool
    total_time: float
    epoch_times: dict[int, float]
    restarts: int
    timeline: Timeline
    #: total bytes read from the PFS over the whole run
    pfs_bytes: float = 0.0
    #: total PFS file-read operations
    pfs_files: int = 0
    #: simulation time spent pre-staging the cache (warmup option)
    warmup_time: float = 0.0
    abort_reason: str = ""

    @property
    def failures(self) -> int:
        return len(self.timeline.failures)


class FluidTrainingModel:
    """Step-resolution training-run model; see module docstring."""

    def __init__(
        self,
        cluster_config: ClusterConfig,
        dataset: Dataset,
        policy_name: str = "FT w/ NVMe",
        config: TrainingConfig = TrainingConfig(),
        n_failures: int = 0,
        failure_spread: float = 0.9,
        seed: int = 0,
        replication: int = 1,
        val_dataset: Optional[Dataset] = None,
        record_steps: bool = False,
    ):
        self.cc = cluster_config
        self.train_samples = dataset.n_samples
        if val_dataset is not None:
            dataset = combine_datasets(dataset, val_dataset)
        self.val_samples = dataset.n_samples - self.train_samples
        self.dataset = dataset
        self.policy_name = policy_name
        self.config = config
        self.n_failures = int(n_failures)
        self.failure_spread = failure_spread
        if replication < 1:
            raise ValueError(f"replication must be >= 1, got {replication}")
        if replication > 1 and policy_name not in ("FT w/ NVMe", "nvme"):
            raise ValueError("cache replication requires the ring-based FT w/ NVMe policy")
        self.replication = int(replication)
        self.rng = RngRegistry(seed)
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

        n = cluster_config.n_nodes
        if policy_name in ("FT w/ NVMe", "nvme"):
            placement = HashRing(nodes=range(n), vnodes_per_node=config.vnodes_per_node)
        else:
            placement = StaticHash(nodes=range(n))
        self.policy = make_policy(policy_name, placement)

        # Per-file state.
        self._file_hashes = bulk_hash64(np.arange(dataset.n_samples))
        self._sizes = dataset.sizes_array()
        self._cached = np.zeros(dataset.n_samples, dtype=bool)
        self._owners = self._lookup_owners()
        if config.preload:
            self._cached[:] = True

        self._alive = list(range(n))
        #: failed nodes whose TTL detection penalty has not been charged yet
        self._undeclared: list[int] = []
        #: simulation time at which pre-staging finished (warmup option)
        self.warmup_time = 0.0
        #: per-step records (epoch, duration, straggler_ratio) when enabled;
        #: straggler_ratio = slowest rank's I/O over the median rank's —
        #: the amplification the paper's Sec V-B.1 analysis is about
        self.record_steps = bool(record_steps)
        self.step_records: list[tuple[int, float, float]] = []
        self._current_epoch_for_record = 0
        self.timeline = Timeline()
        self.pfs_bytes = 0.0
        self.pfs_files = 0

    # -- helpers ------------------------------------------------------------------
    def _lookup_owners(self) -> np.ndarray:
        owners = self.policy.placement.lookup_hashes(self._file_hashes)
        return owners.astype(np.int64)

    def _allreduce_time(self, n_ranks: int) -> float:
        cc = self.cc.compute
        return cc.allreduce_base + cc.allreduce_per_log2_node * math.log2(max(2, n_ranks))

    def _pfs_time(self, m_files: np.ndarray, b_bytes: np.ndarray, total_streams: int, noise: np.ndarray) -> np.ndarray:
        """Per-rank PFS read time for ``m_files`` files totalling ``b_bytes``."""
        pc = self.cc.pfs
        if total_streams <= 0:
            return np.zeros_like(b_bytes)
        # MDS admission: beyond `metadata_concurrency` concurrent openers the
        # queue adds ~service × (excess / concurrency) of average wait.
        excess = max(0.0, (total_streams - pc.metadata_concurrency) / pc.metadata_concurrency)
        per_meta = pc.metadata_service_time * (1.0 + 0.5 * excess)
        rate = min(pc.per_stream_bw, pc.aggregate_bw / total_streams)
        # Noise hits the latency-bound stages only; the bandwidth share is
        # deterministic fluid (matching the DES model in repro.cluster.pfs).
        latency = pc.access_latency + m_files * (per_meta + pc.random_read_latency)
        return latency * noise + b_bytes / rate

    # -- main loop -----------------------------------------------------------------
    def _draw_failure_plan(self, rng: np.random.Generator) -> list[tuple[int, float]]:
        """(epoch, position) pairs: epoch uniform in [1, epochs-1], position
        uniform in the epoch — "randomly injected after the completion of
        the first epoch … timing and node selection were randomized"."""
        if self.n_failures <= 0:
            return []
        if self.config.epochs < 2:
            raise ValueError("failure injection needs at least 2 epochs")
        epochs = rng.integers(1, self.config.epochs, size=self.n_failures)
        fracs = rng.uniform(0.0, 0.95, size=self.n_failures)
        return sorted(zip(epochs.tolist(), fracs.tolist()))

    def run(self) -> FluidResult:
        cfg = self.config
        noise_rng = self.rng.stream("pfs.noise")
        fail_rng = self.rng.stream("injector")
        plan = self._draw_failure_plan(fail_rng)
        plan_idx = 0

        now = 0.0
        epoch = 0
        restarts = 0
        completed = True
        abort_reason = ""
        n_start = len(self._alive)

        compute = self.cc.compute.step_compute_time
        if self.policy_name != "NoFT":
            compute = compute + cfg.ft_step_overhead

        if cfg.warmup and not self._cached.all():
            # Pre-staging: all servers pull their shards concurrently at
            # full pipeline depth — aggregate-bandwidth-bound plus the
            # per-server metadata stream (servers fetch in parallel, files
            # within a server sequentially).
            pc = self.cc.pfs
            n_srv = max(1, len(self._alive))
            files_per_srv = self.dataset.n_samples / n_srv
            meta = files_per_srv * (pc.metadata_service_time + pc.random_read_latency)
            now += pc.access_latency + meta + self.dataset.total_bytes / pc.aggregate_bw
            self._cached[:] = True
            self.pfs_bytes += self.dataset.total_bytes
            self.pfs_files += self.dataset.n_samples
            self.warmup_time = now

        while epoch < cfg.epochs:
            if not self._alive:
                completed = False
                abort_reason = "all nodes failed"
                break
            rec = self.timeline.begin_epoch(epoch, now, len(self._alive))
            self._current_epoch_for_record = epoch
            n_epoch_samples = self.train_samples
            remaining = self.sampler.epoch_permutation(epoch)
            consumed = 0  # samples of this epoch already committed
            aborted = False
            done = False

            while not done:
                n_ranks = len(self._alive)
                allreduce = self._allreduce_time(n_ranks)

                # Declare any not-yet-detected failures: the first step of
                # this attempt pays the TTL×threshold declaration cost (all
                # clients block through it concurrently), then the shared
                # placement updates.
                detect_penalty = 0.0
                while self._undeclared:
                    node = self._undeclared.pop()
                    detect_penalty += cfg.ttl * cfg.timeout_threshold
                    self._declare(node)
                    if cfg.proactive_recache and self.policy_name in ("FT w/ NVMe", "nvme"):
                        # Push-based recovery: the new owners bulk-fetch
                        # the lost files off the critical path; training
                        # sees them as cached (the prefetch races demand at
                        # aggregate bandwidth, which at per-failure volumes
                        # of dataset/N completes within the first steps).
                        lost = ~self._cached
                        n_lost = int(lost.sum())
                        if n_lost:
                            self._cached[:] = True
                            self.pfs_bytes += float(self._sizes[lost].sum())
                            self.pfs_files += n_lost

                samples_m = DistributedSampler.shard_matrix(remaining, n_ranks, cfg.batch_size)
                owners_m = np.where(samples_m >= 0, self._owners[np.clip(samples_m, 0, None)], -1)
                node_of_rank = np.asarray(self._alive, dtype=np.int64)
                steps = samples_m.shape[1] // cfg.batch_size

                # Next planned failure inside this epoch, as a threshold on
                # samples consumed (position × epoch size).
                next_pos: Optional[int] = None
                if plan_idx < len(plan) and plan[plan_idx][0] == epoch:
                    next_pos = int(plan[plan_idx][1] * n_epoch_samples)

                failed_mid: Optional[int] = None
                completed_steps = 0
                for step in range(steps):
                    lo = step * cfg.batch_size
                    sub = samples_m[:, lo : lo + cfg.batch_size]
                    own = owners_m[:, lo : lo + cfg.batch_size]
                    n_step = int((sub >= 0).sum())
                    if n_step == 0:
                        break
                    now += self._step_time(sub, own, node_of_rank, compute, allreduce, noise_rng)
                    now += detect_penalty
                    detect_penalty = 0.0
                    consumed += n_step
                    completed_steps = step + 1
                    if next_pos is not None and consumed >= next_pos:
                        failed_mid = self._inject_failure(now, epoch, fail_rng)
                        plan_idx += 1
                        next_pos = (
                            int(plan[plan_idx][1] * n_epoch_samples)
                            if plan_idx < len(plan) and plan[plan_idx][0] == epoch
                            else None
                        )
                        if failed_mid is not None:
                            break

                if failed_mid is None:
                    done = True  # epoch attempt ran to completion
                    continue

                if self.policy_name == "NoFT":
                    completed = False
                    aborted = True
                    abort_reason = f"node {failed_mid} failed under NoFT"
                    break

                # Horovod elastic: detection + fixed restart; with "step"
                # recovery the committed progress survives (the survivors
                # re-shard the unconsumed remainder), with "epoch" recovery
                # the whole epoch restarts from zero.
                now += cfg.elastic.detect_time + cfg.elastic.restart_time(len(self._alive))
                rec.restarts += 1
                restarts += 1
                if cfg.recovery == "epoch":
                    rec.end = now
                    rec = self.timeline.begin_epoch(epoch, now, len(self._alive))
                    remaining = self.sampler.epoch_permutation(epoch)
                    consumed = 0
                else:
                    left = samples_m[:, completed_steps * cfg.batch_size :]
                    remaining = left[left >= 0]

            if self.val_samples and not aborted:
                # Per-epoch validation: forward-only batches over the
                # held-out split, same barrier structure and cache path.
                n_ranks = len(self._alive)
                val_ids = np.arange(self.train_samples, self.dataset.n_samples)
                val_m = DistributedSampler.shard_matrix(val_ids, n_ranks, cfg.batch_size)
                val_own = np.where(val_m >= 0, self._owners[np.clip(val_m, 0, None)], -1)
                node_of_rank = np.asarray(self._alive, dtype=np.int64)
                val_compute = (
                    self.cc.compute.step_compute_time * cfg.validation_compute_fraction
                )
                allreduce = self._allreduce_time(n_ranks)
                for step in range(val_m.shape[1] // cfg.batch_size):
                    lo = step * cfg.batch_size
                    sub = val_m[:, lo : lo + cfg.batch_size]
                    if int((sub >= 0).sum()) == 0:
                        break
                    own = val_own[:, lo : lo + cfg.batch_size]
                    now += self._step_time(sub, own, node_of_rank, val_compute, allreduce, noise_rng)

            rec.end = now
            if aborted:
                break
            epoch += 1

        return FluidResult(
            policy_name=self.policy_name,
            n_nodes_start=n_start,
            n_nodes_end=len(self._alive),
            completed=completed,
            total_time=now,
            epoch_times=self.timeline.epoch_durations(),
            restarts=restarts,
            timeline=self.timeline,
            pfs_bytes=self.pfs_bytes,
            pfs_files=self.pfs_files,
            warmup_time=self.warmup_time,
            abort_reason=abort_reason,
        )

    # -- epoch machinery --------------------------------------------------------------
    def _step_time(
        self,
        sub: np.ndarray,
        own: np.ndarray,
        node_of_rank: np.ndarray,
        compute: float,
        allreduce: float,
        noise_rng: np.random.Generator,
    ) -> float:
        """One synchronised training step: max-rank I/O + compute + allreduce."""
        cc = self.cc
        n_ranks = sub.shape[0]
        valid = sub >= 0
        sizes = self._sizes[np.clip(sub, 0, None)] * valid

        failed_set = np.asarray(sorted(self.policy.failed_nodes), dtype=np.int64)
        pfs_direct = valid & np.isin(own, failed_set) if failed_set.size else np.zeros_like(valid)
        local = valid & (own == node_of_rank[:, None]) & ~pfs_direct
        remote = valid & ~local & ~pfs_direct

        cached = np.zeros_like(valid)
        cached[valid] = self._cached[sub[valid]]
        # Misses go through the owner server to the PFS (cold epoch or
        # post-failure recache); they then become cached.
        miss = valid & ~cached & ~pfs_direct
        if miss.any():
            fids = sub[miss]
            self._cached[fids] = True

        # --- local path ------------------------------------------------------
        hit_local = local & ~miss
        local_bytes = (sizes * hit_local).sum(axis=1)
        t_local = np.where(
            local_bytes > 0, cc.nvme.per_op_latency + local_bytes / cc.nvme.read_bw, 0.0
        )

        # --- remote path (cache hits on other nodes) ---------------------------
        hit_remote = remote & ~miss
        t_remote = np.zeros(n_ranks)
        if hit_remote.any():
            r_idx = np.broadcast_to(np.arange(n_ranks)[:, None], own.shape)[hit_remote]
            srv = own[hit_remote]
            nbytes = sizes[hit_remote]
            pair = r_idx * (srv.max() + 1) + srv
            uniq_pair, inv = np.unique(pair, return_inverse=True)
            pair_bytes = np.bincount(inv, weights=nbytes)
            pair_rank = uniq_pair // (srv.max() + 1)
            pair_srv = uniq_pair % (srv.max() + 1)
            streams_per_srv = np.bincount(pair_srv, minlength=int(pair_srv.max()) + 1)
            serve_rate = min(cc.network.link_bw, cc.nvme.read_bw)
            pair_t = (
                cc.network.rpc_overhead
                + cc.network.base_latency
                + pair_bytes * streams_per_srv[pair_srv] / serve_rate
            )
            np.maximum.at(t_remote, pair_rank.astype(np.intp), pair_t)

        # --- PFS path (direct redirect + server misses) ---------------------------
        # Redirected reads are client-side chunked (latency-amplified);
        # cache-miss fetches are one sequential server-side read each.
        m_direct = pfs_direct.sum(axis=1).astype(np.float64)
        m_miss = miss.sum(axis=1).astype(np.float64)
        b_bytes = (sizes * (pfs_direct | miss)).sum(axis=1)
        total_streams = int(((m_direct + m_miss) > 0).sum())
        t_pfs = np.zeros(n_ranks)
        if total_streams > 0:
            sigma = self.cc.pfs.service_noise_sigma
            if sigma > 0:
                noise = noise_rng.lognormal(mean=0.0, sigma=sigma, size=n_ranks)
            else:
                noise = np.ones(n_ranks)
            amp = self.cc.pfs.redirect_read_amplification
            eff_files = m_direct * amp + m_miss
            t_pfs = self._pfs_time(eff_files, b_bytes, total_streams, noise)
            t_pfs = np.where(b_bytes > 0, t_pfs, 0.0)
            self.pfs_bytes += float(b_bytes.sum())
            self.pfs_files += int((m_direct + m_miss).sum())
            # Misses are served via the remote/local channel too; the PFS
            # stage dominates, and the serve stage is already covered by the
            # RPC/NVMe terms for cached traffic, so we take the max below.

        io = np.maximum(np.maximum(t_local, t_remote), t_pfs)
        if self.record_steps:
            med = float(np.median(io))
            ratio = float(io.max()) / med if med > 0 else 1.0
            step_total = (
                max(float(io.max()), compute) + allreduce
                if self.config.pipelined_loader
                else float(io.max()) + compute + allreduce
            )
            self.step_records.append((self._current_epoch_for_record, step_total, ratio))
        if self.config.pipelined_loader:
            # Prefetch pipeline: reads overlap the previous batch's compute,
            # so the barrier waits for max(io, compute), not their sum.
            return max(float(io.max()), compute) + allreduce
        return float(io.max()) + compute + allreduce

    def straggler_summary(self) -> dict:
        """Distribution of the per-step straggler ratio (needs record_steps).

        Returns mean/p50/p99 of ``max_rank_io / median_rank_io`` — >1 means
        batches wait on their slowest reader, the effect that makes PFS
        redirection expensive at scale (Sec V-B.1).
        """
        if not self.step_records:
            raise ValueError("no step records: construct with record_steps=True and run()")
        ratios = np.array([r for _, _, r in self.step_records])
        return {
            "steps": int(ratios.size),
            "mean": float(ratios.mean()),
            "p50": float(np.percentile(ratios, 50)),
            "p99": float(np.percentile(ratios, 99)),
            "max": float(ratios.max()),
        }

    # -- failure machinery --------------------------------------------------------------
    def _inject_failure(self, now: float, epoch: int, rng: np.random.Generator) -> Optional[int]:
        if len(self._alive) <= 1:
            return None
        victim = int(self._alive[int(rng.integers(0, len(self._alive)))])
        self._alive.remove(victim)
        self.timeline.note_failure(now, victim, epoch)
        # Cache contents on the dead NVMe are gone instantly.  With k-way
        # replication a file is only *lost* when every replica sat on the
        # victim (salted placements make that ~N^{1-k}-rare); a surviving
        # replica keeps serving and redundancy is restored off the
        # critical path.
        if self.replication > 1:
            from ..core.replication import salted_hashes

            lost = np.ones(self.dataset.n_samples, dtype=bool)
            for r in range(self.replication):
                owners_r = self.policy.placement.lookup_hashes(
                    salted_hashes(self._file_hashes, r)
                ).astype(np.int64)
                lost &= owners_r == victim
            self._cached[lost] = False
        else:
            self._cached[self._owners == victim] = False
        # Clients have not *detected* it yet: the TTL penalty and the
        # placement update happen at first touch after the rollback.
        self._undeclared.append(victim)
        return victim

    def _declare(self, node: int) -> None:
        """Apply the fault policy once detection completes."""
        try:
            self.policy.on_node_failed(node)
        except Exception:
            raise
        self._owners = self._lookup_owners()
