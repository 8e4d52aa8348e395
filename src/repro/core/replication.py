"""Replicated elastic recaching — the natural extension of the paper.

The published FT-Cache stores each file on exactly one node, so a failure
always costs one PFS refetch per lost file.  Replicating every cache entry
on ``k`` nodes removes even that cost for single-node failures: a
surviving replica serves the data immediately and redundancy is restored
in the background, off the training's critical path.  The trade-offs are
``k×`` NVMe capacity and ``k×`` population write traffic — both cheap on
Frontier-class nodes (3.5 TB NVMe vs ~1.3 GB/node of CosmoFlow data).

Replica placement uses *salted* ring lookups (replica ``r`` of a key is
placed by hashing the key with salt ``r``), which vectorises over whole
datasets.  With ``k`` independent placements the probability that a
single failure destroys every replica of some file is ``O(N^{1-k})``;
duplicate placement (two replicas landing on one node) occurs for ~``1/N``
of files per extra replica, slightly reducing effective redundancy — the
``distinct_replica_fraction`` helper quantifies it.

The ``repro.dl.fastsim`` fluid model accepts ``replication=k`` and the
``replication`` ablation experiment measures the end-to-end effect.
"""

from __future__ import annotations

import functools
from typing import Sequence

import numpy as np

from .hash_ring import HashRing
from .fault_policy import ElasticRecache
from .hashing import bulk_hash64, hash64, splitmix64
from .placement import Key, NodeId

__all__ = ["ReplicatedRecache", "salted_hashes", "salt_hash"]

_U64 = np.uint64


@functools.lru_cache(maxsize=None)
def _salt(replica: int) -> int:
    return hash64(f"replica-salt:{replica}")


def salt_hash(key_hash: int, replica: int) -> int:
    """Scalar salted re-hash: replica ``r``'s independent placement hash."""
    if replica == 0:
        return key_hash
    return int(splitmix64(np.array([key_hash ^ _salt(replica)], dtype=_U64))[0])


def salted_hashes(key_hashes: np.ndarray, replica: int) -> np.ndarray:
    """Vectorised salted re-hash of a ``uint64`` key-hash array."""
    if replica == 0:
        return key_hashes.astype(_U64, copy=False)
    return splitmix64(key_hashes.astype(_U64, copy=False) ^ _U64(_salt(replica)))


class ReplicatedRecache(ElasticRecache):
    """FT w/ NVMe plus ``k``-way cache replication.

    ``target_for`` still returns the primary owner (replica 0);
    :meth:`replica_targets` lists every replica's owner, and
    :meth:`surviving_replica` gives the first owner that is not failed —
    the node a client reads from when the primary just died and has not
    yet been declared/removed.
    """

    name = "FT w/ NVMe (replicated)"

    def __init__(self, placement: HashRing, replicas: int = 2):
        if replicas < 1:
            raise ValueError(f"replicas must be >= 1, got {replicas}")
        super().__init__(placement)
        self.replicas = int(replicas)
        # Snapshot of the healthy ring: a replica target that still matches
        # the pristine assignment *held the data before any failure*, so
        # readers should prefer it over a freshly re-homed (empty) target.
        import copy as _copy

        self._pristine = _copy.deepcopy(placement)

    def replica_targets(self, key: Key) -> list[NodeId]:
        """Owner of every replica (may contain duplicates, ~1/N chance)."""
        base = hash64(key, self.placement.algo)
        return [self.placement.lookup_hash(salt_hash(base, r)) for r in range(self.replicas)]

    def candidates_for(self, keys: Sequence[Key]) -> list[Sequence[NodeId]]:
        """Per key, its surviving replica owners, data-holders first.

        Targets whose assignment matches the pristine (pre-failure) ring
        certainly cached the entry during normal operation; re-homed
        targets are empty until the recache path fills them, so they come
        last — a reader failing over after a node death is served by a
        warm replica instead of triggering a PFS refetch.  The batch is
        hashed once, and each ring looks up every replica's salted hashes
        in one bulk call.
        """
        n = len(keys)
        hashes = bulk_hash64(keys, self.placement.algo)
        # replica r of key i sits at r * n + i
        salted = np.concatenate([salted_hashes(hashes, r) for r in range(self.replicas)])
        current = self.placement.lookup_hashes(salted).tolist()
        pristine = self._pristine.lookup_hashes(salted).tolist()
        out = []
        for i in range(n):
            warm: list[NodeId] = []
            cold: list[NodeId] = []
            for j in range(i, len(salted), n):
                node = current[j]
                if node in self._failed or node in warm or node in cold:
                    continue
                (warm if node == pristine[j] else cold).append(node)
            out.append(warm + cold or [current[i]])
        return out

    def surviving_replica(self, key: Key) -> NodeId:
        """First replica owner not known-failed (primary under no failures)."""
        for node in self.replica_targets(key):
            if node not in self._failed:
                return node
        # All replicas on failed nodes (or stale view): fall back to the
        # ring's current assignment — the recache path.
        return self.placement.lookup(key)

    def replica_owner_matrix(self, key_hashes: np.ndarray) -> np.ndarray:
        """``[replicas, n_keys]`` owner matrix, fully vectorised."""
        rows = [
            self.placement.lookup_hashes(salted_hashes(key_hashes, r))
            for r in range(self.replicas)
        ]
        return np.stack([row.astype(object) for row in rows])

    def distinct_replica_fraction(self, key_hashes: np.ndarray) -> float:
        """Fraction of keys whose replicas all landed on distinct nodes."""
        owners = self.replica_owner_matrix(key_hashes)
        distinct = np.ones(owners.shape[1], dtype=bool)
        for i in range(owners.shape[0]):
            for j in range(i + 1, owners.shape[0]):
                distinct &= owners[i] != owners[j]
        return float(distinct.mean())
