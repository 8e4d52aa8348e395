"""Consistent hashing ring with virtual nodes — the paper's core mechanism.

Both nodes and keys hash onto a logical circle of 64-bit positions; a key is
owned by the first node position at or clockwise-after the key's position
(Sec IV-B, Fig 4).  Each physical node is represented by ``vnodes_per_node``
*virtual nodes* so that, when a node fails, its keys scatter across many
survivors instead of landing entirely on one clockwise neighbour — this is
precisely the load-balancing effect measured in the paper's Figure 6(b).

Two guarantees make the ring the right recaching structure (versus the
original HVAC's hash-mod-N):

* **Minimal movement on failure** — removing a node re-homes *only* the keys
  that node owned; every other key keeps its owner (property-tested in
  ``tests/core/test_hash_ring.py``).
* **Minimal movement on join** — an added node steals keys only for itself.

Implementation: positions live in a sorted ``uint64`` NumPy array with a
parallel owner-index array, so bulk lookups over hundreds of thousands of
keys vectorise to a single ``searchsorted`` call (O(log V) per key); a
scalar lookup bisects list copies of the two arrays, made on the first
one after a rebuild.  Membership changes rebuild the arrays from the
per-node vnode cache in O(V log V) — for 1024 nodes × 100 vnodes that is
~10⁵ elements, a few milliseconds, and far cheaper than the data movement
it decides.  An ordered-map variant matching the paper's ``std::map``
implementation lives in :mod:`repro.core.avl` for the ablation study.

Two refinements serve elastic scale-out (:mod:`repro.rebalance`):

* **Capacity weights** — a node with weight ``w`` carries ``round(w ×
  vnodes_per_node)`` virtual nodes, so a join can bring a bigger (or
  smaller) NVMe and receive a proportional share of the keyspace.
  :meth:`add_node` accepts the weight at join time.
* **Multiprobe lookup** (``probes > 1``) — each key derives ``probes``
  candidate ring positions (SplitMix64 remixes of its hash) and is owned
  by the probe whose clockwise successor is *nearest*.  This smooths the
  arc-length variance that makes one node a hotspot at low vnode counts,
  without growing the ring (the classic multi-probe consistent hashing
  trade: O(probes) lookups for O(1) memory).
"""

from __future__ import annotations

import bisect
from typing import Iterable, Optional

import numpy as np

from .hashing import hash64, splitmix64
from .placement import Key, NodeId, PlacementPolicy

__all__ = ["HashRing", "EmptyRingError", "DEFAULT_VNODES"]

#: Paper's production setting: "The virtual node count is set to 100 per
#: physical node" (Sec V-A).
DEFAULT_VNODES = 100


class EmptyRingError(LookupError):
    """Lookup attempted on a ring with no nodes."""


def _vnode_token(node: NodeId, replica: int) -> str:
    return f"{node}#vn{replica}"


class HashRing(PlacementPolicy):
    """Consistent-hashing ring with virtual nodes.

    Parameters
    ----------
    nodes:
        Initial members (any hashable ids; the cluster uses ints, the
        runtime uses ``host:port`` strings).
    vnodes_per_node:
        Virtual nodes per physical node.  More vnodes → more receivers
        share a failed node's load, at the cost of a larger ring
        (Fig 6b trade-off).  Defaults to the paper's 100.
    algo:
        Hash algorithm for both vnode positions and keys.

    Examples
    --------
    >>> ring = HashRing(nodes=range(4), vnodes_per_node=100)
    >>> owner = ring.lookup("/data/train/sample_000042.tfrecord")
    >>> ring.remove_node(owner)          # node failure
    >>> ring.lookup("/data/train/sample_000042.tfrecord") in ring.nodes
    True
    """

    def __init__(
        self,
        nodes: Iterable[NodeId] = (),
        vnodes_per_node: int = DEFAULT_VNODES,
        algo: str = "blake2b",
        weights: Optional[dict] = None,
        probes: int = 1,
    ):
        if vnodes_per_node < 1:
            raise ValueError(f"vnodes_per_node must be >= 1, got {vnodes_per_node}")
        if probes < 1:
            raise ValueError(f"probes must be >= 1, got {probes}")
        self.vnodes_per_node = int(vnodes_per_node)
        self.algo = algo
        #: multiprobe lookup width; 1 = classic consistent hashing, k > 1
        #: hashes each key k ways and takes the probe with the smallest
        #: clockwise gap to its successor vnode (hotspot smoothing)
        self.probes = int(probes)
        self._probe_salts = np.fromiter(
            (hash64(f"probe-salt:{j}", algo) for j in range(1, self.probes)),
            dtype=np.uint64,
            count=self.probes - 1,
        )
        #: per-node capacity weight; a node with weight w gets
        #: ``round(w × vnodes_per_node)`` virtual nodes (min 1), so its
        #: share of the keyspace scales with its capacity — heterogeneous
        #: NVMe sizes are first-class
        self._weights: dict[NodeId, float] = dict(weights) if weights else {}
        for node, w in self._weights.items():
            if w <= 0:
                raise ValueError(f"weight for node {node!r} must be positive, got {w}")
        self._members: dict[NodeId, np.ndarray] = {}
        self._vnode_cache: dict[NodeId, np.ndarray] = {}
        self._positions = np.empty(0, dtype=np.uint64)
        self._owners = np.empty(0, dtype=object)
        #: ``(positions, owners)`` as lists for scalar lookups (``bisect``)
        self._scalar: Optional[tuple[list, list]] = None
        self._dirty = False
        for n in nodes:
            self._admit(n)
        self._rebuild()

    # -- membership -----------------------------------------------------------
    @property
    def nodes(self) -> tuple[NodeId, ...]:
        return tuple(self._members)

    def vnodes_of(self, node: NodeId) -> int:
        """Virtual-node count for ``node`` (weight-scaled, at least 1)."""
        weight = self._weights.get(node, 1.0)
        return max(1, int(round(weight * self.vnodes_per_node)))

    def weight_of(self, node: NodeId) -> float:
        return self._weights.get(node, 1.0)

    def _vnode_hashes(self, node: NodeId) -> np.ndarray:
        count = self.vnodes_of(node)
        cached = self._vnode_cache.get(node)
        if cached is None or len(cached) != count:
            cached = np.fromiter(
                (hash64(_vnode_token(node, r), self.algo) for r in range(count)),
                dtype=np.uint64,
                count=count,
            )
            self._vnode_cache[node] = cached
        return cached

    def _admit(self, node: NodeId) -> None:
        if node in self._members:
            raise ValueError(f"node {node!r} already on the ring")
        self._members[node] = self._vnode_hashes(node)
        self._dirty = True

    def add_node(self, node: NodeId, weight: Optional[float] = None) -> None:
        """Admit ``node``, optionally with a capacity ``weight`` (default 1.0).

        Passing a weight at join time is what lets an elastic scale-out
        bring heterogeneous hardware: the new node's share of the keyspace
        is ``weight / total_weight`` rather than ``1/N``.
        """
        if weight is not None:
            if weight <= 0:
                raise ValueError(f"weight for node {node!r} must be positive, got {weight}")
            self._weights[node] = float(weight)
        self._admit(node)
        self._rebuild()

    def remove_node(self, node: NodeId) -> None:
        if node not in self._members:
            raise KeyError(f"node {node!r} not on the ring")
        del self._members[node]
        self._dirty = True
        self._rebuild()

    def _rebuild(self) -> None:
        if not self._dirty:
            return
        self._dirty = False
        self._scalar = None
        if not self._members:
            self._positions = np.empty(0, dtype=np.uint64)
            self._owners = np.empty(0, dtype=object)
            return
        nodes = list(self._members)
        pos = np.concatenate([self._members[n] for n in nodes])
        counts = [len(self._members[n]) for n in nodes]
        own_idx = np.repeat(np.arange(len(nodes)), counts)
        # Deterministic ordering under (vanishingly rare) position collisions:
        # sort by (position, owner index).
        order = np.lexsort((own_idx, pos))
        self._positions = pos[order]
        owners = np.empty(len(pos), dtype=object)
        for i, n in enumerate(nodes):
            owners[own_idx == i] = n
        self._owners = owners[order]

    # -- lookups -----------------------------------------------------------------
    def _probe_hashes(self, key_hashes: np.ndarray) -> np.ndarray:
        """Shape (probes, n) candidate positions; row 0 is the raw hash."""
        h = key_hashes.astype(np.uint64, copy=False)
        if self.probes == 1:
            return h[np.newaxis, :]
        rows = [h]
        for salt in self._probe_salts:
            rows.append(splitmix64(h ^ salt))
        return np.stack(rows)

    def _probe_owners(
        self, positions: np.ndarray, owners: np.ndarray, key_hashes: np.ndarray
    ) -> np.ndarray:
        """Multiprobe owner selection against an arbitrary (positions, owners)
        view — shared by the live ring, the exclusion view, and the
        candidate-join view so all three agree bit-for-bit."""
        ph = self._probe_hashes(key_hashes)  # (probes, n)
        idx = np.searchsorted(positions, ph, side="right")
        idx[idx == len(positions)] = 0
        if self.probes == 1:
            return owners[idx[0]]
        # Clockwise gap from each probe to its successor vnode; uint64
        # modular subtraction wraps correctly past the top of the ring.
        with np.errstate(over="ignore"):
            gaps = positions[idx] - ph
        best = np.argmin(gaps, axis=0)
        return owners[idx[best, np.arange(ph.shape[1])]]

    def lookup_hash(self, key_hash: int) -> NodeId:
        if len(self._positions) == 0:
            raise EmptyRingError("hash ring has no nodes")
        if self.probes == 1:
            if self._scalar is None:
                self._scalar = (self._positions.tolist(), self._owners.tolist())
            positions, owners = self._scalar
            idx = bisect.bisect_right(positions, key_hash)
            return owners[idx if idx < len(positions) else 0]  # wrap past the top of the ring
        return self._probe_owners(
            self._positions, self._owners, np.array([key_hash], dtype=np.uint64)
        )[0]

    def lookup_hashes(self, key_hashes: np.ndarray) -> np.ndarray:
        if len(self._positions) == 0:
            raise EmptyRingError("hash ring has no nodes")
        return self._probe_owners(self._positions, self._owners, key_hashes)

    def lookup_hashes_excluding(self, key_hashes: np.ndarray, exclude: NodeId) -> np.ndarray:
        """Owners as if ``exclude`` had been removed — without mutating the ring.

        Equivalent to ``deepcopy → remove_node → lookup_hashes`` but O(V)
        masking plus one ``searchsorted``; this is what makes the 500-trial
        load-redistribution sweep (Fig 6b) tractable at 1024 nodes ×
        1000 vnodes.
        """
        if exclude not in self._members:
            raise KeyError(f"node {exclude!r} not on the ring")
        if len(self._members) <= 1:
            raise EmptyRingError("removing the only node leaves an empty ring")
        keep = self._owners != exclude
        return self._probe_owners(self._positions[keep], self._owners[keep], key_hashes)

    def lookup_hashes_including(
        self, key_hashes: np.ndarray, node: NodeId, weight: Optional[float] = None
    ) -> np.ndarray:
        """Owners as if ``node`` had been added — without mutating the ring.

        This is the planning half of an elastic join (``repro.rebalance``):
        the coordinator diffs these owners against :meth:`lookup_hashes` to
        find exactly the keys the candidate would steal, *before* touching
        any live placement.  Mirrors :meth:`_rebuild`'s concatenate +
        ``lexsort((owner, position))`` ordering so the answer is
        bit-for-bit what :meth:`add_node` would later produce.
        """
        if node in self._members:
            raise ValueError(f"node {node!r} already on the ring")
        if weight is not None and weight <= 0:
            raise ValueError(f"weight for node {node!r} must be positive, got {weight}")
        w = float(weight) if weight is not None else self._weights.get(node, 1.0)
        count = max(1, int(round(w * self.vnodes_per_node)))
        cand = np.fromiter(
            (hash64(_vnode_token(node, r), self.algo) for r in range(count)),
            dtype=np.uint64,
            count=count,
        )
        nodes = list(self._members) + [node]
        pos = np.concatenate([self._members[n] for n in self._members] + [cand])
        counts = [len(self._members[n]) for n in self._members] + [count]
        own_idx = np.repeat(np.arange(len(nodes)), counts)
        order = np.lexsort((own_idx, pos))
        owners = np.empty(len(pos), dtype=object)
        for i, n in enumerate(nodes):
            owners[own_idx == i] = n
        return self._probe_owners(pos[order], owners[order], key_hashes)

    def successors(self, key: Key, k: Optional[int] = None) -> list[NodeId]:
        """First ``k`` *distinct* nodes clockwise from ``key``'s position.

        ``k=1`` is the owner; larger ``k`` gives the preference list used by
        the replicated-caching extension (``repro.hvac.server`` replicas).
        """
        if len(self._positions) == 0:
            raise EmptyRingError("hash ring has no nodes")
        if k is None:
            k = 1
        if k < 1:
            raise ValueError("k must be >= 1")
        k = min(k, len(self._members))
        h = hash64(key, self.algo)
        start = int(np.searchsorted(self._positions, np.uint64(h), side="right"))
        out: list[NodeId] = []
        seen: set[NodeId] = set()
        n = len(self._positions)
        for step in range(n):
            owner = self._owners[(start + step) % n]
            if owner not in seen:
                seen.add(owner)
                out.append(owner)
                if len(out) == k:
                    break
        return out

    # -- introspection / analysis --------------------------------------------------
    @property
    def ring_size(self) -> int:
        """Total number of virtual-node positions on the ring."""
        return len(self._positions)

    def vnode_positions(self, node: NodeId) -> np.ndarray:
        """Sorted ring positions of ``node``'s virtual nodes."""
        if node not in self._members:
            raise KeyError(f"node {node!r} not on the ring")
        return np.sort(self._members[node])

    def positions_unit(self) -> np.ndarray:
        """All vnode positions mapped to [0, 1) (Fig 4 presentation)."""
        return self._positions.astype(np.float64) / 2.0**64

    def arc_fractions(self) -> dict[NodeId, float]:
        """Fraction of the ring's keyspace each node owns.

        With many vnodes these concentrate around ``1 / len(nodes)``; the
        spread quantifies expected load imbalance for uniform keys.
        """
        if len(self._positions) == 0:
            return {}
        pos = self._positions.astype(np.float64)
        # Arc ending at position i is owned by owner[i]; arcs are the gaps
        # between consecutive positions, wrapping at the top.
        gaps = np.empty_like(pos)
        gaps[1:] = pos[1:] - pos[:-1]
        gaps[0] = pos[0] + (2.0**64 - pos[-1])
        fractions: dict[NodeId, float] = {n: 0.0 for n in self._members}
        for owner, gap in zip(self._owners, gaps):
            fractions[owner] += gap
        total = 2.0**64
        return {n: g / total for n, g in fractions.items()}

    def memory_footprint(self) -> int:
        """Approximate bytes held by the ring arrays (vnode-count trade-off)."""
        return int(self._positions.nbytes + self._owners.nbytes) + sum(
            a.nbytes for a in self._members.values()
        )

    def clone(self) -> "HashRing":
        """Independent copy with identical membership, weights and probes.

        Join planning snapshots the ring this way so the plan is computed
        against frozen state while the live ring keeps serving lookups.
        """
        return HashRing(
            nodes=list(self._members),
            vnodes_per_node=self.vnodes_per_node,
            algo=self.algo,
            weights={n: self._weights[n] for n in self._weights if n in self._members},
            probes=self.probes,
        )

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"HashRing(nodes={len(self._members)}, vnodes_per_node={self.vnodes_per_node}, "
            f"algo={self.algo!r}, probes={self.probes})"
        )
