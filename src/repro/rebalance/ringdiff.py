"""Join planning: diff the ring against its post-join self, before joining.

A node addition on a consistent-hashing ring moves exactly the keys whose
primary owner becomes the new node — nothing else (minimal movement, the
ring's core promise).  :class:`RingDiff` turns that promise into an
explicit, auditable artifact: it snapshots the live ring, computes owners
with and without the candidate (via the non-mutating
:meth:`~repro.core.hash_ring.HashRing.lookup_hashes_including` view, so
the live ring is never touched), and emits a :class:`MovePlan` listing
every moved key with its current owner, per-source key/byte counts, and
the predicted vs theoretical ``weight / total_weight`` moved fraction.

The plan is what makes the join *bounded*: the coordinator warms exactly
``plan.moves`` — no scanning, no guessing — and the bench report can
assert the measured fraction against ``theoretical_fraction``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Hashable, Mapping, Optional, Sequence

from ..core.hash_ring import HashRing
from ..core.hashing import bulk_hash64

__all__ = ["RingDiff", "MovePlan"]

NodeId = Hashable


@dataclass(frozen=True)
class MovePlan:
    """Exact moved-key plan for one candidate join."""

    node: NodeId
    weight: float
    #: (path, current owner) for every key whose primary owner changes
    moves: tuple[tuple[str, NodeId], ...]
    total_keys: int
    total_bytes: int
    keys_by_source: dict = field(default_factory=dict)
    bytes_by_source: dict = field(default_factory=dict)
    #: fraction of the examined keyspace the plan actually moves
    predicted_fraction: float = 0.0
    #: weight / total_weight — what consistent hashing promises
    theoretical_fraction: float = 0.0
    #: ring epoch the plan was computed against (staleness check at cutover)
    planned_epoch: int = 0

    @property
    def moved_keys(self) -> int:
        return len(self.moves)

    @property
    def moved_bytes(self) -> int:
        return sum(self.bytes_by_source.values())

    def to_dict(self) -> dict:
        """JSON-ready summary of the plan."""
        return {
            "node": self.node,
            "weight": self.weight,
            "moved_keys": self.moved_keys,
            "moved_bytes": self.moved_bytes,
            "total_keys": self.total_keys,
            "total_bytes": self.total_bytes,
            "keys_by_source": {str(k): v for k, v in self.keys_by_source.items()},
            "bytes_by_source": {str(k): v for k, v in self.bytes_by_source.items()},
            "predicted_fraction": self.predicted_fraction,
            "theoretical_fraction": self.theoretical_fraction,
            "planned_epoch": self.planned_epoch,
        }


class RingDiff:
    """Computes :class:`MovePlan`\\ s against a frozen ring snapshot."""

    def __init__(self, ring: HashRing):
        #: private clone — planning must see a stable ring even if the
        #: live one keeps mutating under traffic
        self.ring = ring.clone()

    def plan_join(
        self,
        node: NodeId,
        keys: Sequence[str],
        weight: Optional[float] = None,
        sizes: Optional[Mapping[str, int]] = None,
        planned_epoch: int = 0,
    ) -> MovePlan:
        """Moved-key plan for admitting ``node`` at ``weight``.

        ``keys`` is the key population to plan over (for the local
        cluster: every dataset path).  ``sizes`` maps key → bytes; when
        omitted, byte counts are zero and the plan is key-count only.
        """
        if node in self.ring.nodes:
            raise ValueError(f"node {node!r} already on the ring")
        w = float(weight) if weight is not None else self.ring.weight_of(node)
        keys = list(keys)
        if not keys:
            total_w = sum(self.ring.weight_of(n) for n in self.ring.nodes) + w
            return MovePlan(
                node=node, weight=w, moves=(), total_keys=0, total_bytes=0,
                theoretical_fraction=w / total_w, planned_epoch=planned_epoch,
            )
        hashes = bulk_hash64(keys, self.ring.algo)
        before = self.ring.lookup_hashes(hashes)
        after = self.ring.lookup_hashes_including(hashes, node, weight=weight)
        moved_idx = (before != after).nonzero()[0]
        moves = []
        keys_by_source: dict = {}
        bytes_by_source: dict = {}
        for i in moved_idx:
            path, source = keys[int(i)], before[int(i)]
            moves.append((path, source))
            keys_by_source[source] = keys_by_source.get(source, 0) + 1
            if sizes is not None:
                bytes_by_source[source] = bytes_by_source.get(source, 0) + int(
                    sizes.get(path, 0)
                )
        total_w = sum(self.ring.weight_of(n) for n in self.ring.nodes) + w
        total_bytes = sum(int(sizes.get(p, 0)) for p in keys) if sizes is not None else 0
        return MovePlan(
            node=node,
            weight=w,
            moves=tuple(moves),
            total_keys=len(keys),
            total_bytes=total_bytes,
            keys_by_source=keys_by_source,
            bytes_by_source=bytes_by_source,
            predicted_fraction=len(moves) / len(keys),
            theoretical_fraction=w / total_w,
            planned_epoch=planned_epoch,
        )
