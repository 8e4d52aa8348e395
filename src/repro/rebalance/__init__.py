"""Elastic scale-out: planned, bounded, zero-client-error node joins.

The paper's hash-ring fault tolerance handles node *loss*; this package
adds the symmetric operation — node *addition under load* — as a planned
three-phase protocol rather than a restart:

1. **Plan** (:class:`~repro.rebalance.ringdiff.RingDiff`) — snapshot the
   live ring, compute exactly which keys the candidate would steal
   (primary-owner changes only; minimal movement is the ring's promise
   and the plan proves it per-join), with per-source-node key/byte counts
   and the predicted vs theoretical ``weight / total_weight`` fraction.
2. **Warm** (:class:`~repro.rebalance.coordinator.JoinCoordinator`) —
   backfill the planned keys into the joining node *before* it owns
   anything, reading from current owners (falling back to the PFS) and
   installing through the node's own miss install path, bounded by its
   dispatch threads, so a join can never stampede the PFS or the hot path.
3. **Cutover** — flip the node into ``MembershipView`` and every client's
   placement under a new ring epoch; in-flight reads still route to old
   owners, which keep serving the moved keys from their caches, so the
   transition is zero-client-error by construction.

A failed warmup rolls back (``ABORTED``): the candidate never entered any
placement, so rollback is discarding it.
"""

from .coordinator import JoinAborted, JoinCoordinator, JoinState
from .epoch import RingEpoch
from .ringdiff import MovePlan, RingDiff
from .stats import JoinReport

__all__ = [
    "RingDiff",
    "MovePlan",
    "RingEpoch",
    "JoinCoordinator",
    "JoinState",
    "JoinAborted",
    "JoinReport",
]
