"""Join observability: the report a completed (or aborted) join leaves.

One :class:`JoinReport` per join attempt, combining the plan summary, the
warmup's measured traffic (where each key's bytes actually came from, how
often the mover's bounded queue pushed back), and the cutover epochs.
``to_dict()`` is the BENCH ``rebalance`` block (schema v3).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .ringdiff import MovePlan

__all__ = ["JoinReport"]


@dataclass
class JoinReport:
    """Everything one join attempt did, for bench JSON and assertions."""

    node: object
    state: str = "PLANNED"
    plan: Optional[MovePlan] = None
    #: keys successfully pushed into the joining node's mover
    warmed_keys: int = 0
    warmed_bytes: int = 0
    #: where the warmup bytes came from (owner cache vs owner-side PFS
    #: fallthrough vs coordinator's direct PFS fallback)
    source_cache_reads: int = 0
    source_pfs_reads: int = 0
    pfs_fallback_reads: int = 0
    #: transfers the joining node refused — should be 0
    transfers_rejected: int = 0
    #: times the coordinator paused because the install backlog was at its
    #: high watermark (the "bounded" in bounded rebalancing, observable)
    throttle_pauses: int = 0
    warmup_seconds: float = 0.0
    planned_epoch: int = 0
    cutover_epoch: int = 0
    abort_reason: str = ""
    extras: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        out = {
            "node": self.node,
            "state": self.state,
            "warmed_keys": self.warmed_keys,
            "warmed_bytes": self.warmed_bytes,
            "source_cache_reads": self.source_cache_reads,
            "source_pfs_reads": self.source_pfs_reads,
            "pfs_fallback_reads": self.pfs_fallback_reads,
            "transfers_rejected": self.transfers_rejected,
            "throttle_pauses": self.throttle_pauses,
            "warmup_seconds": self.warmup_seconds,
            "planned_epoch": self.planned_epoch,
            "cutover_epoch": self.cutover_epoch,
        }
        if self.plan is not None:
            out["plan"] = self.plan.to_dict()
        if self.abort_reason:
            out["abort_reason"] = self.abort_reason
        out.update(self.extras)
        return out
