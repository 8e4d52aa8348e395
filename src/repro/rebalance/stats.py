"""Join observability: the report a completed (or aborted) join leaves.

One :class:`JoinReport` per join attempt, combining the plan summary, the
warmup's measured traffic (where each key's bytes actually came from, how
often the install backlog throttled it), and the cutover epochs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .ringdiff import MovePlan

__all__ = ["JoinReport"]


@dataclass
class JoinReport:
    """Everything one join attempt did, for the bench and assertions."""

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
    #: sources whose READ batch failed: asked once, their other keys read from the PFS
    source_failures: int = 0
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

