"""Join state machine: PLANNED → WARMING → SERVING, with ABORTED rollback.

The coordinator owns exactly one join attempt and drives it through three
irreversible-only-forward phases:

``PLANNED``
    The :class:`~repro.rebalance.ringdiff.MovePlan` exists and has been
    announced to the joining node (``OP_JOIN_PLAN``), but no placement
    anywhere knows the node.  Every client still routes every key to its
    old owner.
``WARMING``
    Moved keys are backfilled into the joining node per source, in
    batches of :data:`WARM_BATCH` in plan order: one pipelined READ batch
    to the keys' *current* owner (a miss there falls through to the PFS
    server-side; a key it does not serve is read from the PFS directly),
    then one send of pipelined TRANSFERs, installed on the node's
    dispatch threads.  A source whose READ batch fails is not asked
    again: one TTL per join.  At or above the high watermark on a batch's
    largest reported install backlog the coordinator *pauses* (counted,
    observable) — warmup yields to the serving hot path.  The dispatch
    threads bound those installs below the default watermark, so the
    pause is a guard, not the rate limit.
``SERVING``
    The cutover callback flips membership + every client placement under
    a new ring epoch.  Only now can any lookup route to the node — and
    its cache already holds the moved keys, so first reads are warm.

Any failure before SERVING transitions to ``ABORTED`` and runs the
rollback callback.  Because the node never entered a placement before
cutover, rollback has nothing to unwind in routing state — abort is
always safe, which is the point of ordering the phases this way.

Locking: ``named_lock("rebalance-coord")`` guards only the state field;
it is never held across socket I/O, PFS reads, or throttle sleeps.
"""

from __future__ import annotations

import enum
import time
from typing import Callable, Optional

from ..analysis import lockwitness
from ..obs.events import get_event_log
from .ringdiff import MovePlan
from .stats import JoinReport

__all__ = ["JoinCoordinator", "JoinState", "JoinAborted"]

#: claimed-install backlog (fraction of ``queue_depth``) above which warmup pauses
DEFAULT_THROTTLE_FRACTION = 0.75

#: keys per warmup batch, both its READ batch and its TRANSFER send: the
#: server's ``_PIPELINE_DEPTH``, so a node decodes a whole batch unpaused
WARM_BATCH = 64


class JoinState(enum.Enum):
    PLANNED = "PLANNED"
    WARMING = "WARMING"
    SERVING = "SERVING"
    ABORTED = "ABORTED"


#: legal forward transitions; anything else is a coordinator bug
_TRANSITIONS = {
    JoinState.PLANNED: {JoinState.WARMING, JoinState.ABORTED},
    JoinState.WARMING: {JoinState.SERVING, JoinState.ABORTED},
    JoinState.SERVING: set(),
    JoinState.ABORTED: set(),
}


class JoinAborted(RuntimeError):
    """The join was rolled back before cutover; placement is unchanged."""


class JoinCoordinator:
    """Drives one node join through plan → warm → cutover.

    Parameters
    ----------
    plan:
        The moved-key plan from :class:`~repro.rebalance.ringdiff.RingDiff`.
    control:
        An :class:`~repro.runtime.client.FTCacheClient` whose address book
        knows the joining node and every source owner.  Only explicit-node
        RPCs are used (``read_from``/``transfer``/``join_plan``, one
        ``trace_op`` per batch); the
        client's placement policy is never consulted, so the joining node
        being absent from it is exactly right.
    pfs:
        Direct PFS access for the last-resort read path.
    cutover:
        Zero-argument callback that atomically admits the node into
        membership + placements; returns the new ring epoch.  Runs only
        after every planned key was offered to the joining node.
    rollback:
        Optional callback run on abort (e.g. shut the spawned server
        down).  Routing state needs no rollback by construction.
    queue_depth:
        The install backlog the watermark is a fraction of.
    """

    def __init__(
        self,
        plan: MovePlan,
        control,
        pfs,
        cutover: Callable[[], int],
        rollback: Optional[Callable[[], None]] = None,
        queue_depth: int = 64,
        throttle_fraction: float = DEFAULT_THROTTLE_FRACTION,
        throttle_sleep: float = 0.005,
        max_throttle_pauses: int = 10_000,
    ):
        if queue_depth < 1:
            raise ValueError(f"queue_depth must be >= 1, got {queue_depth}")
        if not 0.0 < throttle_fraction <= 1.0:
            raise ValueError(f"throttle_fraction must be in (0, 1], got {throttle_fraction}")
        self.plan = plan
        self.control = control
        self.pfs = pfs
        self._cutover = cutover
        self._rollback = rollback
        self.queue_depth = queue_depth
        self._watermark = max(1, int(queue_depth * throttle_fraction))
        self._throttle_sleep = throttle_sleep
        self._max_throttle_pauses = max_throttle_pauses
        self._state = JoinState.PLANNED
        self._state_lock = lockwitness.named_lock("rebalance-coord")
        self.report = JoinReport(node=plan.node, plan=plan, planned_epoch=plan.planned_epoch)

    @property
    def state(self) -> JoinState:
        with self._state_lock:
            return self._state

    def _transition(self, new: JoinState) -> None:
        with self._state_lock:
            if new not in _TRANSITIONS[self._state]:
                raise RuntimeError(f"illegal join transition {self._state.name} → {new.name}")
            old, self._state = self._state, new
        self.report.state = new.value
        get_event_log().emit(
            "join_state", node=self.plan.node, from_state=old.value, to_state=new.value
        )

    # -- phases -----------------------------------------------------------------
    def run(self) -> JoinReport:
        """Execute the whole join; raises :class:`JoinAborted` on failure."""
        try:
            self._announce()
            self._transition(JoinState.WARMING)
            t0 = time.perf_counter()
            self._warm()
            self.report.warmup_seconds = time.perf_counter() - t0
            self.report.cutover_epoch = self._cutover()
            self._transition(JoinState.SERVING)
        except JoinAborted:
            raise
        except Exception as exc:
            self._abort(f"{type(exc).__name__}: {exc}")
            raise JoinAborted(self.report.abort_reason) from exc
        return self.report

    def _announce(self) -> None:
        """Tell the joining node what is coming (plan visibility + liveness
        check: an unreachable candidate aborts before any data moves)."""
        ok = self.control.join_plan(
            self.plan.node,
            planned_keys=self.plan.moved_keys,
            planned_bytes=self.plan.moved_bytes,
            epoch=self.plan.planned_epoch,
        )
        if not ok:
            self._abort("joining node did not acknowledge the move plan")
            raise JoinAborted(self.report.abort_reason)

    def _warm(self) -> None:
        by_source: dict = {}
        for path, source in self.plan.moves:
            by_source.setdefault(source, []).append(path)
        for source, paths in by_source.items():
            reachable = True
            for lo in range(0, len(paths), WARM_BATCH):
                batch = paths[lo:lo + WARM_BATCH]
                # One trace per batch: the READ and the TRANSFER batch, and their
                # stages on the source and the joining node, stitch into one trace.
                with self.control.trace_op("join.warm_batch", source=source, keys=len(batch)):
                    outcomes = self.control.read_from(source, batch) if reachable else None
                    if reachable and outcomes is None:
                        reachable = False  # asked once: one TTL per failed source
                        self.report.source_failures += 1
                    items = self._gather(batch, outcomes or [None] * len(batch))
                    replies = self.control.transfer(self.plan.node, items) if items else []
                if replies is None:
                    raise RuntimeError(f"joining node unreachable during warmup (batch from {source!r})")
                for (_, data), resp in zip(items, replies):
                    if resp is None or not resp["accepted"]:
                        self.report.transfers_rejected += 1
                        continue
                    self.report.warmed_keys += 1
                    self.report.warmed_bytes += len(data)
                self._throttle(max((int(r["queue_len"]) for r in replies if r is not None), default=0))

    def _gather(self, paths: list, outcomes: list) -> list[tuple[str, bytes]]:
        """One batch's ``(path, bytes)``: the owner's where it served the
        key, else the PFS's, key by key; a key gone from the PFS too
        (deleted between plan and warmup) is skipped."""
        items = []
        for path, outcome in zip(paths, outcomes):
            if outcome is not None:
                data, src = outcome
                if src == "pfs":
                    self.report.source_pfs_reads += 1
                else:
                    self.report.source_cache_reads += 1
            else:
                try:
                    data = self.pfs.read(path)
                except FileNotFoundError:
                    self.report.extras["missing_keys"] = self.report.extras.get("missing_keys", 0) + 1
                    continue
                self.report.pfs_fallback_reads += 1
            items.append((path, data))
        return items

    def _throttle(self, queue_len: int) -> None:
        """Pause while the joining node's install backlog is above watermark."""
        pauses = 0
        while queue_len >= self._watermark and pauses < self._max_throttle_pauses:
            time.sleep(self._throttle_sleep)
            pauses += 1
            self.report.throttle_pauses += 1
            stat = self.control.server_stat(self.plan.node)
            if stat is None:
                break  # liveness handled by the next transfer attempt
            queue_len = int(stat.get("mover_queue_len", 0))

    def _abort(self, reason: str) -> None:
        self.report.abort_reason = reason
        self._transition(JoinState.ABORTED)
        if self._rollback is not None:
            self._rollback()
