"""Structured JSONL event log for runtime lifecycle events.

Counters say *how often*; the event log says *when and in what order* —
the difference between "3 nodes were declared dead" and "node 2 was
declared dead 40 ms after the chaos kill and readmitted 1.8 s later".
Every record carries **both** clocks:

``t_wall``
    ``time.time()`` — correlates events across processes and with
    external logs;
``t_mono``
    ``time.monotonic()`` — orders events within this process immune to
    NTP steps.

Events live in a bounded drop-oldest ring (same policy as
:class:`~repro.obs.spans.SpanBuffer`; loss is counted, never silent) and,
when a sink path is configured, are appended to a JSONL file — one
``json.dumps`` line per event, written *outside* the ring lock with
``O_APPEND`` so concurrent emitters interleave whole lines, not bytes.

The process-global default log (:func:`get_event_log`) exists because
emitters are deep in the stack (the ring epoch counter, the join state
machine) where threading a handle through every constructor would be pure noise;
components that want isolation (tests, multi-cluster processes) construct
their own :class:`EventLog` and pass it down.
"""

from __future__ import annotations

import json
import os
import threading
import time
from pathlib import Path
from typing import Optional

from ..analysis import lockwitness

__all__ = ["EventLog", "get_event_log", "reset_event_log"]

DEFAULT_CAPACITY = 4096

#: lifecycle event kinds the runtime emits (documentation, not an enum —
#: new subsystems add kinds freely; the analysis side treats them as data).
#: Nothing per key: installs and evictions are counters (``recached``,
#: ``mover_enqueued``, ``evictions``) and ``mover.nvme_write`` spans, so a
#: miss storm cannot push a death declaration out of the ring.
KNOWN_KINDS = (
    "death_declared",
    "node_admitted",
    "node_killed",
    "node_restarted",
    "join_state",
    "ring_epoch",
    "chaos",
)


class EventLog:
    """Bounded in-memory event ring with an optional JSONL file sink."""

    def __init__(self, capacity: int = DEFAULT_CAPACITY, path: Optional[str | Path] = None,
                 node=None):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.node = node
        self._lock = lockwitness.named_lock("obs-events")
        self._ring: list[dict] = []
        self._head = 0
        self.events_emitted = 0
        self.events_dropped = 0
        self._fd: Optional[int] = None
        self.path: Optional[Path] = None
        if path is not None:
            self.open_sink(path)

    # -- sink lifecycle ----------------------------------------------------------
    def open_sink(self, path: str | Path) -> None:
        """Start appending every event to ``path`` as JSONL."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
        with self._lock:
            old, self._fd, self.path = self._fd, fd, path
        if old is not None:
            os.close(old)

    def close_sink(self) -> None:
        with self._lock:
            fd, self._fd, self.path = self._fd, None, None
        if fd is not None:
            os.close(fd)

    # -- emission ----------------------------------------------------------------
    def emit(self, kind: str, **fields) -> dict:
        """Record one event; returns the record (for tests/chaining)."""
        record = {
            "kind": kind,
            "t_wall": time.time(),
            "t_mono": time.monotonic(),
            **({"node": self.node} if self.node is not None else {}),
            **fields,
        }
        with self._lock:
            if len(self._ring) < self.capacity:
                self._ring.append(record)
            else:
                self._ring[self._head] = record
                self._head = (self._head + 1) % self.capacity
                self.events_dropped += 1
            self.events_emitted += 1
            fd = self._fd
        if fd is not None:
            # One whole line per write() on an O_APPEND fd: concurrent
            # emitters interleave records, never bytes.  Outside the lock
            # so a slow disk cannot convoy emitters.
            try:
                os.write(fd, (json.dumps(record, default=str) + "\n").encode("utf-8"))
            except OSError:
                pass  # a full/odd disk must not take the runtime down
        return record

    # -- queries -----------------------------------------------------------------
    def snapshot(self, kind: Optional[str] = None, limit: Optional[int] = None) -> list[dict]:
        """Oldest-first copy of retained events, optionally filtered by kind."""
        with self._lock:
            ordered = self._ring[self._head:] + self._ring[: self._head]
        if kind is not None:
            ordered = [e for e in ordered if e.get("kind") == kind]
        if limit is not None and limit >= 0:
            ordered = ordered[-limit:]
        return list(ordered)

    def counters(self) -> dict:
        with self._lock:
            return {
                "events_emitted": self.events_emitted,
                "events_dropped": self.events_dropped,
                "events_retained": len(self._ring),
            }

    def __len__(self) -> int:
        with self._lock:
            return len(self._ring)


_default_lock = threading.Lock()  # module bootstrap only; never nested
_default: Optional[EventLog] = None


def get_event_log() -> EventLog:
    """The process-global event log (created lazily, in-memory only)."""
    global _default
    if _default is not None:
        return _default
    # Construct outside the lock (the ctor *can* open a file sink); the
    # lock only arbitrates which candidate wins the race.
    candidate = EventLog()
    with _default_lock:
        if _default is None:
            _default = candidate
        return _default


def reset_event_log(capacity: int = DEFAULT_CAPACITY, path: Optional[str | Path] = None) -> EventLog:
    """Replace the global log (tests; runs that want a file sink)."""
    global _default
    fresh = EventLog(capacity=capacity, path=path)
    with _default_lock:
        old, _default = _default, fresh
    if old is not None:
        old.close_sink()
    return fresh
