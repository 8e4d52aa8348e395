"""Spans: bounded per-process ring buffer + the tracer that fills it.

A :class:`Span` times one stage of one request (client RPC, server NVMe
read, NVMe write...).  Spans are cheap on purpose: two clock reads,
one dict append into a :class:`SpanBuffer` — a fixed-capacity ring whose
overflow *drops the oldest* span and counts it (``spans_dropped``), so a
span storm can never eat unbounded memory and loss is always visible.

Sampling happens once per trace at :meth:`Tracer.start_trace`: an
unsampled trace returns :data:`NULL_SPAN`, whose child spans are also
null, so the entire request — including every downstream process that
sees no trace header — costs nothing.  This is head-based sampling, the
only kind that keeps cross-process traces complete.

Span-balance invariants (tested property-style in ``tests/obs``):

* every started span is closed exactly once (``end()`` is idempotent;
  only the first call records);
* ``started == closed`` once no spans are in flight;
* every recorded span's ``parent_id`` names another recorded span of the
  same trace, or is None (a root).
"""

from __future__ import annotations

import random
import time
from typing import Optional, Union

from ..analysis import lockwitness
from .context import TraceContext, set_current_trace_id

__all__ = ["Span", "NullSpan", "NULL_SPAN", "SpanBuffer", "Tracer"]

#: default ring capacity: enough for several seconds of traced traffic
DEFAULT_CAPACITY = 4096


class SpanBuffer:
    """Thread-safe bounded ring of finished-span dicts (drop-oldest)."""

    def __init__(self, capacity: int = DEFAULT_CAPACITY):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._lock = lockwitness.named_lock("obs-spans")
        self._ring: list[dict] = []
        self._head = 0  # index of the oldest entry once the ring is full
        self.spans_recorded = 0
        self.spans_dropped = 0

    def add(self, record: dict) -> None:
        with self._lock:
            if len(self._ring) < self.capacity:
                self._ring.append(record)
            else:
                self._ring[self._head] = record
                self._head = (self._head + 1) % self.capacity
                self.spans_dropped += 1
            self.spans_recorded += 1

    def snapshot(self, limit: Optional[int] = None) -> list[dict]:
        """Oldest-first copy of the retained spans (most recent ``limit``)."""
        with self._lock:
            ordered = self._ring[self._head:] + self._ring[: self._head]
        if limit is not None and limit >= 0:
            ordered = ordered[-limit:]
        return list(ordered)

    def drain(self) -> list[dict]:
        """Snapshot and clear (drop accounting is preserved)."""
        with self._lock:
            ordered = self._ring[self._head:] + self._ring[: self._head]
            self._ring = []
            self._head = 0
        return ordered

    def counters(self) -> dict:
        with self._lock:
            return {
                "spans_recorded": self.spans_recorded,
                "spans_dropped": self.spans_dropped,
                "spans_retained": len(self._ring),
            }

    def __len__(self) -> int:
        with self._lock:
            return len(self._ring)


class Span:
    """One in-flight stage; records itself into the buffer on :meth:`end`."""

    __slots__ = ("_tracer", "ctx", "name", "node", "attrs", "status",
                 "_t_wall", "_t_mono", "_ended", "_cv_token")

    def __init__(
        self, tracer: "Tracer", ctx: TraceContext, name: str, node, attrs: dict, t_mono: float
    ):
        self._tracer = tracer
        self.ctx = ctx
        self.name = name
        self.node = node
        self.attrs = attrs
        self.status = "ok"
        self._t_wall = time.time()
        self._t_mono = t_mono
        self._ended = False
        self._cv_token = set_current_trace_id(ctx.trace_id)

    def set(self, **attrs) -> "Span":
        self.attrs.update(attrs)
        return self

    def end(self, status: Optional[str] = None) -> None:
        """Close the span (idempotent: only the first call records)."""
        if self._ended:
            return
        self._ended = True
        if status is not None:
            self.status = status
        if self._cv_token is not None:
            try:
                self._cv_token.var.reset(self._cv_token)
            except ValueError:  # ended on a different thread/context: leave it
                pass
            self._cv_token = None
        self._tracer._record(
            {
                "trace_id": self.ctx.trace_id,
                "span_id": self.ctx.span_id,
                "parent_id": self.ctx.parent_id,
                "name": self.name,
                "node": self.node,
                "t_wall": self._t_wall,
                "t_mono": self._t_mono,
                # read last, as the start clock is read first: a span owns
                # its own bookkeeping, so tracing overhead lands in the stage
                # that incurred it, not as unexplained time in the parent
                "duration_s": time.perf_counter() - self._t_mono,
                "status": self.status,
                **({"attrs": self.attrs} if self.attrs else {}),
            }
        )

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, exc_type, *exc) -> None:
        self.end(status="error" if exc_type is not None else None)


class NullSpan:
    """The unsampled/disabled span: every operation is a no-op.

    ``ctx is None`` is the documented way callers decide whether to
    inject trace headers.
    """

    __slots__ = ()
    ctx = None
    name = None
    node = None
    status = "ok"

    def set(self, **attrs) -> "NullSpan":
        return self

    def end(self, status: Optional[str] = None) -> None:
        pass

    def __enter__(self) -> "NullSpan":
        return self

    def __exit__(self, *exc) -> None:
        pass


NULL_SPAN = NullSpan()

SpanLike = Union[Span, NullSpan]
ParentLike = Union[Span, NullSpan, TraceContext, None]


class Tracer:
    """Span factory for one process-side component (client, one server).

    ``sample_rate`` applies to :meth:`start_trace` only — child spans
    inherit their parent's sampling fate, and :meth:`start_span` with a
    remote :class:`TraceContext` always records (the upstream already
    paid the sampling coin toss).
    """

    def __init__(
        self,
        node=None,
        buffer: Optional[SpanBuffer] = None,
        sample_rate: float = 1.0,
        seed: int = 0,
        enabled: bool = True,
    ):
        if not 0.0 <= sample_rate <= 1.0:
            raise ValueError(f"sample_rate must be in [0, 1], got {sample_rate}")
        self.node = node
        self.buffer = buffer if buffer is not None else SpanBuffer()
        self.sample_rate = sample_rate
        self.enabled = enabled
        self._rng = random.Random(seed)
        self._lock = lockwitness.named_lock("obs-tracer")
        self.started = 0
        self.closed = 0

    # -- span creation -----------------------------------------------------------
    def start_trace(self, name: str, **attrs) -> SpanLike:
        """Root span of a new trace; the one place sampling is decided."""
        if not self.enabled or self.sample_rate <= 0.0:
            return NULL_SPAN
        if self.sample_rate < 1.0:
            with self._lock:
                sampled = self._rng.random() < self.sample_rate
            if not sampled:
                return NULL_SPAN
        return self._start(TraceContext.root(), name, attrs, time.perf_counter())

    def start_span(self, name: str, parent: ParentLike, **attrs) -> SpanLike:
        """Child span under a local span or a remote (extracted) context."""
        if not self.enabled or parent is None:
            return NULL_SPAN
        t_mono = time.perf_counter()  # the clock starts before the span's own set-up
        if isinstance(parent, (Span, NullSpan)):
            if parent.ctx is None:
                return NULL_SPAN  # unsampled trace: stay dark end-to-end
            ctx = parent.ctx.child()
        else:
            ctx = parent.child()
        return self._start(ctx, name, attrs, t_mono)

    def _start(self, ctx: TraceContext, name: str, attrs: dict, t_mono: float) -> Span:
        with self._lock:
            self.started += 1
        return Span(self, ctx, name, self.node, dict(attrs), t_mono)

    def _record(self, record: dict) -> None:
        with self._lock:
            self.closed += 1
        self.buffer.add(record)

    # -- introspection ------------------------------------------------------------
    @property
    def in_flight(self) -> int:
        with self._lock:
            return self.started - self.closed

    def counters(self) -> dict:
        with self._lock:
            started, closed = self.started, self.closed
        return {"spans_started": started, "spans_closed": closed, **self.buffer.counters()}
