"""repro.obs — end-to-end observability for the threaded runtime.

Three pillars, one subsystem (see DESIGN.md "Observability contract"):

* **distributed request tracing** (:mod:`~repro.obs.context`,
  :mod:`~repro.obs.spans`) — a ``trace_id``/``span_id``/``parent_id``
  context injected into RPC headers by the client and propagated through
  every server-side path (cache hit, race fallthrough, PFS fallback,
  data-mover recache, join warmup transfers), with per-stage spans
  recorded into bounded per-process ring buffers;
* **one counter primitive and a telemetry registry**
  (:mod:`~repro.obs.registry`) — :class:`Counters`, the fixed-key store
  behind the server's and the client's counters, and :class:`Telemetry`,
  which adopts a ``Counters`` beside gauges and server-side per-op
  latency histograms, exported over ``OP_OBS``;
* a **structured event log** (:mod:`~repro.obs.events`) — JSONL lifecycle
  events (death declarations, recaches, join transitions, ring-epoch
  bumps, evictions, chaos injections) with wall *and* monotonic
  timestamps.

``python -m repro.obs`` merges per-node span dumps into cross-node trace
trees and prints the critical-path stage breakdown plus the slowest-N
exemplar traces (:mod:`~repro.obs.analysis`).
"""

from .analysis import TraceNode, build_traces, load_span_files, stage_breakdown
from .context import TraceContext, current_trace_id, extract, inject, new_span_id, new_trace_id
from .events import EventLog, get_event_log, reset_event_log
from .logsetup import configure_logging, node_logger
from .registry import Counters, Telemetry
from .spans import NULL_SPAN, Span, SpanBuffer, Tracer

__all__ = [
    "TraceContext",
    "new_trace_id",
    "new_span_id",
    "inject",
    "extract",
    "current_trace_id",
    "Span",
    "NULL_SPAN",
    "SpanBuffer",
    "Tracer",
    "Counters",
    "Telemetry",
    "EventLog",
    "get_event_log",
    "reset_event_log",
    "configure_logging",
    "node_logger",
    "TraceNode",
    "build_traces",
    "load_span_files",
    "stage_breakdown",
]
