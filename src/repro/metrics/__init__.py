"""Metrics: counters, run timelines, and summary statistics.

Names resolve on first use: ``repro.metrics.histogram`` (pure Python) is
importable without the numpy-backed modules beside it.
"""

from .._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    ".collector": ("MetricsCollector",),
    ".histogram": ("LatencyHistogram",),
    ".stats": ("Summary", "percent_change", "speedup", "summarize"),
    ".timeline": ("EpochRecord", "FailureRecord", "Timeline"),
    ".run_report": ("render_run_report",),
    ".trace": ("Span", "TraceAnalysis", "Tracer"),
})

__all__ = [
    "MetricsCollector",
    "LatencyHistogram",
    "Summary",
    "percent_change",
    "speedup",
    "summarize",
    "EpochRecord",
    "FailureRecord",
    "Timeline",
    "render_run_report",
    "Span",
    "TraceAnalysis",
    "Tracer",
]
