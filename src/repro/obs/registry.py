"""Unified telemetry registry: counters + gauges + histograms, one API.

The runtime already has two battle-tested counter registries
(``STAT_COUNTER_KEYS`` on the server, ``CLIENT_COUNTER_KEYS`` on the
client) whose integrity is enforced by the CNT001 lint.  :class:`Telemetry`
does not replace them — it *adopts* them: a counter group is a callable
returning a point-in-time dict, so the existing lock-protected stores stay
the single source of truth and every exporter (OP_OBS, bench JSON,
dashboards) reads one merged snapshot instead of knowing three layouts.

What the registry adds on top:

* **gauges** — named callables sampled at snapshot time (claimed
  installs, cached bytes, ring epoch), never stored;
* **histograms** — named :class:`~repro.metrics.LatencyHistogram` s with a
  lock around ``record`` (the histogram itself is single-writer by
  design; server dispatch is not), giving the server per-op latency
  distributions it never had — until now only the client timed anything;
* **own counters** — ``inc()`` for obs-internal accounting, reported
  under the same namespace.

Snapshots are JSON-safe dicts; a failing gauge or counter group reports
an ``"error:..."`` string instead of taking the exporter down with it.
"""

from __future__ import annotations

from typing import Callable, Optional

from ..analysis import lockwitness
from ..metrics import LatencyHistogram

__all__ = ["Telemetry"]


class Telemetry:
    """One component's unified counters + gauges + histograms registry."""

    def __init__(self, node=None):
        self.node = node
        self._lock = lockwitness.named_lock("obs-telemetry")
        self._counters: dict[str, int] = {}
        self._groups: dict[str, Callable[[], dict]] = {}
        self._gauges: dict[str, Callable[[], float]] = {}
        self._histograms: dict[str, LatencyHistogram] = {}

    # -- counters ----------------------------------------------------------------
    def inc(self, name: str, amount: int = 1) -> None:
        """Bump an obs-owned counter (monotone)."""
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + amount

    def adopt_counters(self, group: str, fn: Callable[[], dict]) -> None:
        """Register an existing counter store (e.g. ``ServerStats.counters``).

        ``fn`` is called at snapshot time and must return a flat dict; the
        group name prefixes nothing — the registries already guarantee
        unique keys — it only labels the snapshot section.
        """
        with self._lock:
            self._groups[group] = fn

    # -- gauges ------------------------------------------------------------------
    def gauge(self, name: str, fn: Callable[[], float]) -> None:
        with self._lock:
            self._gauges[name] = fn

    # -- histograms --------------------------------------------------------------
    def observe(self, name: str, seconds: float) -> None:
        """Record one latency observation into the named histogram."""
        with self._lock:
            hist = self._histograms.get(name)
            if hist is None:
                hist = self._histograms[name] = LatencyHistogram()
            hist.record(seconds)

    def histogram(self, name: str) -> Optional[LatencyHistogram]:
        """A merged *copy* of the named histogram (None if never observed)."""
        with self._lock:
            hist = self._histograms.get(name)
            return LatencyHistogram.merged([hist]) if hist is not None else None

    # -- export ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """JSON-safe point-in-time view of everything registered."""
        with self._lock:
            own = dict(self._counters)
            groups = dict(self._groups)
            gauges = dict(self._gauges)
            hists = {name: LatencyHistogram.merged([h]) for name, h in self._histograms.items()}
        counters: dict = dict(own)
        group_out: dict = {}
        for group, fn in groups.items():
            try:
                group_out[group] = dict(fn())
            except Exception as exc:  # a broken provider must not sink the exporter
                group_out[group] = {"error": f"{type(exc).__name__}: {exc}"}
        gauge_out: dict = {}
        for name, fn in gauges.items():
            try:
                gauge_out[name] = fn()
            except Exception as exc:
                gauge_out[name] = f"error: {type(exc).__name__}: {exc}"
        return {
            "node": self.node,
            "counters": counters,
            "counter_groups": group_out,
            "gauges": gauge_out,
            "histograms": {name: h.to_dict() for name, h in hists.items() if h.count},
        }
