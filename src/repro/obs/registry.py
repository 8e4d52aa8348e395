"""One counter primitive and the telemetry registry that exports it.

:class:`Counters` is every monotone counter store in the runtime — the
server's (``STAT_COUNTER_KEYS``) and the client's
(``CLIENT_COUNTER_KEYS``): a key tuple fixed at construction, one leaf
lock, ``bump`` and ``snapshot``.  A bump of a key outside the tuple
raises :class:`KeyError` at the bump site, so a counter cannot be
misspelled, invented at a call site or left out of a snapshot.

:class:`Telemetry` gives every exporter (OP_OBS, dashboards) one
snapshot of:

* **counter groups** — adopted :class:`Counters`, read at snapshot time,
  so the store that the runtime bumps stays the one source of truth;
* **gauges** — named callables sampled at snapshot time (claimed
  installs, cached bytes, ring epoch), never stored;
* **histograms** — named :class:`~repro.metrics.LatencyHistogram` s with a
  lock around ``record`` (the histogram itself is single-writer by
  design; server dispatch is not), giving the server per-op latency
  distributions.

Snapshots are JSON-safe dicts; a failing gauge reports an
``"error:..."`` string instead of taking the exporter down with it.
"""

from __future__ import annotations

from typing import Callable, Optional

from ..analysis import lockwitness
from ..metrics.histogram import LatencyHistogram

__all__ = ["Counters", "Telemetry"]


class Counters:
    """A fixed set of monotone counters behind one leaf lock.

    ``keys`` is fixed at construction and refused with :class:`ValueError`
    if it repeats a key.  Nothing else is acquired while the lock is held.
    """

    def __init__(self, keys: tuple):
        if len(set(keys)) != len(keys):
            raise ValueError(f"duplicate counter keys: {sorted({k for k in keys if keys.count(k) > 1})}")
        self._values = dict.fromkeys(keys, 0)
        self._lock = lockwitness.named_lock("counters")

    def bump(self, **deltas: int) -> None:
        """Add each delta to its counter, all under one lock acquisition;
        a key outside the tuple raises :class:`KeyError`."""
        with self._lock:
            values = self._values
            for key, delta in deltas.items():
                values[key] += delta

    def snapshot(self) -> dict:
        """Point-in-time copy of every counter, one lock acquisition."""
        with self._lock:
            return dict(self._values)


class Telemetry:
    """One component's counter groups + gauges + histograms registry."""

    def __init__(self, node=None):
        self.node = node
        self._lock = lockwitness.named_lock("obs-telemetry")
        self._groups: dict[str, Counters] = {}
        self._gauges: dict[str, Callable[[], float]] = {}
        self._histograms: dict[str, LatencyHistogram] = {}

    # -- counters ----------------------------------------------------------------
    def adopt_counters(self, group: str, counters: Counters) -> None:
        """Report ``counters`` under ``group``, read at snapshot time."""
        with self._lock:
            self._groups[group] = counters

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
            groups = dict(self._groups)
            gauges = dict(self._gauges)
            hists = {name: LatencyHistogram.merged([h]) for name, h in self._histograms.items()}
        gauge_out: dict = {}
        for name, fn in gauges.items():
            try:
                gauge_out[name] = fn()
            except Exception as exc:  # a broken gauge must not sink the exporter
                gauge_out[name] = f"error: {type(exc).__name__}: {exc}"
        return {
            "node": self.node,
            "counter_groups": {group: counters.snapshot() for group, counters in groups.items()},
            "gauges": gauge_out,
            "histograms": {name: h.to_dict() for name, h in hists.items() if h.count},
        }
