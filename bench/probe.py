"""CPU-speed probe: what the box's Python speed was while a number was taken.

On a shared 2-vCPU sandbox the speed of the same Python loop wanders by a
tenth and more from one ten-second stretch to the next (``bench/README.md``,
"Box speed"), which is as much as the regressions the benchmark has to
resolve.  So a probe thread times a fixed pure-Python loop ten times a second
for the whole run, in thread CPU time (waiting for the GIL is not counted),
and every duration the benchmark reports is scaled to the speed at which the
loop takes ``REFERENCE_PROBE_US``.  The probe knows nothing of the program
under test, so a change to the program moves the reported numbers in full.
"""

from __future__ import annotations

import bisect
import statistics
import threading
import time

__all__ = ["SpeedProbe", "PROBE_ITERS", "REFERENCE_PROBE_US"]

PROBE_ITERS = 10_000
#: the loop's usual cost on the box the baseline was taken on, so that
#: reported numbers are close to raw ones there
REFERENCE_PROBE_US = 485.0
PERIOD_S = 0.1


def _probe_once() -> float:
    c0 = time.thread_time()
    x = 0
    for i in range(PROBE_ITERS):
        x += i * i % 7
    return time.thread_time() - c0


class SpeedProbe:
    """Readings ``(perf_counter, loop CPU seconds)`` on a thread of its own
    (not a load-issuing one: 0.5 ms of work per 100 ms)."""

    def __init__(self) -> None:
        self._at: list[float] = []
        self._cost: list[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, name="bench-speed-probe", daemon=True)

    def start(self) -> "SpeedProbe":
        self._thread.start()
        return self

    def _run(self) -> None:
        while not self._stop.wait(PERIOD_S):
            cost = _probe_once()
            # appended in this order, so a reader never sees a time without its cost
            self._cost.append(cost)
            self._at.append(time.perf_counter())

    def stop(self) -> None:
        self._stop.set()
        self._thread.join(timeout=5.0)

    def probe_us(self, t_lo: float, t_hi: float) -> tuple[float, int]:
        """Median loop cost over ``[t_lo, t_hi]`` (perf_counter times) and the
        number of readings; an interval too short to hold three readings
        borrows its neighbours."""
        n = len(self._at)
        lo, hi = bisect.bisect_left(self._at, t_lo, 0, n), bisect.bisect_right(self._at, t_hi, 0, n)
        while hi - lo < 3 and (lo > 0 or hi < n):
            lo, hi = max(0, lo - 1), min(n, hi + 1)
        if hi == lo:
            return REFERENCE_PROBE_US, 0
        return statistics.median(self._cost[lo:hi]) * 1e6, hi - lo

    def speed(self, t_lo: float, t_hi: float) -> float:
        """Box speed over the interval relative to the reference (1.1 = a
        tenth faster).  ``duration * speed`` is the duration at reference
        speed; ``rate / speed`` the rate."""
        return REFERENCE_PROBE_US / self.probe_us(t_lo, t_hi)[0]
