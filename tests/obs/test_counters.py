"""The one counter primitive: a fixed key tuple, one lock, bump and snapshot."""

import sys
import threading

import pytest

from repro.obs import Counters


class TestCounters:
    def test_duplicate_keys_refused(self):
        with pytest.raises(ValueError, match="hits"):
            Counters(("hits", "misses", "hits"))

    def test_unknown_key_raises(self):
        c = Counters(("hits",))
        with pytest.raises(KeyError):
            c.bump(hitz=1)
        assert c.snapshot() == {"hits": 0}

    def test_snapshot_is_a_copy(self):
        c = Counters(("hits", "misses"))
        c.bump(hits=2, misses=1)
        snap = c.snapshot()
        snap["hits"] = 99
        c.bump(hits=1)
        assert snap == {"hits": 99, "misses": 1}
        assert c.snapshot() == {"hits": 3, "misses": 1}

    def test_concurrent_bumps_sum_exactly(self):
        c = Counters(("a", "b"))
        n_threads, n_bumps = 8, 10_000
        threads = _bump_concurrently(c, n_threads, n_bumps)
        assert not any(t.is_alive() for t in threads)
        assert c.snapshot() == {"a": n_threads * n_bumps, "b": 2 * n_threads * n_bumps}

    def test_snapshot_never_sees_half_a_bump(self):
        """One bump's keys move together: a snapshot taken while other
        threads bump ``a=1, b=2`` always reads ``b == 2 * a``."""
        c = Counters(("a", "b"))
        torn = []

        def watch() -> None:
            snap = c.snapshot()
            if snap["b"] != 2 * snap["a"]:
                torn.append(snap)

        threads = _bump_concurrently(c, 4, 50_000, watch)
        assert not any(t.is_alive() for t in threads)
        assert torn == []


def _bump_concurrently(c: Counters, n_threads: int, n_bumps: int, watch=None) -> list:
    """``n_threads`` threads each ``bump(a=1, b=2)`` ``n_bumps`` times with a
    tiny switch interval; ``watch`` runs on this thread until they finish."""
    start = threading.Barrier(n_threads + 1)

    def work() -> None:
        start.wait(timeout=10)
        for _ in range(n_bumps):
            c.bump(a=1, b=2)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads as often as the interpreter allows
    try:
        threads = [threading.Thread(target=work, name=f"counters-{i}", daemon=True) for i in range(n_threads)]
        for t in threads:
            t.start()
        start.wait(timeout=10)
        while watch is not None and any(t.is_alive() for t in threads):
            watch()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    return threads
