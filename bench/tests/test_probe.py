import time

import pytest

import probe


def test_speed_is_reference_over_the_interval_median():
    p = probe.SpeedProbe()
    p._at = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]
    p._cost = [c * 1e-6 for c in (400, 500, 600, 970, 970, 970)]
    assert p.probe_us(0.5, 3.5) == (pytest.approx(500.0), 3)
    assert p.speed(0.5, 3.5) == pytest.approx(probe.REFERENCE_PROBE_US / 500.0)
    assert p.speed(3.5, 9.0) == pytest.approx(probe.REFERENCE_PROBE_US / 970.0)
    # an interval with fewer than three readings borrows its neighbours
    assert p.probe_us(2.5, 3.5) == (pytest.approx(600.0), 3)
    assert probe.SpeedProbe().probe_us(0.0, 1.0) == (probe.REFERENCE_PROBE_US, 0)


def test_probe_thread_reads_ten_times_a_second_and_stops():
    p = probe.SpeedProbe().start()
    t0 = time.perf_counter()
    time.sleep(0.55)
    p.stop()
    assert not p._thread.is_alive()
    us, n = p.probe_us(t0, time.perf_counter())
    assert 3 <= n <= 6 and 50 < us < 50_000
