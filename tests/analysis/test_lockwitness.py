"""Tests for the runtime lock witness: every named lock is a leaf.

Hazard-seeding tests build their own :class:`LockWitness` instances so the
session-wide default witness (enabled by conftest, asserted clean at session
end) never sees the deliberately poisoned schedules.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.analysis import lockwitness
from repro.analysis.lockwitness import LockOrderViolation, LockWitness


def _run_sequential(*targets):
    """Run each target on its own thread, one after another — exercises the
    per-thread bookkeeping without any chance of an actual deadlock."""
    for i, fn in enumerate(targets):
        t = threading.Thread(target=fn, name=f"lw-test-{i}", daemon=True)
        t.start()
        t.join(timeout=5)
        assert not t.is_alive(), f"seed thread {i} wedged"


def _nest(outer, inner):
    def nested():
        with outer:
            with inner:
                pass

    return nested


def _seed_ab_ba(lock_a, lock_b):
    _run_sequential(_nest(lock_a, lock_b), _nest(lock_b, lock_a))


class TestCycleDetection:
    """A lock cycle needs a nesting, so the first nesting already fails:
    no ordering graph is kept, and no deadlocking schedule has to run."""

    def test_seeded_ab_ba_cycle_detected_when_enabled(self):
        w = LockWitness()
        _seed_ab_ba(w.named_lock("A"), w.named_lock("B"))

        rep = w.report()
        assert [(n["held"], n["lock"]) for n in rep["nestings"]] == [(["A"], "B"), (["B"], "A")]
        with pytest.raises(LockOrderViolation) as exc:
            w.assert_clean()
        msg = str(exc.value)
        assert "lock 'B' acquired while holding 'A'" in msg
        assert "lock 'A' acquired while holding 'B'" in msg
        assert __file__ in msg  # evidence includes the acquisition site

    def test_seeded_cycle_invisible_when_detection_disabled(self):
        # The detector is load-bearing: the exact same AB/BA schedule through
        # the factory's plain locks (witness disabled) records nothing.
        was_enabled = lockwitness.is_enabled()
        lockwitness.disable()
        try:
            _seed_ab_ba(lockwitness.named_lock("seed-A"), lockwitness.named_lock("seed-B"))
        finally:
            (lockwitness.enable if was_enabled else lockwitness.disable)()
        seen = {n["lock"] for n in lockwitness.report()["nestings"]}
        assert "seed-A" not in seen and "seed-B" not in seen

    def test_three_role_cycle_detected(self):
        w = LockWitness()
        a, b, c = (w.named_lock(n) for n in "ABC")
        _run_sequential(_nest(a, b), _nest(b, c), _nest(c, a))
        assert len(w.report()["nestings"]) == 3
        with pytest.raises(LockOrderViolation):
            w.assert_clean()


class TestNesting:
    def test_lock_inside_another_fails_with_its_site(self):
        w = LockWitness()
        _run_sequential(_nest(w.named_lock("B"), w.named_lock("A")))

        [n] = w.report()["nestings"]
        assert n["held"] == ["B"] and n["lock"] == "A" and not n["self_deadlock"]
        assert n["site"].startswith(__file__)
        with pytest.raises(LockOrderViolation, match="must be a leaf") as exc:
            w.assert_clean()
        assert n["site"] in str(exc.value)

    def test_second_instance_of_one_role_is_a_nesting(self):
        w = LockWitness()
        s1, s2 = w.named_lock("server-stats"), w.named_lock("server-stats")
        _run_sequential(_nest(s1, s2))

        [n] = w.report()["nestings"]
        assert n["held"] == ["server-stats"] and n["lock"] == "server-stats"
        assert not n["self_deadlock"]
        with pytest.raises(LockOrderViolation):
            w.assert_clean()

    def test_repeated_nesting_is_one_record_with_a_count(self):
        w = LockWitness()
        nested = _nest(w.named_lock("A"), w.named_lock("B"))
        _run_sequential(*[nested] * 4)

        [n] = w.report()["nestings"]
        assert n["count"] == 4
        with pytest.raises(LockOrderViolation, match="×4"):
            w.assert_clean()

    def test_sequential_acquisitions_clean(self):
        w = LockWitness()
        a, b = w.named_lock("A"), w.named_lock("B")

        def sequential():
            with a:
                pass
            with b:
                pass
            with a:
                pass

        _run_sequential(sequential, sequential)
        assert w.report()["nestings"] == []
        w.assert_clean()


class TestHoldBudget:
    def test_over_budget_hold_reported(self):
        w = LockWitness(hold_budget=0.02)
        lock = w.named_lock("slow")

        def holder():
            with lock:
                time.sleep(0.06)  # ftlint: disable=RT001 -- deliberate over-budget hold: this test seeds the hazard the witness must catch

        _run_sequential(holder)
        rep = w.report()
        assert len(rep["hold_violations"]) == 1
        v = rep["hold_violations"][0]
        assert v["lock"] == "slow" and v["held_s"] > 0.02
        with pytest.raises(LockOrderViolation, match="held .*budget"):
            w.assert_clean()

    def test_fast_hold_clean(self):
        w = LockWitness(hold_budget=0.5)
        lock = w.named_lock("fast")

        def holder():
            with lock:
                pass

        _run_sequential(holder)
        assert w.report()["hold_violations"] == []

    def test_invalid_budget_rejected(self):
        with pytest.raises(ValueError):
            LockWitness(hold_budget=0)


class TestReentry:
    def test_same_instance_reentry_detected(self):
        w = LockWitness()
        lock = w.named_lock("mutex")

        def reenter():
            lock.acquire()
            try:
                # Would self-deadlock if it blocked forever; the witness
                # records the hazard at the *attempt*, before blocking.
                assert lock.acquire(True, 0.05) is False
            finally:
                lock.release()

        _run_sequential(reenter)
        [n] = w.report()["nestings"]
        assert n["held"] == ["mutex"] and n["lock"] == "mutex" and n["self_deadlock"]
        with pytest.raises(LockOrderViolation, match="re-acquired.*self-deadlock"):
            w.assert_clean()


class TestFactories:
    def test_forced_off_returns_plain_primitives(self):
        was_enabled = lockwitness.is_enabled()
        lockwitness.disable()
        try:
            assert isinstance(lockwitness.named_lock("x"), type(threading.Lock()))
        finally:
            (lockwitness.enable if was_enabled else lockwitness.disable)()

    def test_forced_on_returns_witnessed_wrappers(self):
        was_enabled = lockwitness.is_enabled()
        lockwitness.enable()
        try:
            lock = lockwitness.named_lock("x")
        finally:
            (lockwitness.enable if was_enabled else lockwitness.disable)()
        assert type(lock).__name__ == "_WitnessLock"
        with lock:  # still satisfies the lock protocol
            assert lock.locked()
        assert not lock.locked()

    def test_reset_clears_records(self):
        w = LockWitness(hold_budget=0.01)
        lock = w.named_lock("A")

        def nested_and_slow():
            with lock:
                time.sleep(0.03)  # ftlint: disable=RT001 -- deliberate over-budget hold: seeds a record for reset() to clear
            _nest(w.named_lock("A"), w.named_lock("B"))()

        _run_sequential(nested_and_slow)
        rep = w.report()
        assert rep["nestings"] and rep["hold_violations"]
        w.reset()
        assert w.report() == {"nestings": [], "hold_violations": []}
        w.assert_clean()
