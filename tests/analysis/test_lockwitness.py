"""Tests for the runtime lock witness: every named lock is a leaf, and no
blocking call runs under one.

Hazard-seeding tests build their own :class:`LockWitness` instances so the
session-wide default witness (enabled by conftest, asserted clean at session
end) never sees the deliberately poisoned schedules.
"""

from __future__ import annotations

import _socket
import inspect
import os
import queue
import socket
import textwrap
import threading
import time
import types

import pytest

from repro.analysis import lockwitness
from repro.analysis.lockwitness import BLOCKING_CALLS, LockOrderViolation, LockWitness


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
                time.sleep(0.06)  # a deliberate over-budget hold

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
                time.sleep(0.03)  # an over-budget hold for reset() to clear
            _nest(w.named_lock("A"), w.named_lock("B"))()

        _run_sequential(nested_and_slow)
        rep = w.report()
        assert rep["nestings"] and rep["hold_violations"]
        assert rep["blocking"] or not lockwitness.is_enabled()
        w.reset()
        assert w.report() == {"nestings": [], "blocking": [], "hold_violations": []}
        w.assert_clean()


# -- blocking calls under a named lock --------------------------------------------


@pytest.fixture
def wrapped():
    """The blocking primitives wrapped, as in a witnessed session."""
    was_enabled = lockwitness.is_enabled()
    lockwitness.enable()
    yield
    if not was_enabled:
        lockwitness.disable()


def _line_of(fn, text: str) -> str:
    """``file:line`` of the first line of ``fn`` that contains ``text``."""
    lines, first = inspect.getsourcelines(fn)
    return f"{inspect.getsourcefile(fn)}:{first + next(i for i, s in enumerate(lines) if text in s)}"


def _sleep_helper():
    time.sleep(0.001)


_SLEEP_SITE = _line_of(_sleep_helper, "time.sleep")


def _module(name: str, source: str, **names) -> types.ModuleType:
    """A module compiled from ``source`` as ``<name>.py``, so a site inside
    it reads as that file."""
    mod = types.ModuleType(name)
    mod.__dict__.update(names)
    exec(compile(textwrap.dedent(source), f"{name}.py", "exec"), mod.__dict__)
    return mod


def _assert_one_blocking(w: LockWitness, held: list, call: str, chain: list) -> None:
    """One record, at the last site of ``chain``, which runs from the call
    made under the lock down to the primitive's caller."""
    [b] = w.report()["blocking"]
    assert (b["held"], b["call"], b["site"], b["chain"]) == (held, call, chain[-1], chain)
    with pytest.raises(LockOrderViolation, match=f"blocking call '{call}'") as exc:
        w.assert_clean()
    assert f"reached via {' -> '.join(chain)}" in str(exc.value)


@pytest.mark.usefixtures("wrapped")
class TestBlockingUnderLock:
    """A blocking call is caught wherever the call chain that reached it
    started; the record names the primitive's own caller."""

    def test_helper_that_sleeps_reported_at_the_helper(self):
        w = LockWitness()
        lock = w.named_lock("client-policy")

        def route():
            with lock:
                _sleep_helper()

        _run_sequential(route)
        _assert_one_blocking(
            w, ["client-policy"], "time.sleep", [_line_of(route, "_sleep_helper()"), _SLEEP_SITE]
        )

    def test_method_chain_through_self(self, tmp_path):
        w = LockWitness()
        (tmp_path / "blob").write_bytes(b"x" * 64)

        class Mover:
            def __init__(self, fd):
                self._lock = w.named_lock("nvme-lru")
                self._fd = fd

            def drain(self):
                with self._lock:
                    self._flush()

            def _flush(self):
                self._peek()

            def _peek(self):
                return os.pread(self._fd, 16, 0)

        fd = os.open(tmp_path / "blob", os.O_RDONLY)
        try:
            _run_sequential(Mover(fd).drain)
        finally:
            os.close(fd)
        chain = [
            _line_of(Mover.drain, "self._flush()"),
            _line_of(Mover._flush, "self._peek()"),
            _line_of(Mover._peek, "os.pread"),
        ]
        _assert_one_blocking(w, ["nvme-lru"], "os.pread", chain)

    def test_two_hop_cross_module_chain(self):
        w = LockWitness()
        slowio = _module("slowio", """
            import time

            def slow():
                time.sleep(0.001)
            """)
        caller = _module("caller", """
            def middle():
                slow()

            def f(lock):
                with lock:
                    middle()
            """, slow=slowio.slow)
        lock = w.named_lock("server-installs")
        _run_sequential(lambda: caller.f(lock))
        _assert_one_blocking(
            w, ["server-installs"], "time.sleep", ["caller.py:7", "caller.py:3", "slowio.py:5"]
        )

    def test_helper_that_takes_a_second_lock_is_a_nesting(self):
        w = LockWitness()
        policy, epoch = w.named_lock("client-policy"), w.named_lock("client-epoch")

        def bump():
            with epoch:
                pass

        def declare():
            with policy:
                bump()

        _run_sequential(declare)
        [n] = w.report()["nestings"]
        assert (n["held"], n["lock"]) == (["client-policy"], "client-epoch")
        assert n["chain"] == [_line_of(declare, "bump()"), _line_of(bump, "with epoch")]
        assert n["site"] == n["chain"][-1]
        with pytest.raises(LockOrderViolation, match="must be a leaf"):
            w.assert_clean()

    def test_helper_called_after_the_release_clean(self):
        w = LockWitness()
        lock = w.named_lock("client-policy")

        def route():
            with lock:
                pass
            _sleep_helper()

        _run_sequential(route)
        assert w.report()["blocking"] == []
        w.assert_clean()

    def test_helper_that_does_not_block_clean(self):
        w = LockWitness()
        lock = w.named_lock("counters")

        def bump(xs):
            with lock:
                return sum(xs)

        _run_sequential(lambda: bump([1, 2, 3]))
        w.assert_clean()

    def test_thread_started_under_a_lock_blocks_on_its_own_thread_clean(self):
        # Thread.start waits for the new thread to boot; the sleep then runs
        # on that thread, which holds no lock
        w = LockWitness()
        lock = w.named_lock("server-conn-jobs")
        spawned = []

        def spawn():
            with lock:
                t = threading.Thread(target=_sleep_helper, name="lw-own-thread", daemon=True)
                t.start()
            spawned.append(t)

        _run_sequential(spawn)
        spawned[0].join(timeout=5)
        w.assert_clean()

    def test_nonblocking_queue_ops_clean(self):
        w = LockWitness()
        lock = w.named_lock("obs-events")
        jobs: queue.Queue = queue.Queue(maxsize=4)

        def enqueue():
            with lock:
                jobs.put(1, block=False)
                jobs.put_nowait(2)
                jobs.get(False)
                jobs.get(block=False)

        _run_sequential(enqueue)
        w.assert_clean()

    def test_blocking_queue_get_reported(self):
        w = LockWitness()
        lock = w.named_lock("obs-events")
        jobs: queue.Queue = queue.Queue()
        jobs.put(1)

        def dequeue():
            with lock:
                return jobs.get(timeout=1)

        _run_sequential(dequeue)
        [b] = w.report()["blocking"]
        assert (b["held"], b["call"]) == (["obs-events"], "queue.Queue.get")

    def test_connect_reported(self):
        w = LockWitness()
        lock = w.named_lock("client-socks")
        with socket.create_server(("127.0.0.1", 0)) as listener:
            addr = listener.getsockname()

            def dial():
                with lock:
                    socket.create_connection(addr, timeout=5).close()

            _run_sequential(dial)
        [b] = w.report()["blocking"]
        assert (b["held"], b["call"]) == (["client-socks"], "socket.socket.connect")

    def test_accept_reported(self):
        w = LockWitness()
        lock = w.named_lock("server-installs")
        with socket.create_server(("127.0.0.1", 0)) as listener:
            with socket.create_connection(listener.getsockname(), timeout=5):

                def take():
                    with lock:
                        listener.accept()[0].close()

                _run_sequential(take)
        [b] = w.report()["blocking"]
        assert (b["held"], b["call"]) == (["server-installs"], "socket.socket.accept")

    def test_thread_join_reported(self):
        w = LockWitness()
        lock = w.named_lock("server-installs")
        worker = threading.Thread(target=_sleep_helper, name="lw-joined", daemon=True)
        worker.start()

        def stop():
            with lock:
                worker.join(timeout=5)

        _run_sequential(stop)
        [b] = w.report()["blocking"]
        assert (b["held"], b["call"], b["site"]) == (
            ["server-installs"], "threading.Thread.join", _line_of(stop, "worker.join")
        )

    def test_pathlib_read_reported(self, tmp_path):
        # pathlib opens through io.open, not through builtins.open
        w = LockWitness()
        lock = w.named_lock("nvme-lru")
        (tmp_path / "entry").write_bytes(b"x")

        def peek():
            with lock:
                return (tmp_path / "entry").read_bytes()

        _run_sequential(peek)
        [b] = w.report()["blocking"]
        assert (b["held"], b["call"]) == (["nvme-lru"], "io.open")


class TestWrapLifecycle:
    def test_disable_restores_every_original(self):
        was_enabled = lockwitness.is_enabled()
        owners = {path: lockwitness._owner(path) for path in BLOCKING_CALLS}
        try:
            lockwitness.disable()
            plain = {(p, n): getattr(owners[p], n) for p, names in BLOCKING_CALLS.items() for n in names}
            lockwitness.enable()
            lockwitness.enable()  # idempotent: one layer of wrapping
            for (p, n), original in plain.items():
                assert getattr(owners[p], n) is not original, f"{p}.{n} not wrapped"
                assert getattr(owners[p], n).__wrapped__ is original
            lockwitness.disable()
            for (p, n), original in plain.items():
                assert getattr(owners[p], n) is original, f"{p}.{n} not restored"
            assert socket.socket.sendall is _socket.socket.sendall
            assert "sendall" not in vars(socket.socket)
        finally:
            (lockwitness.enable if was_enabled else lockwitness.disable)()
