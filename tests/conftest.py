"""Shared test fixtures and suite-wide concurrency gates.

Two post-suite assertions protect the threaded runtime:

* **leaked-thread gate** — any runtime-owned thread still alive after the
  suite fails the build, reported with its *name and creation site* (we
  record the spawning ``file:line`` by wrapping ``threading.Thread.__init__``
  for the session) so the failure is actionable, not a bare count;
* **lock witness** — :mod:`repro.analysis.lockwitness` is enabled for
  the whole session (opt out with ``FTLINT_LOCKWITNESS=0``), so every
  named runtime lock is watched and every blocking primitive of
  ``lockwitness.BLOCKING_CALLS`` is wrapped; a nested acquisition (a
  named lock taken while another is held — every lock is a leaf, so no
  deadlock can form), a blocking call made while a named lock is held
  (through any call chain) or an over-budget hold
  (``FTLINT_LOCK_BUDGET`` seconds, default 2.0) fails the run with its
  site, even when no schedule ever deadlocked or stalled.
"""

from __future__ import annotations

import os
import sys
import threading
import time

import numpy as np
import pytest

from repro.analysis import lockwitness
from repro.sim import Environment

#: thread-name prefixes owned by the runtime; anything still alive after the
#: suite means a handler/chaos thread leaked past its owner's close()
_RUNTIME_THREAD_PREFIXES = (
    "ftcache-server-",
    "chaos-monkey",
)

_LOCKWITNESS_ON = os.environ.get("FTLINT_LOCKWITNESS", "1") != "0"

_original_thread_init = threading.Thread.__init__


def _recording_thread_init(self, *args, **kwargs):
    """Stamp every Thread with the file:line that constructed it, so the
    leaked-thread gate can say *who* leaked, not just how many."""
    _original_thread_init(self, *args, **kwargs)
    frame = sys._getframe(1)
    # Skip frames inside threading.py itself (e.g. Timer subclass __init__).
    while frame is not None and frame.f_code.co_filename == threading.__file__:
        frame = frame.f_back
    if frame is not None:
        self._ftlint_created_at = f"{frame.f_code.co_filename}:{frame.f_lineno}"


def pytest_configure(config):  # noqa: D103 - pytest hook
    threading.Thread.__init__ = _recording_thread_init
    if _LOCKWITNESS_ON:
        lockwitness.enable(hold_budget=float(os.environ.get("FTLINT_LOCK_BUDGET", "2.0")))


def pytest_unconfigure(config):  # noqa: D103 - pytest hook
    threading.Thread.__init__ = _original_thread_init
    lockwitness.disable()


def _leaked_runtime_threads() -> list[threading.Thread]:
    return [
        t
        for t in threading.enumerate()
        if t.is_alive() and any(t.name.startswith(p) for p in _RUNTIME_THREAD_PREFIXES)
    ]


def _describe(thread: threading.Thread) -> str:
    site = getattr(thread, "_ftlint_created_at", "<creation site unknown>")
    return f"  {thread.name}  (created at {site})"


def pytest_sessionfinish(session, exitstatus):  # noqa: D103 - pytest hook
    # Post-suite leaked-thread assertion: a hung handler or chaos thread
    # should fail the build, not wedge it until the CI job timeout.
    deadline = time.monotonic() + 5.0
    leaked = _leaked_runtime_threads()
    while leaked and time.monotonic() < deadline:
        time.sleep(0.1)
        leaked = _leaked_runtime_threads()
    if leaked and exitstatus == 0:
        lines = "\n".join(_describe(t) for t in sorted(leaked, key=lambda t: t.name))
        print(
            f"\nERROR: {len(leaked)} runtime thread(s) leaked past the test suite:\n{lines}",
            file=sys.stderr,
        )
        session.exitstatus = 1

    # Lock witness verdict for the whole session.
    if _LOCKWITNESS_ON and exitstatus == 0:
        try:
            lockwitness.assert_clean()
        except lockwitness.LockOrderViolation as exc:
            print(f"\nERROR: lock witness failed:\n{exc}", file=sys.stderr)
            session.exitstatus = 1


@pytest.fixture
def env() -> Environment:
    return Environment()


def run_proc(env: Environment, generator):
    """Run a single process to completion and return its value."""
    proc = env.process(generator)
    env.run(until=proc)
    return proc.value


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)
