"""Shared test fixtures and suite-wide concurrency gates.

Two post-suite assertions protect the threaded runtime:

* **leaked-thread gate** — a thread that the runtime created and that is
  still alive after the suite fails the build, reported with its *name and
  creation site*.  A thread is the runtime's when a frame under
  ``src/repro`` is on the stack that constructed it (we wrap
  ``threading.Thread.__init__`` for the session and walk that stack), so
  the gate needs no thread name: an executor's workers, created inside
  ``concurrent.futures`` for a runtime ``submit``, count too;
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

import repro
from repro.analysis import lockwitness
from repro.sim import Environment

#: the package directory: a thread built by a frame under it is the runtime's
_RUNTIME_DIR = os.path.dirname(repro.__file__) + os.sep

_LOCKWITNESS_ON = os.environ.get("FTLINT_LOCKWITNESS", "1") != "0"

_original_thread_init = threading.Thread.__init__


def _recording_thread_init(self, *args, **kwargs):
    """Stamp a Thread built by runtime code with the innermost runtime
    ``file:line`` on its creation stack, so the leaked-thread gate knows
    it for the runtime's and can say *who* leaked it."""
    _original_thread_init(self, *args, **kwargs)
    frame = sys._getframe(1)
    while frame is not None and not frame.f_code.co_filename.startswith(_RUNTIME_DIR):
        frame = frame.f_back
    if frame is not None:
        self._runtime_created_at = f"{frame.f_code.co_filename}:{frame.f_lineno}"


def pytest_configure(config):  # noqa: D103 - pytest hook
    threading.Thread.__init__ = _recording_thread_init
    if _LOCKWITNESS_ON:
        lockwitness.enable(hold_budget=float(os.environ.get("FTLINT_LOCK_BUDGET", "2.0")))


def pytest_unconfigure(config):  # noqa: D103 - pytest hook
    threading.Thread.__init__ = _original_thread_init
    lockwitness.disable()


def _leaked_runtime_threads() -> list[threading.Thread]:
    return [t for t in threading.enumerate() if t.is_alive() and hasattr(t, "_runtime_created_at")]


def _describe(thread: threading.Thread) -> str:
    return f"  {thread.name}  (created at {thread._runtime_created_at})"


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
