"""Shared test fixtures and suite-wide concurrency gates.

Two post-suite assertions protect the threaded runtime:

* **leaked-thread gate** — any runtime-owned thread still alive after the
  suite fails the build, reported with its *name and creation site* (we
  record the spawning ``file:line`` by wrapping ``threading.Thread.__init__``
  for the session) so the failure is actionable, not a bare count;
* **lock-order witness** — :mod:`repro.analysis.lockwitness` is enabled
  for the whole session (opt out with ``FTLINT_LOCKWITNESS=0``), so every
  named runtime lock feeds the lock-acquisition graph; a cycle (potential
  deadlock), an over-budget hold (``FTLINT_LOCK_BUDGET`` seconds, default
  2.0), or a same-instance re-entry fails the run even when the schedule
  that would deadlock never fired.
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
    "replica-push",
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


def _combined_lock_cycles(runtime_report: dict) -> list:
    """Cycles present only in the union of the static lock graph (over
    ``src/repro``) and the session's runtime witness graph."""
    from pathlib import Path

    from repro.analysis.callgraph import CallGraph
    from repro.analysis.engine import collect_files
    from repro.analysis.lockgraph import build_static_lock_graph, compare_with_runtime
    from repro.analysis.visitor import ModuleContext

    src = Path(__file__).resolve().parent.parent / "src" / "repro"
    contexts = []
    for f in collect_files([src]):
        try:
            contexts.append(ModuleContext.parse(f.as_posix(), f.read_text()))
        except SyntaxError:
            continue  # the linter reports the parse error; not this gate's job
    static = build_static_lock_graph(CallGraph(contexts))
    return compare_with_runtime(static, runtime_report)["combined_cycles"]


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

    # Lock-order witness verdict for the whole session.
    if _LOCKWITNESS_ON and exitstatus == 0:
        rep = lockwitness.report()
        if rep["cycles"] or rep["hold_violations"] or rep["reentries"]:
            try:
                lockwitness.assert_clean()
            except lockwitness.LockOrderViolation as exc:
                print(f"\nERROR: lock-order witness failed:\n{exc}", file=sys.stderr)
            session.exitstatus = 1
        else:
            # Cross-check against the *static* lock-acquisition graph:
            # each side alone can be acyclic while their union holds a
            # cycle — an ordering the tests never exercised overlapping
            # one the linter cannot see (locks local to closures).  That
            # silent gap is exactly what this gate exists to close.
            try:
                combined = _combined_lock_cycles(rep)
            except Exception as exc:  # the gate must never wedge the suite
                print(
                    f"\nWARNING: static/runtime lock-graph cross-check skipped: {exc}",
                    file=sys.stderr,
                )
            else:
                if combined:
                    print(
                        "\nERROR: lock-order cycle visible only in the combined "
                        f"static+runtime acquisition graph: {combined}",
                        file=sys.stderr,
                    )
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
