"""RT003 fixtures: transitive blocking under a held lock, true positives
and the false-positive guards that keep the rule trustworthy."""

from __future__ import annotations

import textwrap

from repro.analysis.engine import lint_source, run_lint

PATH = "src/repro/runtime/snippet.py"


def lint(code: str, path: str = PATH):
    return lint_source(path, textwrap.dedent(code))


def lint_project(modules: dict):
    return run_lint([(p, textwrap.dedent(s)) for p, s in modules.items()])


def rules_of(findings) -> list:
    return [f.rule for f in findings]


class TestRT003TruePositives:
    def test_helper_that_sleeps_flagged_with_chain(self):
        findings = lint(
            """
            import threading, time
            lock = threading.Lock()

            def helper():
                time.sleep(0.5)

            def f():
                with lock:
                    helper()
            """
        )
        assert rules_of(findings) == ["RT003"]
        msg = findings[0].message
        assert "helper" in msg and "time.sleep" in msg and "'lock'" in msg

    def test_method_chain_through_self_flagged(self):
        findings = lint(
            """
            import threading, time

            class Mover:
                def __init__(self):
                    self._lock = threading.Lock()

                def drain(self):
                    with self._lock:
                        self._flush()

                def _flush(self):
                    time.sleep(1.0)
            """
        )
        assert rules_of(findings) == ["RT003"]
        assert "_flush" in findings[0].message

    def test_two_hop_cross_module_chain(self):
        findings = lint_project(
            {
                "src/repro/runtime/slowio.py": """
                import time

                def slow():
                    time.sleep(2.0)
                """,
                "src/repro/runtime/caller.py": """
                import threading
                from .slowio import slow

                lock = threading.Lock()

                def middle():
                    slow()

                def f():
                    with lock:
                        middle()
                """,
            }
        )
        assert rules_of(findings) == ["RT003"]
        msg = findings[0].message
        assert "middle" in msg and "slow" in msg  # the full offending chain

    def test_helper_that_takes_a_lock_flagged_as_nesting(self):
        findings = lint(
            """
            import threading

            class Client:
                def __init__(self):
                    self._policy_lock = threading.Lock()
                    self._epoch_lock = threading.Lock()

                def declare(self):
                    with self._policy_lock:
                        self._bump()

                def _bump(self):
                    with self._epoch_lock:
                        pass
            """
        )
        assert rules_of(findings) == ["RT003"]
        msg = findings[0].message
        assert "'self._policy_lock'" in msg and "acquires lock 'self._epoch_lock'" in msg
        assert "snippet.py:14" in msg  # the callee's with statement

    def test_finding_anchored_at_with_line_for_suppression(self):
        findings = lint(
            """
            import threading, time
            lock = threading.Lock()

            def helper():
                time.sleep(0.5)

            def f():
                with lock:
                    helper()
            """
        )
        assert findings[0].anchor_lines  # suppressible at the with statement


class TestRT003FalsePositiveGuards:
    def test_direct_blocking_call_is_rt001_only(self):
        findings = lint(
            """
            import threading, time
            lock = threading.Lock()

            def f():
                with lock:
                    time.sleep(0.1)
            """
        )
        assert rules_of(findings) == ["RT001"]  # no RT003 double-report

    def test_helper_called_outside_lock_clean(self):
        findings = lint(
            """
            import threading, time
            lock = threading.Lock()

            def helper():
                time.sleep(0.5)

            def f():
                with lock:
                    pass
                helper()
            """
        )
        assert findings == []

    def test_nonblocking_helper_clean(self):
        findings = lint(
            """
            import threading
            lock = threading.Lock()

            def helper(xs):
                return sum(xs)

            def f(xs):
                with lock:
                    return helper(xs)
            """
        )
        assert findings == []

    def test_thread_target_closure_under_lock_clean(self):
        # the closure body runs on the spawned thread, after the with exits
        findings = lint(
            """
            import threading, time
            lock = threading.Lock()

            def f():
                with lock:
                    def push():
                        time.sleep(1.0)
                    t = threading.Thread(target=push, name="push", daemon=True)
                return t
            """
        )
        assert findings == []

    def test_justified_suppression_on_with_line_silences(self):
        findings = lint(
            """
            import threading, time
            lock = threading.Lock()

            def helper():
                time.sleep(0.5)

            def f():
                with lock:  # ftlint: disable=RT003 -- helper is bounded by the poll tick
                    helper()
            """
        )
        assert findings == []
