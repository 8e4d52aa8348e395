"""Fixture-snippet tests for every lint rule: true positives AND the
deliberate false-positive guards (the heuristics are only trustworthy if
the things they must *not* flag stay unflagged)."""

from __future__ import annotations

import textwrap

from repro.analysis.engine import lint_source

RUNTIME_PATH = "src/repro/runtime/snippet.py"
SIM_PATH = "src/repro/sim/snippet.py"


def lint(code: str, path: str = RUNTIME_PATH):
    return lint_source(path, textwrap.dedent(code))


def rules_of(findings) -> list[str]:
    return [f.rule for f in findings]


# -- RT001: lock held while blocking ------------------------------------------------


class TestRT001:
    def test_sleep_under_lock_flagged(self):
        findings = lint(
            """
            import threading, time
            lock = threading.Lock()
            def f():
                with lock:
                    time.sleep(0.1)
            """
        )
        assert rules_of(findings) == ["RT001"]
        assert "time.sleep" in findings[0].message

    def test_socket_recv_under_lock_flagged(self):
        findings = lint(
            """
            def f(self):
                with self._conns_lock:
                    self.sock.recv(4096)
            """
        )
        assert rules_of(findings) == ["RT001"]

    def test_protocol_helpers_under_lock_flagged(self):
        findings = lint(
            """
            def f(self, sock, msg):
                with self._policy_lock:
                    send_binary_request(sock, msg)
            """
        )
        assert rules_of(findings) == ["RT001"]

    def test_queue_get_and_thread_join_under_lock_flagged(self):
        findings = lint(
            """
            def f(self, worker_thread):
                with self._lock:
                    item = self.work_queue.get()
                    worker_thread.join(timeout=5)
            """
        )
        assert rules_of(findings) == ["RT001", "RT001"]

    def test_file_io_under_lock_flagged(self):
        findings = lint(
            """
            def f(self, tmp, data):
                with self._lock:
                    tmp.write_bytes(data)
            """
        )
        assert rules_of(findings) == ["RT001"]

    def test_pure_mutation_under_lock_clean(self):
        # The false-positive guard from the issue: a lock body that only
        # mutates in-memory state is exactly what locks are for.
        findings = lint(
            """
            def f(self, key, value):
                with self.suppress_lock:
                    self.table[key] = value
                    self.count += 1
                    self.table.get(key)
            """
        )
        assert findings == []

    def test_dict_get_under_lock_clean(self):
        # ``.get`` only counts when the receiver looks like a queue.
        findings = lint(
            """
            def f(self):
                with self._lock:
                    return self.conns.get("node")
            """
        )
        assert findings == []

    def test_condition_wait_on_held_condition_clean(self):
        # cond.wait() releases the held condition — the idiom, not a hazard.
        findings = lint(
            """
            def f(self):
                with self._cond:
                    while not self._queue:
                        self._cond.wait()
            """
        )
        assert findings == []

    def test_wait_on_other_primitive_under_lock_flagged(self):
        findings = lint(
            """
            def f(self):
                with self._cond:
                    self.some_event.wait()
            """
        )
        assert rules_of(findings) == ["RT001"]

    def test_nested_def_under_lock_clean(self):
        # Defining a function under a lock does not *run* it under the lock.
        findings = lint(
            """
            import time
            def f(self):
                with self._lock:
                    def later():
                        time.sleep(1.0)
                    self.callback = later
            """
        )
        assert findings == []

    def test_nested_lock_flagged(self):
        findings = lint(
            """
            import threading
            a_lock, b_lock = threading.Lock(), threading.Lock()
            def f():
                with a_lock:
                    with b_lock:
                        pass
            def g():
                with a_lock, b_lock:
                    pass
            """
        )
        assert rules_of(findings) == ["RT001", "RT001"]
        assert [f.line for f in findings] == [6, 9]
        assert "acquires lock 'b_lock' while holding lock 'a_lock'" in findings[0].message

    def test_sequential_locks_clean(self):
        findings = lint(
            """
            import threading
            a_lock, b_lock = threading.Lock(), threading.Lock()
            def f():
                with a_lock:
                    pass
                with b_lock:
                    pass
            """
        )
        assert findings == []

    def test_blocking_outside_lock_clean(self):
        findings = lint(
            """
            import time
            def f(self):
                with self._lock:
                    snapshot = list(self.items)
                time.sleep(0.1)
            """
        )
        assert findings == []

    def test_nonblocking_queue_put_clean(self):
        findings = lint(
            """
            def f(self, item):
                with self._lock:
                    self.queue.put(item, block=False)
            """
        )
        assert findings == []


# -- suppressions -------------------------------------------------------------------


class TestSuppressions:
    def test_justified_suppression_silences(self):
        findings = lint(
            """
            import time
            def f(self):
                with self._lock:  # ftlint: disable=RT001 -- sleep is 1ms and bounds a hardware settle
                    time.sleep(0.001)
            """
        )
        assert findings == []

    def test_suppression_on_call_line_also_works(self):
        findings = lint(
            """
            import time
            def f(self):
                with self._lock:
                    time.sleep(0.001)  # ftlint: disable=RT001 -- bounded 1ms settle
            """
        )
        assert findings == []

    def test_unjustified_suppression_reports_sup001(self):
        findings = lint(
            """
            import time
            def f(self):
                with self._lock:  # ftlint: disable=RT001
                    time.sleep(0.001)
            """
        )
        assert rules_of(findings) == ["SUP001"]

    def test_unused_suppression_reports_sup002(self):
        findings = lint(
            """
            def f(self):
                with self._lock:  # ftlint: disable=RT001 -- nothing blocking here anymore
                    self.count += 1
            """
        )
        assert rules_of(findings) == ["SUP002"]

    def test_marker_inside_string_literal_ignored(self):
        # Only real COMMENT tokens count — fixture snippets in strings don't.
        findings = lint(
            '''
            SNIPPET = """
            # ftlint: disable=RT001 -- not a real suppression
            """
            '''
        )
        assert findings == []


# -- RT002: untracked thread spawn ---------------------------------------------------


class TestRT002:
    def test_anonymous_thread_flagged(self):
        findings = lint(
            """
            import threading
            def f(target):
                t = threading.Thread(target=target)
                t.start()
            """
        )
        assert rules_of(findings) == ["RT002"]
        assert "name=" in findings[0].message and "daemon=" in findings[0].message

    def test_named_nondaemon_flagged_for_daemon(self):
        findings = lint(
            """
            import threading
            def f(target):
                threading.Thread(target=target, name="x").start()
            """
        )
        assert rules_of(findings) == ["RT002"]
        assert "daemon=" in findings[0].message and "name=" not in findings[0].message

    def test_named_daemon_thread_clean(self):
        findings = lint(
            """
            import threading
            def f(target):
                threading.Thread(target=target, name="data-mover-1", daemon=True).start()
            """
        )
        assert findings == []


# -- SIM001: determinism -------------------------------------------------------------


class TestSIM001:
    def test_wall_clock_in_sim_flagged(self):
        findings = lint(
            """
            import time
            def now():
                return time.time()
            """,
            path=SIM_PATH,
        )
        assert rules_of(findings) == ["SIM001"]

    def test_wall_clock_outside_contract_packages_clean(self):
        findings = lint(
            """
            import time
            def now():
                return time.time()
            """,
            path=RUNTIME_PATH,
        )
        assert findings == []

    def test_unseeded_default_rng_flagged_seeded_clean(self):
        findings = lint(
            """
            import numpy as np
            bad = np.random.default_rng()
            good = np.random.default_rng(1234)
            """,
            path=SIM_PATH,
        )
        assert rules_of(findings) == ["SIM001"]
        assert findings[0].line == 3

    def test_legacy_global_numpy_rng_flagged(self):
        findings = lint(
            """
            import numpy as np
            def f():
                np.random.seed(0)
                return np.random.randint(10)
            """,
            path=SIM_PATH,
        )
        assert rules_of(findings) == ["SIM001", "SIM001"]

    def test_stdlib_random_flagged(self):
        findings = lint(
            """
            import random
            def f():
                return random.random()
            """,
            path="src/repro/experiments/snippet.py",
        )
        assert rules_of(findings) == ["SIM001"]

    def test_generator_annotation_clean(self):
        findings = lint(
            """
            import numpy as np
            def f(rng: np.random.Generator) -> float:
                return float(rng.random())
            """,
            path=SIM_PATH,
        )
        assert findings == []


# -- EXC001: swallowed exceptions in thread targets ---------------------------------


class TestEXC001:
    def test_silent_broad_except_in_thread_target_flagged(self):
        findings = lint(
            """
            import threading
            def _worker():
                try:
                    work()
                except Exception:
                    pass
            def start():
                threading.Thread(target=_worker, name="w", daemon=True).start()
            """
        )
        assert rules_of(findings) == ["EXC001"]

    def test_bare_except_in_method_target_flagged(self):
        findings = lint(
            """
            import threading
            class Pool:
                def _run(self):
                    while True:
                        try:
                            self.step()
                        except:
                            continue
                def start(self):
                    threading.Thread(target=self._run, name="p", daemon=True).start()
            """
        )
        assert rules_of(findings) == ["EXC001"]

    def test_narrow_except_in_thread_target_clean(self):
        # `except OSError: pass` is a deliberate, narrow policy — not flagged.
        findings = lint(
            """
            import threading
            def _worker():
                try:
                    work()
                except OSError:
                    pass
            threading.Thread(target=_worker, name="w", daemon=True).start()
            """
        )
        assert findings == []

    def test_recorded_broad_except_clean(self):
        findings = lint(
            """
            import threading
            def _worker(errors):
                try:
                    work()
                except Exception as exc:
                    errors.append(exc)
            threading.Thread(target=_worker, name="w", daemon=True, args=([],)).start()
            """
        )
        assert findings == []

    def test_broad_silent_except_outside_thread_target_clean(self):
        findings = lint(
            """
            def ordinary():
                try:
                    work()
                except Exception:
                    pass
            """
        )
        assert findings == []


# -- the real tree ------------------------------------------------------------------


class TestRealTree:
    def test_src_and_tests_are_clean(self):
        # The acceptance criterion, pinned as a regression test: the shipped
        # tree has zero findings and zero unexplained suppressions.
        from repro.analysis import lint_paths

        findings = lint_paths(["src", "tests"])
        assert findings == [], "\n" + "\n".join(f.format_human() for f in findings)

    def test_src_carries_no_suppression(self):
        # The shipped code holds its invariants by construction: no rule is
        # silenced anywhere in src/ (TestRT001's fixtures prove the rule fires).
        from pathlib import Path

        from repro.analysis.findings import scan_suppressions

        marked = [
            f"{path}:{line}"
            for path in sorted(Path("src").rglob("*.py"))
            for line in scan_suppressions(path.read_text())
        ]
        assert marked == []
