"""Project-specific lint rules.

==========  =====================================================================
RT001       blocking call (socket/file I/O, sleep, wait, join, queue get/put)
            or a nested lock acquisition inside a ``with <lock>:`` body — the
            stall amplifier behind most of the runtime's past latency
            cliffs, and (for nesting) the precondition of every deadlock
RT002       ``threading.Thread(...)`` without ``name=`` and ``daemon=`` — the
            static counterpart of the conftest leaked-thread gate, which can
            only blame threads it can identify
SIM001      wall-clock or unseeded randomness inside the determinism-contracted
            packages (``repro.sim``, ``repro.dl``, ``repro.experiments``)
EXC001      a thread target that swallows broad exceptions silently (a worker
            dying with ``except Exception: pass`` is invisible until the queue
            it served backs up)
SUP001      ftlint suppression without a ``-- justification``
SUP002      ftlint suppression whose rule never fires on that line
==========  =====================================================================

RT001 heuristics (documented so suppressions can argue against them):
a *lock expression* is any ``with X:`` where the dotted name of ``X``
ends in something matching ``lock|cond|mutex`` (case-insensitive).
The blocking calls are the lock witness's
:data:`~repro.analysis.lockwitness.BLOCKING_CALLS` plus what only a
reader of names can see (connect/accept, pathlib file I/O, thread join,
the protocol helpers).
Acquiring a lock is itself a blocking call: every lock is a leaf, so a
``with <lock>:`` inside a held lock (including the later items of one
``with a, b:``) is flagged.
``cond.wait()`` on the very condition being held is the correct
release-and-wait idiom and is never flagged.  Nested ``def``/``lambda``
bodies inside the ``with`` are skipped — defining a function under a
lock does not run it under the lock.
"""

from __future__ import annotations

import ast
import re
from typing import Optional

from .lockwitness import BLOCKING_CALLS
from .visitor import RuleVisitor, dotted_name

__all__ = [
    "LockHeldWhileBlockingRule",
    "UntrackedThreadRule",
    "DeterminismRule",
    "SwallowedThreadExceptionRule",
    "ALL_RULES",
    "blocking_reason",
    "lock_name",
]

_LOCK_NAME_RE = re.compile(r"(lock|cond|mutex)$", re.IGNORECASE)
_THREADISH_RE = re.compile(r"(^t\d*$|^th$|thread|worker|proc|monkey)", re.IGNORECASE)
_QUEUEISH_RE = re.compile(r"(^q\d*$|queue|_q$|jobs|work$)", re.IGNORECASE)

#: attribute calls that block regardless of receiver
_SOCKET_ATTRS = {*BLOCKING_CALLS["socket.socket"], "recvfrom", "accept", "connect", "connect_ex"}
_OS_CALLS = {f"os.{name}" for name in BLOCKING_CALLS["os"]}
_SLEEP_ATTRS = set(BLOCKING_CALLS["time"])
_WAIT_ATTRS = set(BLOCKING_CALLS["threading.Event"])
_QUEUE_ATTRS = set(BLOCKING_CALLS["queue.Queue"])
_FILE_IO_ATTRS = {
    "read_bytes", "write_bytes", "read_text", "write_text",
    "unlink", "replace", "rename", "stat", "iterdir", "mkdir", "rmdir",
    "rmtree", "flush", "fsync", "touch",
}
#: bare-name calls that block (project protocol helpers included: they do
#: full-frame socket I/O)
_BLOCKING_NAME_CALLS = {*BLOCKING_CALLS["builtins"], *_SLEEP_ATTRS, "send_binary_request", "recv_message"}

_BROAD_EXC = {"Exception", "BaseException"}


def _terminal(name: Optional[str]) -> str:
    return name.rsplit(".", 1)[-1] if name else ""


def lock_name(expr: ast.expr) -> Optional[str]:
    """The dotted name of ``expr`` if it reads as a lock, else None."""
    name = dotted_name(expr)
    return name if name and _LOCK_NAME_RE.search(_terminal(name)) else None


def blocking_reason(node: ast.Call, held_locks: tuple = ()) -> Optional[str]:
    """Why this call blocks, or None.  ``held_locks`` are the dotted names
    of locks held at the call, used only for the cond.wait-on-held
    exemption.  The same calls reached through a helper are the lock
    witness's to catch at runtime."""
    func = node.func
    name = dotted_name(func)
    if isinstance(func, ast.Name) and func.id in _BLOCKING_NAME_CALLS:
        return f"blocking call '{func.id}()'"
    if not isinstance(func, ast.Attribute):
        return None
    attr = func.attr
    recv = dotted_name(func.value)
    recv_term = _terminal(recv)
    if name in _OS_CALLS:
        return f"'{name}()'"
    if attr in _SLEEP_ATTRS:
        return "'time.sleep()'"
    if attr in _WAIT_ATTRS:
        # cond.wait() on the held condition releases it — the idiom, not a bug
        if recv in held_locks:
            return None
        return f"'{recv or '?'}.wait()'"
    if attr in _SOCKET_ATTRS:
        return f"socket I/O '{recv or '?'}.{attr}()'"
    if attr in _FILE_IO_ATTRS:
        return f"file I/O '{recv or '?'}.{attr}()'"
    if attr == "join" and _THREADISH_RE.search(recv_term):
        return f"thread join '{recv}.join()'"
    if attr in _QUEUE_ATTRS and _QUEUEISH_RE.search(recv_term):
        if _has_false_block_kwarg(node):
            return None
        return f"blocking queue op '{recv}.{attr}()'"
    return None


def _has_false_block_kwarg(node: ast.Call) -> bool:
    for kw in node.keywords:
        if kw.arg == "block" and isinstance(kw.value, ast.Constant) and kw.value.value is False:
            return True
    if node.args:
        first = node.args[0]
        if isinstance(first, ast.Constant) and first.value is False:
            return True
    return False


class LockHeldWhileBlockingRule(RuleVisitor):
    rule_id = "RT001"
    description = "blocking call while holding a lock"

    def check(self, ctx):
        self._lock_stack: list[tuple[str, int]] = []
        return super().check(ctx)

    # Nested function bodies do not execute under the enclosing lock.
    def _visit_scope(self, node: ast.AST) -> None:
        saved, self._lock_stack = self._lock_stack, []
        self.generic_visit(node)
        self._lock_stack = saved

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._visit_scope(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._visit_scope(node)

    def visit_Lambda(self, node: ast.Lambda) -> None:
        self._visit_scope(node)

    def _report_held(self, node: ast.AST, reason: str) -> None:
        held_name, held_line = self._lock_stack[-1]
        self.report(
            node,
            f"{reason} while holding lock '{held_name}' "
            f"(acquired at line {held_line}); move the blocking call "
            f"out of the critical section",
            anchors=(held_line,),
        )

    def visit_With(self, node: ast.With) -> None:
        pushed = 0
        for item in node.items:
            name = lock_name(item.context_expr)
            if name:
                if self._lock_stack:
                    self._report_held(item.context_expr, f"acquires lock '{name}'")
                self._lock_stack.append((name, node.lineno))
                pushed += 1
        self.generic_visit(node)
        for _ in range(pushed):
            self._lock_stack.pop()

    def visit_Call(self, node: ast.Call) -> None:
        if self._lock_stack:
            held = tuple(name for name, _ in self._lock_stack)
            reason = blocking_reason(node, held)
            if reason:
                self._report_held(node, reason)
        self.generic_visit(node)


class UntrackedThreadRule(RuleVisitor):
    rule_id = "RT002"
    description = "thread spawned without name= and daemon="

    def visit_Call(self, node: ast.Call) -> None:
        name = dotted_name(node.func)
        if name in ("threading.Thread", "Thread"):
            kwargs = {kw.arg for kw in node.keywords if kw.arg}
            missing = [k for k in ("name", "daemon") if k not in kwargs]
            if missing:
                self.report(
                    node,
                    f"threading.Thread(...) without {', '.join(f'{m}=' for m in missing)} — "
                    f"unnamed/undaemonised threads defeat the leaked-thread gate",
                )
        self.generic_visit(node)


class DeterminismRule(RuleVisitor):
    rule_id = "SIM001"
    description = "wall clock / unseeded randomness in a determinism-contracted package"

    _PACKAGES = (("repro", "sim"), ("repro", "dl"), ("repro", "experiments"))
    #: numpy.random attributes that are deterministic-safe to *call*
    _NP_RANDOM_OK = {"SeedSequence", "Generator", "PCG64", "Philox"}

    def check(self, ctx):
        if not any(ctx.in_package(*parts) for parts in self._PACKAGES):
            return iter(())
        return super().check(ctx)

    def visit_Call(self, node: ast.Call) -> None:
        name = dotted_name(node.func)
        if name in ("time.time", "time.time_ns"):
            self.report(node, f"'{name}()' — use the simulation clock or perf counters; "
                              f"wall time makes runs irreproducible")
        elif name and (name.startswith("np.random.") or name.startswith("numpy.random.")):
            attr = _terminal(name)
            if attr == "default_rng":
                if not node.args and not node.keywords:
                    self.report(node, "'default_rng()' without a seed — every stochastic "
                                      "component must draw from a seeded stream")
            elif attr not in self._NP_RANDOM_OK:
                self.report(node, f"legacy global-state RNG '{name}()' — use a seeded "
                                  f"np.random.Generator (see repro.sim.rng)")
        elif name and name.startswith("random."):
            self.report(node, f"stdlib global RNG '{name}()' — use a seeded "
                              f"np.random.Generator (see repro.sim.rng)")
        self.generic_visit(node)


class SwallowedThreadExceptionRule(RuleVisitor):
    rule_id = "EXC001"
    description = "broad exception silently swallowed in a thread target"

    def check(self, ctx):
        self._targets = self._thread_targets(ctx.tree)
        self._func_stack: list[str] = []
        return super().check(ctx)

    @staticmethod
    def _thread_targets(tree: ast.Module) -> set[str]:
        """Names of functions passed as ``target=`` to threading.Thread in
        this module (the functions whose exceptions vanish with the thread)."""
        targets: set[str] = set()
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            if dotted_name(node.func) not in ("threading.Thread", "Thread"):
                continue
            for kw in node.keywords:
                if kw.arg == "target":
                    name = dotted_name(kw.value)
                    if name:
                        targets.add(_terminal(name))
        return targets

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._func_stack.append(node.name)
        self.generic_visit(node)
        self._func_stack.pop()

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_ExceptHandler(self, node: ast.ExceptHandler) -> None:
        if self._in_thread_target() and self._is_broad(node.type) and self._is_silent(node.body):
            caught = dotted_name(node.type) if node.type else "everything (bare except)"
            self.report(
                node,
                f"thread target '{self._func_stack[-1]}' swallows {caught} silently — "
                f"a dead worker is invisible; record the error or re-raise",
            )
        self.generic_visit(node)

    def _in_thread_target(self) -> bool:
        return any(f in self._targets for f in self._func_stack)

    @staticmethod
    def _is_broad(exc_type: Optional[ast.expr]) -> bool:
        if exc_type is None:
            return True
        names = exc_type.elts if isinstance(exc_type, ast.Tuple) else [exc_type]
        return any(_terminal(dotted_name(n)) in _BROAD_EXC for n in names)

    @staticmethod
    def _is_silent(body: list[ast.stmt]) -> bool:
        return all(isinstance(stmt, (ast.Pass, ast.Continue)) for stmt in body)


#: the registry of every shipped rule, id-ordered
ALL_RULES = (
    LockHeldWhileBlockingRule,
    UntrackedThreadRule,
    DeterminismRule,
    SwallowedThreadExceptionRule,
)
