"""RES001 — socket/file handle must be closed on *every* path.

A CFG-based may-leak analysis scoped to ``repro.runtime`` (the package
that owns real sockets and spill files).
For each local variable bound directly from an acquiring call —
``open(...)``, ``socket.socket(...)``, ``socket.create_connection(...)``
— a forward boolean dataflow ("may this variable hold an open resource
here?") runs over the function's CFG, exception edges included:

* the acquiring assignment sets the state on its *normal* out-edge only
  (if the call raises, the binding never happened);
* ``v.close()`` clears it on both edges (a close is assumed committed);
* rebinding ``v`` clears it (the old object is dropped — if the new
  value is itself an acquisition the state is set again);
* a ``True`` entering EXIT is a leak on a normal return path, a ``True``
  entering RAISE is a leak on an exception path — ``with`` blocks and
  ``try/finally`` close both.

Escape hatch, not loophole: a variable that *escapes* the function —
returned, yielded, passed as a call argument, stored into an attribute,
container, or tuple, or aliased — transfers ownership somewhere this
function-local analysis cannot see, so it is not tracked (the pooled
connections in ``FTCacheClient._checkout`` hand their socket to
``_PooledConn`` and stay out of scope by exactly this rule).  A bare
``open(...)`` expression statement whose handle is bound to nothing is
reported directly.  ``with open(...) as f`` never acquires in this
analysis — the context manager owns the close.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, List, Optional, Set, Tuple

from .callgraph import CallGraph, FunctionInfo, iter_scope
from .cfg import EXIT, RAISE, build_cfg
from .dataflow import solve_forward
from .findings import Finding
from .visitor import ProjectRule, dotted_name

#: call names whose result is an OS resource needing close()
_ACQUIRE_NAMES = {
    "open",
    "socket",
    "socket.socket",
    "create_connection",
    "socket.create_connection",
}
_CLOSE_ATTRS = {"close"}
_PACKAGES = (("repro", "runtime"),)


def _is_acquire(call: ast.Call) -> Optional[str]:
    name = dotted_name(call.func)
    if name in _ACQUIRE_NAMES:
        return name
    return None


def _parent_map(func_node: ast.AST) -> Dict[int, ast.AST]:
    parents: Dict[int, ast.AST] = {}
    stack = [func_node]
    while stack:
        node = stack.pop()
        for child in ast.iter_child_nodes(node):
            parents[id(child)] = node
            if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                stack.append(child)
    return parents


def _acquisitions(func_node: ast.AST) -> Tuple[Dict[str, List[ast.stmt]], List[ast.Call]]:
    """``var → acquiring Assign statements`` plus bare discarded acquires."""
    by_var: Dict[str, List[ast.stmt]] = {}
    discarded: List[ast.Call] = []
    for node in iter_scope(func_node):
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Call):
            if _is_acquire(node.value) and len(node.targets) == 1:
                tgt = node.targets[0]
                if isinstance(tgt, ast.Name):
                    by_var.setdefault(tgt.id, []).append(node)
                # non-Name targets store the handle somewhere visible
                # elsewhere (attribute/subscript) — ownership escapes
        elif isinstance(node, ast.Expr) and isinstance(node.value, ast.Call):
            if _is_acquire(node.value):
                discarded.append(node.value)
    return by_var, discarded


def _escapes(func_node: ast.AST, var: str, acquire_stmts: List[ast.stmt]) -> bool:
    """True when ``var`` leaves this function's custody: any Load use
    that is not the receiver of an attribute access."""
    parents = _parent_map(func_node)
    acquire_ids = {id(s) for s in acquire_stmts}
    for node in iter_scope(func_node):
        if not (isinstance(node, ast.Name) and node.id == var):
            continue
        if not isinstance(node.ctx, ast.Load):
            continue
        parent = parents.get(id(node))
        if isinstance(parent, ast.Attribute) and parent.value is node:
            continue  # v.close(), v.recv(), v.settimeout() — custody retained
        if id(parent) in acquire_ids:
            continue
        return True
    return False


def _stmt_effect(stmt: Optional[ast.stmt], role: str, var: str) -> Optional[str]:
    """"acquire" | "close" | "drop" | None for one CFG node w.r.t. var."""
    if stmt is None or role != "stmt":
        return None
    if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
        tgt = stmt.targets[0]
        if isinstance(tgt, ast.Name) and tgt.id == var:
            if isinstance(stmt.value, ast.Call) and _is_acquire(stmt.value):
                return "acquire"
            return "drop"
    for node in ast.walk(stmt):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in _CLOSE_ATTRS
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id == var
        ):
            return "close"
    return None


class ResourceLeakRule(ProjectRule):
    rules = (
        ("RES001", "socket/file handle not closed on all paths (incl. exceptions)"),
    )

    def check_project(self, graph: CallGraph) -> Iterable[Finding]:
        for fi in graph.functions.values():
            ctx = graph.context_for(fi.path)
            if ctx is None or not any(ctx.in_package(*p) for p in _PACKAGES):
                continue
            yield from self._check_function(fi)

    def _check_function(self, fi: FunctionInfo) -> Iterable[Finding]:
        by_var, discarded = _acquisitions(fi.node)
        for call in discarded:
            yield Finding(
                rule="RES001",
                path=fi.path,
                line=call.lineno,
                col=call.col_offset,
                message=(
                    f"'{dotted_name(call.func)}(...)' result discarded — the "
                    f"handle can never be closed; bind it and close it, or use 'with'"
                ),
            )
        if not by_var:
            return
        cfg = build_cfg(fi.node)
        for var, stmts in by_var.items():
            if _escapes(fi.node, var, stmts):
                continue
            effects = {
                nid: _stmt_effect(n.stmt, n.role, var) for nid, n in cfg.nodes.items()
            }
            acquire_nodes: Set[int] = {
                nid for nid, n in cfg.nodes.items()
                if n.stmt in stmts and n.role == "stmt"
            }

            def transfer(nid: int, st: bool) -> bool:
                eff = effects.get(nid)
                if eff == "acquire":
                    return True
                if eff in ("close", "drop"):
                    return False
                return st

            def exc_transfer(nid: int, st: bool) -> bool:
                if nid in acquire_nodes:
                    return st  # the call raised — the binding never happened
                return transfer(nid, st)

            states = solve_forward(
                cfg, init=False, bottom=False,
                transfer=transfer, join=lambda a, b: a or b,
                exc_transfer=exc_transfer,
            )
            exit_leak = states.get(EXIT, False)
            raise_leak = states.get(RAISE, False)
            if not exit_leak and not raise_leak:
                continue
            paths = {
                (True, True): "on normal return and exception paths",
                (True, False): "on a normal return path",
                (False, True): "on an exception path",
            }[(exit_leak, raise_leak)]
            first = stmts[0]
            yield Finding(
                rule="RES001",
                path=fi.path,
                line=first.lineno,
                col=first.col_offset,
                message=(
                    f"resource '{var}' acquired here may never be closed "
                    f"{paths}; close it in a finally or use 'with'"
                ),
            )
