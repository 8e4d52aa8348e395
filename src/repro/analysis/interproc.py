"""RT003 — transitive lock-held-blocking.

RT001 only sees a blocking primitive written *textually* inside a
``with <lock>:`` body.  This rule closes the helper-call gap: each
project function gets a *blocking summary* — the set of blocking
primitives it can reach through project-local calls, each carrying the
shortest witnessing call chain — computed bottom-up over the call graph
with :func:`solve_summaries`.  Acquiring a lock counts as a blocking
primitive ("acquires lock 'X'"): every lock is a leaf, so a helper that
takes a lock must not be called under another.  A call made while a
lock is held whose callee has a non-empty summary is flagged, and the
finding prints the chain down to the primitive, e.g.::

    RT003 call 'self._helper()' while holding lock 'self._lock' can
    block: _helper (client.py:80) -> send_binary_request (protocol.py:60):
    socket I/O 'sock.sendall()' (protocol.py:64)

Precision notes (documented so suppressions can argue with them):

* calls RT001 already flags (directly blocking at the call site) are
  skipped — one finding per hazard;
* nested ``def``/``lambda`` bodies contribute nothing to the enclosing
  function's summary (they run at call time, usually on another thread);
* ``cond.wait()`` on a condition the *same function* visibly holds is
  the release-and-wait idiom and stays out of that function's summary —
  but a helper that waits on its own condition still blocks its caller,
  so the fact survives when the ``with`` is in a different function;
* virtual dispatch is a union: if any override's summary blocks, the
  call is flagged (the chain names the override that blocks).
"""

from __future__ import annotations

import ast
from typing import Callable, Dict, Hashable, Iterable, List, Tuple, TypeVar

from .callgraph import CallGraph, CallSite, FunctionInfo
from .findings import Finding
from .rules import blocking_reason, lock_name
from .visitor import ProjectRule

F = TypeVar("F", bound=Hashable)  # a function identifier

#: One interprocedural fact with its witness chain: a tuple of
#: ``(display_name, path, line)`` steps, outermost call first, ending at
#: the primitive that grounds the fact.
ChainFact = Tuple[Tuple[str, str, int], ...]


def join_chain_facts(
    acc: Dict[str, ChainFact], new: Dict[str, ChainFact]
) -> Tuple[Dict[str, ChainFact], bool]:
    """Union fact keys, keeping the shortest witness chain per key.

    Returns the merged dict and whether anything changed.  Preferring the
    shortest chain makes the fixpoint monotone (chains only ever shrink)
    and the reported chains readable.
    """
    changed = False
    out = dict(acc)
    for key, chain in new.items():
        old = out.get(key)
        if old is None or len(chain) < len(old):
            out[key] = chain
            changed = old is None or chain != old
    return out, changed


def solve_summaries(
    functions: Iterable[F],
    callers_of: Callable[[F], Iterable[Tuple[F, Tuple[str, str, int]]]],
    direct: Callable[[F], Dict[str, ChainFact]],
    max_chain: int = 12,
) -> Dict[F, Dict[str, ChainFact]]:
    """Bottom-up chain-fact summaries over the call graph.

    ``direct(f)`` yields the facts ``f`` establishes itself (chain of
    length 1).  ``callers_of(g)`` yields ``(f, step)`` pairs: ``f`` calls
    ``g`` and ``step = (display, path, line)`` describes that call site.
    Whenever ``g``'s summary grows, every caller re-joins ``g``'s facts
    prefixed with the call-site step; chains are capped at ``max_chain``
    steps to bound pathological recursion output (the fact itself still
    propagates — only the printed chain is truncated).  Recursion is
    handled by iterating to fixpoint rather than by topological order;
    the lattice is finite and chains only shrink, so it terminates.
    """
    funcs = list(functions)
    summary: Dict[F, Dict[str, ChainFact]] = {f: dict(direct(f)) for f in funcs}
    work = [f for f in funcs if summary[f]]
    in_work = set(work)
    while work:
        g = work.pop()
        in_work.discard(g)
        g_facts = summary[g]
        for f, step in callers_of(g):
            if f not in summary:
                continue
            lifted = {
                key: ((step, *chain) if len(chain) < max_chain else (step, *chain[: max_chain - 1]))
                for key, chain in g_facts.items()
            }
            merged, changed = join_chain_facts(summary[f], lifted)
            if changed:
                summary[f] = merged
                if f not in in_work:
                    work.append(f)
                    in_work.add(f)
    return summary


def _short(path: str) -> str:
    return path.rsplit("/", 1)[-1]


def format_chain(chain: ChainFact) -> str:
    """``step (file:line) -> ... -> primitive (file:line)`` for a finding."""
    return " -> ".join(f"{display} ({_short(path)}:{line})" for display, path, line in chain)


def _walk_with_locks(func_node: ast.AST):
    """Yield ``(node, held_locks)`` for every node in the function body,
    tracking ``with <lock>:`` nesting; nested def/lambda bodies skipped.

    ``held_locks`` is a tuple of ``(dotted_name, with_lineno)`` pairs,
    outermost first.
    """
    def visit(node: ast.AST, held: Tuple[Tuple[str, int], ...]):
        yield node, held
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            return  # nested bodies run at call time, not under this lock
        if isinstance(node, (ast.With, ast.AsyncWith)):
            inner = held
            for item in node.items:
                # item i's context expression evaluates with items < i held
                for sub in ast.iter_child_nodes(item):
                    yield from visit(sub, inner)
                ln = lock_name(item.context_expr)
                if ln:
                    inner = inner + ((ln, node.lineno),)
            for stmt in node.body:
                yield from visit(stmt, inner)
            return
        for child in ast.iter_child_nodes(node):
            yield from visit(child, held)

    for top in ast.iter_child_nodes(func_node):
        yield from visit(top, ())


def direct_blocking_facts(fi: FunctionInfo) -> Dict[str, ChainFact]:
    """The blocking primitives ``fi`` itself performs — calls that block
    and locks it acquires — keyed by reason."""
    facts: Dict[str, ChainFact] = {}
    for node, held in _walk_with_locks(fi.node):
        if isinstance(node, ast.Call):
            reasons = [blocking_reason(node, tuple(name for name, _ in held))]
        elif isinstance(node, (ast.With, ast.AsyncWith)):
            names = (lock_name(item.context_expr) for item in node.items)
            reasons = [f"acquires lock '{name}'" for name in names if name]
        else:
            continue
        for reason in reasons:
            if reason and reason not in facts:
                facts[reason] = ((reason, fi.path, node.lineno),)
    return facts


def blocking_summaries(graph: CallGraph) -> Dict[str, Dict[str, ChainFact]]:
    """Per-function blocking summaries over the whole project."""
    callers: Dict[str, List[Tuple[str, Tuple[str, str, int]]]] = {}
    for caller, sites in graph.calls.items():
        cpath = graph.functions[caller].path
        for site in sites:
            for callee in site.callees:
                fi = graph.functions.get(callee)
                display = fi.display if fi else callee
                callers.setdefault(callee, []).append(
                    (caller, (display, cpath, site.line))
                )

    direct = {qn: direct_blocking_facts(fi) for qn, fi in graph.functions.items()}
    return solve_summaries(
        graph.functions.keys(),
        lambda g: callers.get(g, ()),
        lambda f: direct[f],
    )


class TransitiveBlockingRule(ProjectRule):
    rules = (
        ("RT003", "call chain that blocks while a lock is held"),
    )

    #: how many distinct blocking facts to print per flagged call
    MAX_FACTS = 3

    def check_project(self, graph: CallGraph) -> Iterable[Finding]:
        summaries = blocking_summaries(graph)
        for qn, fi in graph.functions.items():
            sites = {id(cs.node): cs for cs in graph.callees_of(qn)}
            yield from self._check_function(fi, sites, summaries)

    def _check_function(
        self,
        fi: FunctionInfo,
        sites: Dict[int, CallSite],
        summaries: Dict[str, Dict[str, ChainFact]],
    ) -> Iterable[Finding]:
        for node, held in _walk_with_locks(fi.node):
            if not isinstance(node, ast.Call) or not held:
                continue
            held_names = tuple(name for name, _ in held)
            if blocking_reason(node, held_names) is not None:
                continue  # RT001's finding; do not double-report
            site = sites.get(id(node))
            if site is None:
                continue
            facts: Dict[str, ChainFact] = {}
            for callee in site.callees:
                for reason, chain in summaries.get(callee, {}).items():
                    old = facts.get(reason)
                    if old is None or len(chain) < len(old):
                        facts[reason] = chain
            if not facts:
                continue
            lock_name, lock_line = held[-1]
            shown = sorted(facts.items(), key=lambda kv: (len(kv[1]), kv[0]))
            chains = "; ".join(
                format_chain(chain) for _, chain in shown[: self.MAX_FACTS]
            )
            more = len(shown) - self.MAX_FACTS
            suffix = f" (+{more} more)" if more > 0 else ""
            yield Finding(
                rule="RT003",
                path=fi.path,
                line=node.lineno,
                col=node.col_offset,
                message=(
                    f"call '{site.call_text}()' while holding lock '{lock_name}' "
                    f"(acquired at line {lock_line}) can block: {chains}{suffix}; "
                    f"move the call out of the critical section or suppress with "
                    f"a -- justification"
                ),
                anchor_lines=(lock_line,),
            )
