"""Static lock-acquisition-order graph: extraction, LOCK001 cycle
detection, and the cross-check against the runtime witness report."""

from __future__ import annotations

import textwrap

from repro.analysis.callgraph import CallGraph
from repro.analysis.engine import run_lint
from repro.analysis.lockgraph import (
    build_static_lock_graph,
    compare_with_runtime,
    find_sccs,
)
from repro.analysis.visitor import ModuleContext

PATH = "src/repro/runtime/locks_snippet.py"


def graph_of(modules: dict) -> CallGraph:
    ctxs = [ModuleContext.parse(p, textwrap.dedent(s)) for p, s in modules.items()]
    return CallGraph(ctxs)


def lint_project(modules: dict):
    return run_lint([(p, textwrap.dedent(s)) for p, s in modules.items()]).findings


NESTED = """
    from repro.analysis.lockwitness import named_lock

    a_lock = named_lock("role-a")
    b_lock = named_lock("role-b")

    def f():
        with a_lock:
            with b_lock:
                pass
"""


class TestStaticGraph:
    def test_nested_with_produces_role_edge(self):
        static = build_static_lock_graph(graph_of({PATH: NESTED}))
        edges = {(e["from"], e["to"]) for e in static["edges"]}
        assert ("role-a", "role-b") in edges
        assert static["cycles"] == []
        assert set(static["roles"]) >= {"role-a", "role-b"}

    def test_edge_through_callee_recorded_with_via_chain(self):
        code = NESTED + """
    def grab_a():
        with a_lock:
            pass

    def g():
        with b_lock:
            grab_a()
"""
        static = build_static_lock_graph(graph_of({PATH: code}))
        rev = [e for e in static["edges"] if (e["from"], e["to"]) == ("role-b", "role-a")]
        assert rev and "a_lock" in rev[0]["via"]  # the witness acquisition site
        # both orders now exist: the cycle is visible statically
        assert ["role-a", "role-b"] in static["cycles"]

    def test_lock001_finding_names_cycle_and_sites(self):
        code = NESTED + """
    def grab_a():
        with a_lock:
            pass

    def g():
        with b_lock:
            grab_a()
"""
        findings = [f for f in lint_project({PATH: code}) if f.rule == "LOCK001"]
        assert findings, "static cycle must surface as LOCK001"
        msg = findings[0].message
        assert "role-a" in msg and "role-b" in msg

    def test_acyclic_tree_has_no_lock001(self):
        findings = [f for f in lint_project({PATH: NESTED}) if f.rule == "LOCK001"]
        assert findings == []


class TestSccs:
    def test_two_node_cycle_found(self):
        assert find_sccs({"x": {"y"}, "y": {"x"}}) == [["x", "y"]]

    def test_dag_has_none(self):
        assert find_sccs({"x": {"y"}, "y": set()}) == []


class TestRuntimeCrossCheck:
    def test_combined_only_cycle_detected(self):
        # each side alone is acyclic; the union deadlocks — the silent
        # gap the conftest session gate exists to close
        static = {"edges": [{"from": "x", "to": "y", "site": "s.py:1", "via": ""}]}
        runtime = {"edges": [{"from": "y", "to": "x", "thread": "t", "site": "r.py:2"}]}
        cmp = compare_with_runtime(static, runtime)
        assert cmp["static_cycles"] == [] and cmp["runtime_cycles"] == []
        assert cmp["combined_cycles"] == [["x", "y"]]

    def test_agreeing_graphs_have_no_combined_cycle(self):
        static = {"edges": [{"from": "x", "to": "y", "site": "s.py:1", "via": ""}]}
        runtime = {"edges": [{"from": "x", "to": "y", "thread": "t", "site": "r.py:2"}]}
        cmp = compare_with_runtime(static, runtime)
        assert cmp["combined_cycles"] == []
        assert cmp["static_only_edges"] == [] and cmp["runtime_only_edges"] == []

    def test_unnamed_static_roles_excluded(self):
        # '?name' roles are invisible to the runtime witness; they must
        # not manufacture cross-check cycles
        static = {
            "edges": [
                {"from": "?m", "to": "x", "site": "s.py:1", "via": ""},
                {"from": "x", "to": "?m", "site": "s.py:2", "via": ""},
            ]
        }
        cmp = compare_with_runtime(static, {"edges": []})
        assert cmp["static_cycles"] == [] and cmp["combined_cycles"] == []

    def test_real_tree_static_graph_matches_known_shape(self):
        # the shipped runtime nests no named lock inside another: the
        # install path books its claim and bumps server stats one lock at
        # a time
        import pathlib

        from repro.analysis.engine import collect_files

        src = pathlib.Path(__file__).resolve().parents[2] / "src" / "repro" / "runtime"
        ctxs = [
            ModuleContext.parse(f.as_posix(), f.read_text())
            for f in collect_files([src])
        ]
        static = build_static_lock_graph(CallGraph(ctxs))
        assert static["cycles"] == []
        assert static["edges"] == []
