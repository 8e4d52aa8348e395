"""Call-graph construction tests — the substrate the interprocedural
rule stands on, tested directly so a rule regression can be bisected to
either extraction or analysis."""

from __future__ import annotations

import textwrap

from repro.analysis.callgraph import CallGraph
from repro.analysis.visitor import ModuleContext


def graph_of(modules: dict) -> CallGraph:
    ctxs = [ModuleContext.parse(p, textwrap.dedent(s)) for p, s in modules.items()]
    return CallGraph(ctxs)


def fn(graph: CallGraph, suffix: str):
    hits = [fi for q, fi in graph.functions.items() if q.endswith(suffix)]
    assert len(hits) == 1, f"{suffix!r} matched {len(hits)} functions"
    return hits[0]


def callee_names(graph: CallGraph, suffix: str) -> set:
    out = set()
    for site in graph.callees_of(fn(graph, suffix).qualname):
        out.update(site.callees)
    return out


class TestCallGraph:
    def test_module_functions_and_methods_indexed(self):
        g = graph_of(
            {
                "src/pkg/mod.py": """
                def top():
                    pass

                class C:
                    def m(self):
                        pass
                """
            }
        )
        assert any(q.endswith(":top") for q in g.functions)
        assert any(q.endswith(":C.m") for q in g.functions)

    def test_self_dispatch_resolves_to_own_method(self):
        g = graph_of(
            {
                "src/pkg/mod.py": """
                class C:
                    def a(self):
                        self.b()

                    def b(self):
                        pass
                """
            }
        )
        assert fn(g, ":C.b").qualname in callee_names(g, ":C.a")

    def test_cross_module_from_import_resolves(self):
        g = graph_of(
            {
                "src/pkg/util.py": """
                def helper():
                    pass
                """,
                "src/pkg/app.py": """
                from .util import helper

                def f():
                    helper()
                """,
            }
        )
        assert fn(g, "util:helper").qualname in callee_names(g, "app:f")

    def test_virtual_dispatch_includes_subclass_overrides(self):
        g = graph_of(
            {
                "src/pkg/mod.py": """
                class Base:
                    def run(self):
                        self.step()

                    def step(self):
                        pass

                class Sub(Base):
                    def step(self):
                        pass
                """
            }
        )
        callees = callee_names(g, ":Base.run")
        assert fn(g, ":Base.step").qualname in callees
        assert fn(g, ":Sub.step").qualname in callees

    def test_attribute_type_inferred_from_init(self):
        g = graph_of(
            {
                "src/pkg/mod.py": """
                class Worker:
                    def run(self):
                        pass

                class Owner:
                    def __init__(self):
                        self.worker = Worker()

                    def go(self):
                        self.worker.run()
                """
            }
        )
        assert fn(g, ":Worker.run").qualname in callee_names(g, ":Owner.go")

    def test_nested_def_bodies_are_not_caller_edges(self):
        # a closure body runs at *call* time, often on another thread —
        # its calls must not count as edges of the enclosing function
        g = graph_of(
            {
                "src/pkg/mod.py": """
                def helper():
                    pass

                def f():
                    def closure():
                        helper()
                    return closure
                """
            }
        )
        assert fn(g, ":helper").qualname not in callee_names(g, ":f")
