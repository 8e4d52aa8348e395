"""Visitor framework: per-module context and the rule/visitor base classes.

Every rule is a :class:`Rule` subclass with a unique ``rule_id``.  AST
rules subclass :class:`RuleVisitor` (an :class:`ast.NodeVisitor` that
walks one module and calls :meth:`RuleVisitor.report`); a rule that
needs no walk overrides :meth:`Rule.check` directly.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional

from .findings import Finding, Suppression, scan_suppressions

__all__ = ["ModuleContext", "Rule", "RuleVisitor", "dotted_name"]


def dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, else None."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        base = dotted_name(node.value)
        return f"{base}.{node.attr}" if base is not None else None
    return None


@dataclass
class ModuleContext:
    """Everything a rule needs to know about one source file."""

    path: str  # as given on the command line / repo-relative, posix slashes
    source: str
    tree: ast.Module
    suppressions: dict[int, Suppression]

    @classmethod
    def parse(cls, path: str, source: str) -> "ModuleContext":
        tree = ast.parse(source, filename=path)
        return cls(
            path=path,
            source=source,
            tree=tree,
            suppressions=scan_suppressions(source),
        )

    def in_package(self, *parts: str) -> bool:
        """True when this file lives under the given package path, e.g.
        ``ctx.in_package("repro", "sim")`` for anything in repro/sim/."""
        needle = "/" + "/".join(parts) + "/"
        return needle in "/" + self.path

    def suppression_for(self, rule: str, lines: Iterable[int]) -> Optional[Suppression]:
        for line in lines:
            sup = self.suppressions.get(line)
            if sup is not None and sup.covers(rule):
                return sup
        return None


class Rule:
    """Base class: one lint rule with a stable id and a description."""

    rule_id: str = ""
    description: str = ""

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        raise NotImplementedError

    def finding(
        self, ctx: ModuleContext, node: ast.AST, message: str, anchors: tuple = ()
    ) -> Finding:
        return Finding(
            rule=self.rule_id,
            path=ctx.path,
            line=getattr(node, "lineno", 0),
            col=getattr(node, "col_offset", 0),
            message=message,
            anchor_lines=tuple(anchors),
        )


class RuleVisitor(Rule, ast.NodeVisitor):
    """AST-walking rule: collect findings during a single :meth:`visit`."""

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        self.ctx = ctx
        self._found: list[Finding] = []
        self.visit(ctx.tree)
        yield from self._found

    def report(self, node: ast.AST, message: str, anchors: tuple = ()) -> None:
        self._found.append(self.finding(self.ctx, node, message, anchors))
