"""Lint engine: walk files, run rules, apply suppressions, emit findings.

Two rule layers run over the same tree:

* **module rules** (:class:`~.visitor.Rule`) see one file at a time;
* **project rules** (:class:`~.visitor.ProjectRule`) see the whole-tree
  :class:`~.callgraph.CallGraph` — transitive blocking (RT003) lives here.

Findings from both layers flow through the same suppression machinery:

* a finding whose line (or anchor line, e.g. the ``with`` statement for
  RT001/RT003) carries ``# ftlint: disable=<RULE> -- why`` is silenced;
* a suppression without a justification silences its target but emits
  ``SUP001`` — the tree must never accumulate unexplained escapes;
* a suppression listing a rule that never fired emits ``SUP002``.

:func:`run_lint` is the full pipeline over in-memory sources;
:func:`lint_paths` / :func:`lint_source` are the thin wrappers the tests
and CLI use.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable, Optional, Sequence

from .callgraph import CallGraph
from .findings import Finding
from .interproc import TransitiveBlockingRule
from .visitor import ModuleContext

__all__ = [
    "lint_paths",
    "lint_source",
    "run_lint",
    "collect_files",
    "ALL_PROJECT_RULES",
]

_SKIP_DIRS = {"__pycache__", ".git", ".venv", "build", "dist"}


def collect_files(paths: Iterable[str | Path]) -> list[Path]:
    files: list[Path] = []
    seen: set[str] = set()
    for raw in paths:
        p = Path(raw)
        if p.is_dir():
            candidates: Iterable[Path] = (
                f for f in sorted(p.rglob("*.py"))
                if not any(part in _SKIP_DIRS for part in f.parts)
            )
        elif p.suffix == ".py":
            candidates = (p,)
        else:
            continue
        for f in candidates:
            key = f.as_posix()
            if key not in seen:
                seen.add(key)
                files.append(f)
    return files


def _rules(rule_classes: Optional[Sequence[type]]):
    if rule_classes is None:
        from .rules import ALL_RULES  # late import: rules import the visitor base

        rule_classes = ALL_RULES
    return [cls() for cls in rule_classes]


#: the project-rule catalogue
ALL_PROJECT_RULES = (TransitiveBlockingRule,)


def _project_rules(project_rule_classes: Optional[Sequence[type]]):
    if project_rule_classes is None:
        project_rule_classes = ALL_PROJECT_RULES
    return [cls() for cls in project_rule_classes]


def _parse_finding(posix: str, exc: SyntaxError) -> Finding:
    return Finding(
        rule="PARSE",
        path=posix,
        line=exc.lineno or 0,
        col=exc.offset or 0,
        message=f"syntax error: {exc.msg}",
    )


def _apply_suppressions(ctx: ModuleContext, raw: Iterable[Finding]) -> list[Finding]:
    """Silence suppressed findings for one file; add SUP001/SUP002."""
    kept: list[Finding] = []
    for f in raw:
        sup = ctx.suppression_for(f.rule, (f.line, *f.anchor_lines))
        if sup is None:
            kept.append(f)
        else:
            sup.mark_used(f.rule)

    for sup in ctx.suppressions.values():
        if sup.used_rules and not (sup.justification and sup.justification.strip()):
            kept.append(
                Finding(
                    rule="SUP001",
                    path=ctx.path,
                    line=sup.line,
                    message=f"suppression of {sorted(sup.used_rules)} without a "
                    f"'-- justification' — explain why the hazard does not apply",
                )
            )
        for rule_id in sup.unused_rules:
            kept.append(
                Finding(
                    rule="SUP002",
                    path=ctx.path,
                    line=sup.line,
                    message=f"useless suppression: {rule_id} does not fire here "
                    f"(stale comments hide future regressions — remove it)",
                )
            )
    return kept


def run_lint(
    sources: Iterable[tuple[str, str]],
    rule_classes: Optional[Sequence[type]] = None,
    project_rule_classes: Optional[Sequence[type]] = None,
) -> list[Finding]:
    """Full pipeline over ``(path, source)`` pairs; returns sorted findings."""
    contexts: list[ModuleContext] = []
    raw_by_path: dict[str, list[Finding]] = {}
    orphans: list[Finding] = []  # findings on paths we never parsed

    for path, source in sources:
        posix = path.replace("\\", "/")
        try:
            ctx = ModuleContext.parse(posix, source)
        except SyntaxError as exc:
            raw_by_path[posix] = [_parse_finding(posix, exc)]
            continue
        contexts.append(ctx)
        raw_by_path[posix] = [f for rule in _rules(rule_classes) for f in rule.check(ctx)]

    # -- project layer: one call graph, all interprocedural rules over it
    graph = CallGraph(contexts)
    for prule in _project_rules(project_rule_classes):
        for f in prule.check_project(graph):
            if f.path in raw_by_path:
                raw_by_path[f.path].append(f)
            else:
                orphans.append(f)

    ctx_by_path = {ctx.path: ctx for ctx in contexts}
    kept: list[Finding] = list(orphans)
    for posix, raw in raw_by_path.items():
        ctx = ctx_by_path.get(posix)
        if ctx is None:
            kept.extend(raw)  # unparseable file: PARSE finding, nothing to suppress
        else:
            kept.extend(_apply_suppressions(ctx, raw))
    kept.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return kept


def lint_source(
    path: str,
    source: str,
    rule_classes: Optional[Sequence[type]] = None,
    project_rule_classes: Optional[Sequence[type]] = None,
) -> list[Finding]:
    """Lint one in-memory module; ``path`` scopes path-sensitive rules.

    Project rules run too, over the single-module call graph — so the
    intraprocedural slice of RT003 behaves identically whether a file is
    linted alone or as part of the tree.
    """
    return run_lint([(path, source)], rule_classes, project_rule_classes)


def lint_paths(
    paths: Iterable[str | Path],
    rule_classes: Optional[Sequence[type]] = None,
    project_rule_classes: Optional[Sequence[type]] = None,
) -> list[Finding]:
    """Lint every ``*.py`` under ``paths``; returns sorted findings."""
    sources = [(f.as_posix(), f.read_text()) for f in collect_files(paths)]
    return run_lint(sources, rule_classes, project_rule_classes)
