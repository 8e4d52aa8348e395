"""Lint engine: walk files, run rules, apply suppressions, emit findings.

Two rule layers run over the same tree:

* **module rules** (:class:`~.visitor.Rule`) see one file at a time;
* **project rules** (:class:`~.visitor.ProjectRule`) see the whole-tree
  :class:`~.callgraph.CallGraph` — transitive blocking (RT003), resource
  leaks (RES001) and static lock ordering (LOCK001) live here.

Findings from both layers flow through the same suppression machinery:

* a finding whose line (or anchor line, e.g. the ``with`` statement for
  RT001/RT003) carries ``# ftlint: disable=<RULE> -- why`` is silenced;
* a suppression without a justification silences its target but emits
  ``SUP001`` — the tree must never accumulate unexplained escapes;
* a suppression listing a rule that never fired emits ``SUP002``.

:func:`run_lint` is the full pipeline (optional result cache, optional
static lock graph); :func:`lint_paths` / :func:`lint_source` are the
stable thin wrappers the tests and CLI have always used.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Optional, Sequence

from .callgraph import CallGraph
from .findings import Finding
from .visitor import ModuleContext

__all__ = [
    "lint_paths",
    "lint_source",
    "run_lint",
    "collect_files",
    "LintResult",
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


def _default_project_rules() -> tuple:
    # late imports: the project rules import the callgraph/rules modules
    from .interproc import TransitiveBlockingRule
    from .lockgraph import LockOrderRule
    from .registry import CounterRegistryProjectRule
    from .resources import ResourceLeakRule

    return (
        TransitiveBlockingRule,
        ResourceLeakRule,
        LockOrderRule,
        CounterRegistryProjectRule,
    )


def ALL_PROJECT_RULES() -> tuple:
    """The project-rule catalogue (callable to avoid import cycles)."""
    return _default_project_rules()


def _project_rules(project_rule_classes: Optional[Sequence[type]]):
    if project_rule_classes is None:
        project_rule_classes = _default_project_rules()
    return [cls() for cls in project_rule_classes]


@dataclass
class LintResult:
    """Everything one lint run produced."""

    findings: list[Finding] = field(default_factory=list)
    cache_stats: Optional[dict] = None
    lock_graph: Optional[dict] = None


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
    cache=None,
    want_lock_graph: bool = False,
    stats: Iterable = (),
) -> LintResult:
    """Full pipeline over ``(path, source)`` pairs.

    ``cache`` is an :class:`~.cache.AnalysisCache` (or None); ``stats``
    supplies the matching ``os.stat_result`` per file, positionally, for
    the cache's mtime fast path (absent entries fall back to hashing).
    """
    stat_list = list(stats)
    contexts: list[ModuleContext] = []
    raw_by_path: dict[str, list[Finding]] = {}
    file_hashes: dict[str, str] = {}
    orphans: list[Finding] = []  # findings on paths we never parsed

    for i, (path, source) in enumerate(sources):
        posix = path.replace("\\", "/")
        st = stat_list[i] if i < len(stat_list) else None
        if cache is not None and st is not None:
            file_hashes[posix] = cache.file_hash(posix, source, st)
        try:
            ctx = ModuleContext.parse(posix, source)
        except SyntaxError as exc:
            raw_by_path[posix] = [_parse_finding(posix, exc)]
            continue
        contexts.append(ctx)
        module_findings = None
        if cache is not None and posix in file_hashes:
            module_findings = cache.get_module_findings(posix, file_hashes[posix])
        if module_findings is None:
            module_findings = []
            for rule in _rules(rule_classes):
                module_findings.extend(rule.check(ctx))
            if cache is not None and posix in file_hashes and st is not None:
                cache.put_module_findings(
                    posix, file_hashes[posix], st, module_findings
                )
        raw_by_path[posix] = module_findings

    # -- project layer: one call graph, all interprocedural rules over it
    project_findings: Optional[list[Finding]] = None
    project_key = None
    if cache is not None and file_hashes and not want_lock_graph:
        project_key = cache.project_key(file_hashes)
        project_findings = cache.get_project_findings(project_key)
    graph: Optional[CallGraph] = None
    if project_findings is None or want_lock_graph:
        graph = CallGraph(contexts)
    if project_findings is None:
        project_findings = []
        for prule in _project_rules(project_rule_classes):
            project_findings.extend(prule.check_project(graph))
        if cache is not None and file_hashes:
            if project_key is None:
                project_key = cache.project_key(file_hashes)
            cache.put_project_findings(project_key, project_findings)
    for f in project_findings:
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

    result = LintResult(findings=kept)
    if cache is not None:
        cache.save()
        result.cache_stats = dict(cache.stats)
    if want_lock_graph and graph is not None:
        from .lockgraph import build_static_lock_graph

        result.lock_graph = build_static_lock_graph(graph)
    return result


def lint_source(
    path: str,
    source: str,
    rule_classes: Optional[Sequence[type]] = None,
    project_rule_classes: Optional[Sequence[type]] = None,
) -> list[Finding]:
    """Lint one in-memory module; ``path`` scopes path-sensitive rules.

    Project rules run too, over the single-module call graph — so the
    intraprocedural slices of RT003/RES001 behave identically
    whether a file is linted alone or as part of the tree.
    """
    return run_lint([(path, source)], rule_classes, project_rule_classes).findings


def lint_paths(
    paths: Iterable[str | Path],
    rule_classes: Optional[Sequence[type]] = None,
    project_rule_classes: Optional[Sequence[type]] = None,
    cache=None,
) -> list[Finding]:
    """Lint every ``*.py`` under ``paths``; returns sorted findings."""
    return run_lint_paths(paths, rule_classes, project_rule_classes, cache).findings


def run_lint_paths(
    paths: Iterable[str | Path],
    rule_classes: Optional[Sequence[type]] = None,
    project_rule_classes: Optional[Sequence[type]] = None,
    cache=None,
    want_lock_graph: bool = False,
) -> LintResult:
    files = collect_files(paths)
    sources = []
    stats = []
    for f in files:
        sources.append((f.as_posix(), f.read_text()))
        stats.append(f.stat())
    return run_lint(
        sources,
        rule_classes,
        project_rule_classes,
        cache=cache,
        want_lock_graph=want_lock_graph,
        stats=stats,
    )
