"""Lint engine: walk files, run rules, apply suppressions, emit findings.

Every rule (:class:`~.visitor.Rule`) sees one file at a time; a blocking
call reached through a call chain under a lock is the runtime lock
witness's to catch (:mod:`~.lockwitness`), not the linter's.  Findings
flow through one suppression machinery:

* a finding whose line (or anchor line, e.g. the ``with`` statement for
  RT001) carries ``# ftlint: disable=<RULE> -- why`` is silenced;
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

from .findings import Finding
from .visitor import ModuleContext

__all__ = [
    "lint_paths",
    "lint_source",
    "run_lint",
    "collect_files",
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
) -> list[Finding]:
    """Full pipeline over ``(path, source)`` pairs; returns sorted findings."""
    kept: list[Finding] = []
    for path, source in sources:
        posix = path.replace("\\", "/")
        try:
            ctx = ModuleContext.parse(posix, source)
        except SyntaxError as exc:
            kept.append(_parse_finding(posix, exc))  # nothing to suppress
            continue
        raw = [f for rule in _rules(rule_classes) for f in rule.check(ctx)]
        kept.extend(_apply_suppressions(ctx, raw))
    kept.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return kept


def lint_source(
    path: str,
    source: str,
    rule_classes: Optional[Sequence[type]] = None,
) -> list[Finding]:
    """Lint one in-memory module; ``path`` scopes path-sensitive rules.
    A file gets the same findings alone as within its tree."""
    return run_lint([(path, source)], rule_classes)


def lint_paths(
    paths: Iterable[str | Path],
    rule_classes: Optional[Sequence[type]] = None,
) -> list[Finding]:
    """Lint every ``*.py`` under ``paths``; returns sorted findings."""
    sources = [(f.as_posix(), f.read_text()) for f in collect_files(paths)]
    return run_lint(sources, rule_classes)
