"""Project-specific concurrency & determinism tooling.

Two halves, both born from the incidents that dominated the runtime
lifecycle-hardening PRs (stale pooled sockets declaring healthy nodes
dead, thread-per-miss recaching, the contains→read eviction race):

* :mod:`repro.analysis.lint` surface — an AST lint engine
  (:func:`lint_paths`, ``python -m repro.analysis``) with rules that
  catch those hazard *patterns* at review time, one module at a time:
  a blocking call written under a lock (RT001 — acquiring a lock counts
  as blocking, since every named lock is a leaf), untracked thread
  spawns (RT002), determinism violations in the simulator/experiment
  stack (SIM001), and silently swallowed exceptions in thread targets
  (EXC001).
* :mod:`repro.analysis.lockwitness` — lightweight runtime
  instrumentation for named locks that, while the test suite runs,
  fails on any nested acquisition (a named lock taken while another is
  held), on any blocking primitive called under a named lock through
  any call chain, or on an over-budget hold time.

The lint names below resolve on first use: the runtime imports
``lockwitness`` without loading the linter.
"""

from __future__ import annotations

from .._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    ".engine": ("lint_paths",),
    ".findings": ("Finding",),
    ".rules": ("ALL_RULES",),
})

__all__ = ["lint_paths", "Finding", "ALL_RULES"]
