"""Project-specific concurrency & determinism tooling.

Two halves, both born from the incidents that dominated the runtime
lifecycle-hardening PRs (stale pooled sockets declaring healthy nodes
dead, thread-per-miss recaching, the contains→read eviction race):

* :mod:`repro.analysis.lint` surface — an AST lint engine
  (:func:`lint_paths`, ``python -m repro.analysis``) with rules that
  catch those hazard *patterns* at review time: lock-held-while-blocking
  (RT001), untracked thread spawns (RT002), determinism violations in
  the simulator/experiment stack (SIM001), and silently swallowed
  exceptions in thread targets (EXC001).
* :mod:`repro.analysis.lockwitness` — lightweight runtime
  instrumentation for named locks that records the per-thread
  lock-acquisition graph while the test suite runs and fails on cycles
  (potential deadlocks) or over-budget hold times.
"""

from __future__ import annotations

from .engine import lint_paths
from .findings import Finding
from .rules import ALL_RULES

__all__ = ["lint_paths", "Finding", "ALL_RULES"]
