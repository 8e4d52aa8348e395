"""Runtime lock witness: every named lock is a leaf.

The runtime's locks are created through :func:`named_lock`.  When the
witness is disabled (the default outside the test suite) it returns a
plain ``threading.Lock`` — zero overhead.  When enabled (the conftest
fixture turns it on for every pytest run) each lock is wrapped so that,
per thread, the witness records:

* **nestings**: the runtime's one lock invariant is that a named lock is
  never acquired while another is held.  An attempt to acquire lock-role
  ``B`` while holding ``A`` is recorded as ``(held roles, B, site)`` —
  kept once per distinct triple, with a count — at the *attempt*, before
  potentially blocking.  A lock that never nests cannot take part in a
  deadlock, so no ordering graph is needed: the first nesting is the
  violation, whether or not a schedule that deadlocks ever fired.  Two
  instances of one role nested are a nesting too, and re-acquiring the
  *same* instance is flagged as a guaranteed self-deadlock.
* **hold budgets**: a lock held longer than ``hold_budget`` seconds is
  reported with its release site.  Long holds are the latency amplifier
  behind lock-convoy cliffs (and the dynamic twin of the RT001 lint
  rule).

The static twin of the nesting check is RT001 (a ``with <lock>:`` inside
a held lock) plus RT003 (a call under a lock whose callee takes a lock).
"""

from __future__ import annotations

import sys
import threading
import time
from typing import Optional

__all__ = [
    "LockWitness",
    "LockOrderViolation",
    "named_lock",
    "enable",
    "disable",
    "is_enabled",
    "report",
    "reset",
    "assert_clean",
]

_THIS_FILE = __file__

#: cap per-category evidence so a pathological run cannot eat memory
_MAX_RECORDS = 50


class LockOrderViolation(AssertionError):
    """Raised by :func:`assert_clean` when the witness saw a hazard."""


def _call_site() -> str:
    """filename:lineno of the nearest frame outside this module."""
    f = sys._getframe(1)
    while f is not None and f.f_code.co_filename == _THIS_FILE:
        f = f.f_back
    if f is None:  # pragma: no cover - only if called from module level
        return "<unknown>"
    return f"{f.f_code.co_filename}:{f.f_lineno}"


class LockWitness:
    """One independent witness: nesting records plus hold accounting."""

    def __init__(self, hold_budget: float = 2.0):
        if hold_budget <= 0:
            raise ValueError("hold_budget must be positive")
        self.hold_budget = hold_budget
        self._mu = threading.Lock()  # guards the shared records below
        #: (held roles, role, site) -> {"thread", "count", "self_deadlock"}
        self._nestings: dict[tuple[tuple[str, ...], str, str], dict] = {}
        self._hold_violations: list[dict] = []
        self._tls = threading.local()

    def named_lock(self, name: str) -> "_WitnessLock":
        return _WitnessLock(self, name)

    # -- per-thread bookkeeping ----------------------------------------------------
    def _held(self) -> list:
        held = getattr(self._tls, "held", None)
        if held is None:
            held = self._tls.held = []
        return held

    def _before_acquire(self, lock: "_WitnessLock") -> None:
        held = self._held()
        if not held:
            return
        key = (tuple(role for role, _id, _t in held), lock._name, _call_site())
        reentry = any(obj_id == id(lock) for _r, obj_id, _t in held)
        with self._mu:
            info = self._nestings.get(key)
            if info is not None:
                info["count"] += 1
                info["self_deadlock"] |= reentry
            elif len(self._nestings) < _MAX_RECORDS:
                self._nestings[key] = {
                    "thread": threading.current_thread().name,
                    "count": 1,
                    "self_deadlock": reentry,
                }

    def _after_acquire(self, lock) -> None:
        self._held().append((lock._name, id(lock), time.monotonic()))

    def _on_release(self, lock) -> None:
        held = self._held()
        for i in range(len(held) - 1, -1, -1):
            role, obj_id, t_acq = held[i]
            if obj_id == id(lock):
                del held[i]
                held_for = time.monotonic() - t_acq
                if held_for > self.hold_budget:
                    with self._mu:
                        if len(self._hold_violations) < _MAX_RECORDS:
                            self._hold_violations.append({
                                "lock": role,
                                "held_s": round(held_for, 4),
                                "budget_s": self.hold_budget,
                                "thread": threading.current_thread().name,
                                "site": _call_site(),
                            })
                return

    # -- analysis ----------------------------------------------------------------
    def report(self) -> dict:
        with self._mu:
            nestings = [
                {"held": list(held), "lock": role, "site": site, **info}
                for (held, role, site), info in sorted(self._nestings.items())
            ]
            holds = list(self._hold_violations)
        return {"nestings": nestings, "hold_violations": holds}

    def assert_clean(self) -> None:
        rep = self.report()
        problems = []
        for n in rep["nestings"]:
            if n["self_deadlock"]:
                problems.append(
                    f"non-reentrant lock '{n['lock']}' re-acquired on {n['thread']} "
                    f"at {n['site']} (guaranteed self-deadlock, ×{n['count']})"
                )
            else:
                problems.append(
                    f"lock '{n['lock']}' acquired while holding "
                    f"{', '.join(repr(r) for r in n['held'])} on {n['thread']} "
                    f"at {n['site']} (×{n['count']}); a named lock must be a leaf"
                )
        for v in rep["hold_violations"]:
            problems.append(
                f"lock '{v['lock']}' held {v['held_s']}s > budget {v['budget_s']}s "
                f"by {v['thread']} (released at {v['site']})"
            )
        if problems:
            raise LockOrderViolation("\n".join(problems))

    def reset(self) -> None:
        with self._mu:
            self._nestings.clear()
            self._hold_violations.clear()


class _WitnessLock:
    """A named, witnessed ``threading.Lock`` drop-in."""

    def __init__(self, witness: LockWitness, name: str):
        self._witness = witness
        self._name = name
        self._lock = threading.Lock()

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        self._witness._before_acquire(self)
        ok = self._lock.acquire(blocking, timeout)
        if ok:
            self._witness._after_acquire(self)
        return ok

    def release(self) -> None:
        self._witness._on_release(self)
        self._lock.release()

    def locked(self) -> bool:
        return self._lock.locked()

    def __enter__(self) -> bool:
        return self.acquire()

    def __exit__(self, *exc) -> None:
        self.release()

    def __repr__(self) -> str:  # pragma: no cover
        return f"<WitnessLock {self._name!r} {self._lock!r}>"


# -- module-level default witness (what the runtime factory uses) --------------------
_default = LockWitness()
_enabled = False


def enable(hold_budget: Optional[float] = None) -> None:
    """Turn witnessing on for locks created *after* this call."""
    global _enabled
    if hold_budget is not None:
        _default.hold_budget = hold_budget
    _enabled = True


def disable() -> None:
    global _enabled
    _enabled = False


def is_enabled() -> bool:
    return _enabled


def named_lock(name: str):
    """A lock for role ``name``: witnessed iff enabled, otherwise a plain
    ``threading.Lock``."""
    return _default.named_lock(name) if _enabled else threading.Lock()


def report() -> dict:
    return _default.report()


def reset() -> None:
    _default.reset()


def assert_clean() -> None:
    _default.assert_clean()
