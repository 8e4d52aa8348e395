"""Runtime lock witness: every named lock is a leaf, and nothing blocks under one.

The runtime's locks are created through :func:`named_lock`.  When the
witness is disabled (the default outside the test suite) it returns a
plain ``threading.Lock`` and no primitive is wrapped — zero overhead.
When enabled (the conftest fixture turns it on for every pytest run) each
lock is wrapped, and so is every primitive of :data:`BLOCKING_CALLS`, so
that, per thread, the witness records:

* **nestings**: the runtime's one lock invariant is that a named lock is
  never acquired while another is held.  An attempt to acquire lock-role
  ``B`` while holding ``A`` is recorded as ``(held roles, B, site)`` —
  kept once per distinct triple, with a count — at the *attempt*, before
  potentially blocking.  A lock that never nests cannot take part in a
  deadlock, so no ordering graph is needed: the first nesting is the
  violation, whether or not a schedule that deadlocks ever fired.  Two
  instances of one role nested are a nesting too, and re-acquiring the
  *same* instance is flagged as a guaranteed self-deadlock.
* **blocking calls**: a wrapped primitive (socket or file I/O, a connect
  or accept, a sleep, an ``Event.wait``, a ``Thread.join``, a blocking
  ``Queue.get``/``put``) called while this
  thread holds a named lock is recorded as ``(held roles, primitive,
  site)``, the site being the primitive's caller.  However deep the call
  chain that reached it, every reader queued on that lock waits for the
  I/O too — this is how one slow call turns a node fail-slow.
* **hold budgets**: a lock held longer than ``hold_budget`` seconds is
  reported with its release site.  Long holds are the latency amplifier
  behind lock-convoy cliffs.

A nesting or blocking record also keeps its ``chain``: the sites from the
frame that took the innermost held lock down to the offending call, so a
report names every helper in between.

The witness sees only the code the tests run, and only named locks: the
runtime's two plain locks are the connection write token, only ever
claimed with ``acquire(False)``, and ``obs.events``' bootstrap lock,
which guards one assignment.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
from typing import Optional

__all__ = [
    "BLOCKING_CALLS",
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

#: The blocking calls the runtime makes, by owner (a module, or a class as
#: ``module.Class``).  While the witness is enabled each one is wrapped.
#: ``io.open`` is listed beside ``builtins.open`` because pathlib's
#: ``Path.open``/``read_bytes``/``write_bytes`` call it by that name.
BLOCKING_CALLS = {
    "socket.socket": ("send", "sendall", "recv", "recv_into", "sendmsg", "connect", "accept"),
    "os": ("sendfile", "pread", "pwrite", "open", "write"),
    "builtins": ("open",),
    "io": ("open",),
    "time": ("sleep",),
    "threading.Event": ("wait",),
    "threading.Thread": ("join",),
    "queue.Queue": ("get", "put"),
}

#: where a wrapped call's ``block`` flag sits (positional index, self
#: included): ``Queue.get/put(block=False)`` returns or raises at once
_BLOCK_ARG = {"queue.Queue.get": 1, "queue.Queue.put": 2}

#: ``Thread.start`` waits on an Event until the new thread has booted; that
#: wait is bounded by thread creation, not by I/O or another thread's work
_THREAD_START = threading.Thread.start.__code__

#: this process's held named locks, innermost last, as (witness, role,
#: id(lock), acquired at, acquiring frame) — one stack for every witness,
#: so a wrapped primitive finds the holder with one lookup
_tls = threading.local()


def _held() -> list:
    held = getattr(_tls, "held", None)
    if held is None:
        held = _tls.held = []
    return held


class LockOrderViolation(AssertionError):
    """Raised by :func:`assert_clean` when the witness saw a hazard."""


def _caller():
    """The nearest frame outside this module."""
    f = sys._getframe(1)
    while f is not None and f.f_code.co_filename == _THIS_FILE:
        f = f.f_back
    return f


def _site(f) -> str:
    if f is None:  # pragma: no cover - only if called from module level
        return "<unknown>"
    return f"{f.f_code.co_filename}:{f.f_lineno}"


def _chain(holder) -> tuple:
    """Sites from ``holder`` (the frame that took the innermost held lock)
    down to the nearest frame outside this module, outermost first; that
    frame's site alone once ``holder`` has returned."""
    sites = []
    f = _caller()
    while f is not None:
        sites.append(_site(f))
        if f is holder:
            return tuple(reversed(sites))
        f = f.f_back
    return tuple(sites[:1])


class LockWitness:
    """One independent witness: nesting and blocking records plus hold
    accounting, for the locks made by its :meth:`named_lock`."""

    def __init__(self, hold_budget: float = 2.0):
        if hold_budget <= 0:
            raise ValueError("hold_budget must be positive")
        self.hold_budget = hold_budget
        self._mu = threading.Lock()  # guards the shared records below
        #: (held roles, role, site) -> {"thread", "count", "self_deadlock"}
        self._nestings: dict[tuple[tuple[str, ...], str, str], dict] = {}
        #: (held roles, primitive, site) -> {"thread", "count"}
        self._blocking: dict[tuple[tuple[str, ...], str, str], dict] = {}
        self._hold_violations: list[dict] = []

    def named_lock(self, name: str) -> "_WitnessLock":
        return _WitnessLock(self, name)

    # -- per-thread bookkeeping ----------------------------------------------------
    def _mine(self) -> list:
        return [entry for entry in _held() if entry[0] is self]

    def _before_acquire(self, lock: "_WitnessLock") -> None:
        mine = self._mine()
        if not mine:
            return
        reentry = any(entry[2] == id(lock) for entry in mine)
        self._record(self._nestings, mine, lock._name, self_deadlock=reentry)

    def _on_blocking_call(self, primitive: str) -> None:
        self._record(self._blocking, self._mine(), primitive)

    def _record(self, records: dict, mine: list, what: str, **flags: bool) -> None:
        """Count ``(held roles, what, site)`` in ``records`` and OR ``flags``
        into its record; the first occurrence keeps its chain."""
        chain = _chain(mine[-1][4])
        key = (tuple(entry[1] for entry in mine), what, chain[-1])
        with self._mu:
            info = records.get(key)
            if info is None:
                if len(records) >= _MAX_RECORDS:
                    return
                info = records[key] = {
                    "thread": threading.current_thread().name, "count": 0,
                    "chain": list(chain), **dict.fromkeys(flags, False),
                }
            info["count"] += 1
            for flag, value in flags.items():
                info[flag] |= value

    def _after_acquire(self, lock) -> None:
        _held().append((self, lock._name, id(lock), time.monotonic(), _caller()))

    def _on_release(self, lock) -> None:
        held = _held()
        for i in range(len(held) - 1, -1, -1):
            _w, role, obj_id, t_acq, _f = held[i]
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
                                "site": _site(_caller()),
                            })
                return

    # -- analysis ----------------------------------------------------------------
    def report(self) -> dict:
        with self._mu:
            nestings = [
                {"held": list(held), "lock": role, "site": site, **info}
                for (held, role, site), info in sorted(self._nestings.items())
            ]
            blocking = [
                {"held": list(held), "call": call, "site": site, **info}
                for (held, call, site), info in sorted(self._blocking.items())
            ]
            holds = list(self._hold_violations)
        return {"nestings": nestings, "blocking": blocking, "hold_violations": holds}

    def assert_clean(self) -> None:
        rep = self.report()
        problems = []
        for n in rep["nestings"]:
            if n["self_deadlock"]:
                problems.append(
                    f"non-reentrant lock '{n['lock']}' re-acquired on {n['thread']} "
                    f"at {n['site']} (guaranteed self-deadlock, ×{n['count']}){_via(n)}"
                )
            else:
                problems.append(
                    f"lock '{n['lock']}' acquired while holding "
                    f"{', '.join(repr(r) for r in n['held'])} on {n['thread']} "
                    f"at {n['site']} (×{n['count']}){_via(n)}; a named lock must be a leaf"
                )
        for b in rep["blocking"]:
            problems.append(
                f"blocking call '{b['call']}' while holding "
                f"{', '.join(repr(r) for r in b['held'])} on {b['thread']} "
                f"at {b['site']} (×{b['count']}){_via(b)}; move it out of the critical section"
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
            self._blocking.clear()
            self._hold_violations.clear()


def _via(record: dict) -> str:
    chain = record["chain"]
    return f", reached via {' -> '.join(chain)}" if len(chain) > 1 else ""


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


# -- the blocking-call wraps ---------------------------------------------------------
#: (owner, name) -> what ``vars(owner)`` held before the wrap (_INHERITED if
#: the owner only inherited it); empty while nothing is wrapped
_originals: dict = {}
_INHERITED = object()


def _owner(path: str):
    module, _, cls = path.partition(".")
    owner = __import__(module)
    return getattr(owner, cls) if cls else owner


def _note_blocking_call(primitive: str, args: tuple, kwargs: dict) -> None:
    """A wrapped primitive was called while this thread holds a named lock."""
    pos = _BLOCK_ARG.get(primitive)
    if pos is not None and not kwargs.get("block", args[pos] if len(args) > pos else True):
        return
    if sys._getframe(2).f_code is _THREAD_START:
        return
    _held()[-1][0]._on_blocking_call(primitive)


def _wrap(original, primitive: str):
    @functools.wraps(original)
    def wrapped(*args, **kwargs):
        if getattr(_tls, "held", None):
            _note_blocking_call(primitive, args, kwargs)
        return original(*args, **kwargs)

    return wrapped


def _wrap_blocking_calls() -> None:
    if _originals:
        return
    for path, names in BLOCKING_CALLS.items():
        owner = _owner(path)
        for name in names:
            if hasattr(owner, name):
                _originals[owner, name] = vars(owner).get(name, _INHERITED)
                setattr(owner, name, _wrap(getattr(owner, name), f"{path}.{name}"))


def _unwrap_blocking_calls() -> None:
    for (owner, name), original in _originals.items():
        if original is _INHERITED:
            delattr(owner, name)
        else:
            setattr(owner, name, original)
    _originals.clear()


# -- module-level default witness (what the runtime factory uses) --------------------
_default = LockWitness()
_enabled = False


def enable(hold_budget: Optional[float] = None) -> None:
    """Witness locks created *after* this call, and wrap :data:`BLOCKING_CALLS`."""
    global _enabled
    if hold_budget is not None:
        _default.hold_budget = hold_budget
    _wrap_blocking_calls()
    _enabled = True


def disable() -> None:
    """Make plain locks again and restore every wrapped primitive."""
    global _enabled
    _enabled = False
    _unwrap_blocking_calls()


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
