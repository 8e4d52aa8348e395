"""Storage backends for the threaded runtime.

* :class:`NVMeDir` — a local directory standing in for a node's NVMe
  volume (cache entries are plain files keyed by a sanitised path; reads
  are gated by the LRU index and pinned, evicted files become spares).
* :class:`PFSDir` — a shared directory standing in for the parallel file
  system, with an optional artificial per-read delay so cache hits are
  measurably cheaper on a laptop (the real gap between Lustre and local
  flash doesn't exist between two directories on the same disk).
"""

from __future__ import annotations

import functools
import hashlib
import io
import itertools
import os
import threading
import time
from collections import OrderedDict, deque
from pathlib import Path
from typing import Optional

from ..analysis import lockwitness
from ..obs.events import get_event_log

__all__ = ["NVMeDir", "PFSDir"]

#: in-flight atomic-write staging files and spares: distinguishable by
#: prefix so the __init__ rescan can exclude them and safely unlink
#: leftovers from a writer that died mid-install
_TMP_PREFIX = ".tmp-"
_SPARES = 8  # evicted files an NVMeDir keeps for later installs to overwrite
_spare_ids = itertools.count()  # spare names, unique within the process
_REAL_MEMO = 1 << 14  # verified keys a PFSDir remembers


def _entry_name(key: str) -> str:
    """Filesystem-safe cache-entry name for an arbitrary path key."""
    digest = hashlib.blake2b(key.encode("utf-8"), digest_size=16).hexdigest()
    tail = os.path.basename(key)[-40:] or "entry"
    safe_tail = "".join(c if c.isalnum() or c in "._-" else "_" for c in tail)
    return f"{digest}_{safe_tail}"


class _PinnedFile(io.FileIO):
    """An open entry whose ``close`` releases its pin — lock-free: it may run in a finaliser."""

    pin: tuple  # (the owner's release queue, entry name), set right after the open

    def close(self) -> None:
        if not self.closed:
            self.pin[0].append(self.pin[1])
        super().close()


class NVMeDir:
    """Node-local cache directory: byte accounting, atomic writes, LRU eviction.

    Capacity pressure evicts least-recently-used entries (same semantics as
    the sim-side :class:`repro.hvac.cache_store.CacheStore`) instead of
    refusing the write — only an entry larger than the whole device still
    raises :class:`OSError`.  The LRU index gates every read (a miss costs
    no syscall); :meth:`open_read` *pins* an entry until its file closes.
    An evicted entry no reader pins is renamed into a pool of at most
    ``_SPARES`` ``.tmp-`` spares that later installs overwrite, so an
    install at capacity creates no inode.  Spares are outside
    :attr:`used_bytes` (up to ``_SPARES`` × the largest evicted entry of
    disk overshoot); :meth:`clear` and a reopen remove them.
    """

    def __init__(self, root: str | Path, capacity_bytes: Optional[int] = None):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        #: pre-joined for the hit path: one ``open(prefix + name)``, no Path built
        self._prefix = os.path.join(str(self.root), "")
        self.capacity_bytes = capacity_bytes
        self._lock = lockwitness.named_lock("nvme-lru")
        self.evictions = 0
        self._spares: list[tuple[str, int]] = []  # (path, stale bytes)
        self._pins: dict[str, int] = {}  # entry name → open readers
        self._released: deque = deque()  # names of closed readers, not yet settled
        # Recency order for surviving entries: oldest mtime first, so a warm
        # rejoin resumes with a sensible (if approximate) LRU order.
        self._lru: "OrderedDict[str, int]" = OrderedDict()
        for f in sorted(self.root.iterdir(), key=lambda f: f.stat().st_mtime):
            if not f.is_file():
                continue
            if f.name.startswith(_TMP_PREFIX):
                # Leftover staging file from a writer that died mid-install:
                # never a valid entry, so reclaim the bytes instead of
                # counting them into the LRU.
                try:
                    f.unlink()
                except OSError:  # pragma: no cover - concurrent cleanup
                    pass
                continue
            self._lru[f.name] = f.stat().st_size
        self._used = sum(self._lru.values())

    @property
    def used_bytes(self) -> int:
        return self._used

    def contains(self, key: str) -> bool:
        return _entry_name(key) in self._lru

    def read(self, key: str) -> bytes:
        entry = self.open_read(key)
        if entry is None:
            raise FileNotFoundError(f"not cached: {key!r}")
        with entry[0] as f:
            return f.read()

    def _settle(self) -> None:  # lock held: apply the releases of closed readers
        while self._released:
            name = self._released.popleft()
            self._pins[name] -= 1
            if not self._pins[name]:
                del self._pins[name]

    def open_read(self, key: str):
        """Open an installed entry for zero-copy serving: ``(file, size)``
        or None when the entry is absent (miss, or lost the race to an
        eviction).  The caller owns the file object and must close it.

        Pinned before it is opened: until ``close()`` an eviction unlinks it
        instead of recycling it.  The size is the descriptor's: a same-key
        install may land between pin and open.
        """
        name = _entry_name(key)
        with self._lock:
            if name not in self._lru:
                return None
            self._lru.move_to_end(name)
            self._settle()
            self._pins[name] = self._pins.get(name, 0) + 1
        try:
            f = _PinnedFile(self._prefix + name)
        except OSError:
            self._released.append(name)
            return None
        f.pin = (self._released, name)
        return f, os.fstat(f.fileno()).st_size

    def write(self, key: str, data: bytes) -> None:
        """Atomically install a cache entry, evicting LRU entries if needed.

        *Stage outside, commit inside*: the bytes go to a ``.tmp-`` file (a
        spare when the pool has one) with no lock held; ``nvme-lru`` covers
        only the rename, the accounting and the victims' recycling or
        unlinks, so a hit's ``open_read`` never waits behind a data write.
        A concurrent writer of the same key is harmless: both write the same
        bytes and the rename is atomic on POSIX.  Raises ``OSError`` only
        for an entry that cannot fit even in an empty cache.
        """
        size, cap = len(data), self.capacity_bytes
        if cap is not None and size > cap:
            raise OSError(f"entry of {size} bytes exceeds cache capacity {cap}")
        name = _entry_name(key)
        with self._lock:
            spare = self._spares.pop() if self._spares else None
        tmp, stale = spare or (f"{self._prefix}{_TMP_PREFIX}{os.getpid()}-{threading.get_ident()}-{name}", 0)
        evicted: list[tuple[str, int]] = []
        try:
            # O_CREAT even for a spare: another instance's rescan may have reclaimed it
            fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | (0 if spare else os.O_TRUNC), 0o666)
            try:
                view = memoryview(data)
                while view:
                    view = view[os.write(fd, view) :]
                if stale > size:
                    os.ftruncate(fd, size)
            finally:
                os.close(fd)
            # Victims are recycled or unlinked before the lock is released: an
            # evict → re-install → late unlink would delete a live, counted entry.
            with self._lock:  # ftlint: disable=RT001 -- commit only: rename + victims' unlinks must be atomic with the accounting
                os.replace(tmp, self._prefix + name)
                self._used += size - self._lru.pop(name, 0)
                self._lru[name] = size  # newest, and it fits: the loop stops short of it
                self._settle()
                while cap is not None and self._used > cap and len(self._lru) > 1:
                    victim, vsize = self._lru.popitem(last=False)
                    try:
                        if victim in self._pins or len(self._spares) >= _SPARES:
                            os.unlink(self._prefix + victim)
                        else:
                            dest = f"{self._prefix}{_TMP_PREFIX}spare-{os.getpid()}-{next(_spare_ids)}"
                            os.replace(self._prefix + victim, dest)
                            self._spares.append((dest, vsize))
                    except FileNotFoundError:  # pragma: no cover - already raced away
                        pass
                    self._used -= vsize
                    self.evictions += 1
                    evicted.append((victim, vsize))
        except OSError:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        # Event emission stays outside the critical section (RT001): the
        # counters above are the atomic truth; events are best-effort order.
        for victim, vsize in evicted:
            get_event_log().emit("eviction", store=self.root.name, entry=victim, nbytes=vsize)

    def drop(self, key: str) -> None:
        name = _entry_name(key)
        # Same contract as write(): the unlink must be atomic with the
        # accounting update or a concurrent write() would double-count bytes.
        with self._lock:  # ftlint: disable=RT001 -- unlink must be atomic with LRU accounting (local NVMe, single entry)
            if name in self._lru:
                self._used -= self._lru.pop(name)
                os.unlink(self._prefix + name)

    def clear(self) -> None:
        """Empty the cache and the spare pool.  Only the accounting reset runs
        under the lock (RT001: an unlink loop is unbounded I/O and has no
        business in a critical section); every entry is LRU-tracked and every
        spare pooled, so the snapshot taken under the lock is complete, and
        the unlinks proceed outside it exactly like evictions racing readers."""
        with self._lock:
            victims = [self._prefix + name for name in self._lru] + [p for p, _ in self._spares]
            self._lru.clear()
            self._spares.clear()
            self._used = 0
        for path in victims:
            try:
                os.unlink(path)
            except FileNotFoundError:
                pass

    def entry_count(self) -> int:
        """Installed entries only, answered from the LRU index (every
        install goes through :meth:`write`) — in-flight ``.tmp-*`` staging
        files are never in it, and a STAT costs no directory scan."""
        with self._lock:
            return len(self._lru)


class PFSDir:
    """Shared 'parallel file system' directory with optional read delay;
    containment is checked once per key (only verified paths are memoised):
    the TOCTOU window of ``realpath`` followed by ``open``, held open longer."""

    def __init__(self, root: str | Path, read_delay: float = 0.0):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        #: symlink-free form of the root, resolved once, with its trailing
        #: separator: what every key is joined to and tested against
        self._real_prefix = os.path.join(os.path.realpath(self.root), "")
        if read_delay < 0:
            raise ValueError("read_delay must be >= 0")
        self.read_delay = read_delay
        self._reads = 0
        self._lock = lockwitness.named_lock("pfs-reads")
        self._real = functools.lru_cache(maxsize=_REAL_MEMO)(self._real)

    @property
    def reads(self) -> int:
        return self._reads

    def _real(self, key: str) -> str:
        """Map a dataset key (absolute-ish path) into this PFS root.

        Raises ``PermissionError`` for a key that resolves outside it —
        ``..`` climbs, symlinks, and sibling directories that merely share
        the root's name as a prefix (``/x/pfs-evil`` against ``/x/pfs``).
        """
        path = os.path.realpath(self._real_prefix + key.lstrip("/"))
        if not (path + os.sep).startswith(self._real_prefix):
            raise PermissionError(f"path escape: {key!r}")
        return path

    def resolve(self, key: str) -> Path:
        return Path(self._real(key))

    def exists(self, key: str) -> bool:
        return os.path.exists(self._real(key))

    def read(self, key: str) -> bytes:
        if self.read_delay:
            time.sleep(self.read_delay)
        with open(self._real(key), "rb", buffering=0) as f:
            data = f.read()
        with self._lock:
            self._reads += 1
        return data

    def write(self, key: str, data: bytes) -> None:
        path = self.resolve(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(data)
