"""Storage backends for the threaded runtime.

* :class:`NVMeDir` — a local directory standing in for a node's NVMe
  volume (entries live in slots of one slab file per slot size, keyed by
  a digest of their path; reads are gated by the LRU index and pinned).
* :class:`PFSDir` — a shared directory standing in for the parallel file
  system, with an optional artificial per-read delay so cache hits are
  measurably cheaper on a laptop (the real gap between Lustre and local
  flash doesn't exist between two directories on the same disk).
"""

from __future__ import annotations

import errno
import hashlib
import itertools
import os
import stat
import struct
import time
import weakref
from collections import OrderedDict, deque
from pathlib import Path
from typing import Optional

from ..analysis import lockwitness
from ..obs.events import get_event_log

__all__ = ["NVMeDir", "PFSDir"]

_SLOT_MIN = 1 << 12  # slot sizes are the powers of two from 4 KiB up
#: one record per slot: key digest, install sequence (0: no entry), entry bytes
_RECORD = struct.Struct("<16sQQ")
_NO_RECORD = bytes(_RECORD.size)
_DIR_MEMO = 1 << 12  # verified directories a PFSDir remembers
#: leaves that name no file of their directory: they take the full check
_NOT_A_NAME = ("", ".", "..")
_OPEN_LEAF = os.O_RDONLY | os.O_NOFOLLOW | os.O_CLOEXEC


def _digest(key: str) -> bytes:
    return hashlib.blake2b(key.encode("utf-8"), digest_size=16).digest()


def _close(*fds: int) -> None:
    for fd in fds:
        os.close(fd)


class _Slab:
    """Every slot of one size: slot *i* is byte ``i × size`` of
    ``<size>.data`` and record *i* of ``<size>.records``."""

    def __init__(self, prefix: str, size: int):
        self.size = size
        self.data = os.open(f"{prefix}{size}.data", os.O_RDWR | os.O_CREAT, 0o666)
        self.records = os.open(f"{prefix}{size}.records", os.O_RDWR | os.O_CREAT, 0o666)
        #: idempotent; also runs once nothing references the slab (an open entry does)
        self.close = weakref.finalize(self, _close, self.data, self.records)
        #: slots handed out, from the record file: a short entry leaves the data file short
        self.count = os.fstat(self.records).st_size // _RECORD.size
        self.free: list[int] = []  # slots with a zeroed record and no reader


class _Entry:
    """An open cache entry: a pinned slot of the shared slab descriptor,
    ``fileno()`` at ``offset`` for ``sendfile``, read positionally.  Its
    ``close`` releases the pin by a lock-free append: safe in a finaliser."""

    mode = "rb"  # what loop.sendfile checks a file for

    def __init__(self, loc: tuple, released: deque):
        slab, slot, self.size = loc
        self.offset = slot * slab.size
        self._loc, self._released, self._fd, self._pos = loc, released, slab.data, 0
        self.closed = False

    def fileno(self) -> int:
        return self._fd

    def read(self, n: int = -1) -> bytes:
        left = self.size - self._pos
        data = os.pread(self._fd, left if n < 0 else min(n, left), self.offset + self._pos)
        self._pos += len(data)
        return data

    def close(self) -> None:
        if not self.closed:
            self.closed = True
            self._released.append(self._loc)

    __del__ = close

    def __enter__(self) -> "_Entry":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class NVMeDir:
    """Node-local cache directory: byte accounting, slab slots, LRU eviction.

    Capacity pressure evicts least-recently-used entries (same semantics as
    the sim-side :class:`repro.hvac.cache_store.CacheStore`) instead of
    refusing the write — only an entry larger than the whole device still
    raises :class:`OSError`.  The LRU index gates every read, so neither a
    miss nor :meth:`open_read` costs a syscall; an open entry *pins* its slot.

    **Layout.**  An entry lives in a slot of the smallest power of two ≥
    max(size, 4 KiB); each slot size has one data file and one record file
    (:class:`_Slab`).  A record holds the key's blake2b digest, an install
    sequence number (0: free) and the entry size.  An install is two
    ``pwrite`` calls: no inode is created or removed per entry.

    **Record rule: a record is valid iff its slot holds the current bytes
    of its key.**  It is written only after its data; a slot that leaves
    the index has its record zeroed, outside the lock, before it joins the
    free list — a pinned one only after its last reader closes.  A replaced
    key's old record is zeroed after the new one is written, so of two
    valid records for one digest a reopen keeps the higher sequence.  A
    reopen (the warm rejoin) adopts every valid record, LRU order by sequence.

    **Disk bound.**  Slabs never shrink; a slot is under twice its entry (or
    one 4 KiB block), so per slot size in use the footprint is at most
    2 × capacity, plus pinned slots.  One live instance per directory;
    :meth:`close` or garbage collection closes the descriptors.
    """

    def __init__(self, root: str | Path, capacity_bytes: Optional[int] = None):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self._prefix = os.path.join(str(self.root), "")
        self.capacity_bytes = capacity_bytes
        self._lock = lockwitness.named_lock("nvme-lru")
        self.evictions = 0
        self._slabs: dict[int, _Slab] = {}
        #: (slab, slot, bytes) → references: the index's (an install's while
        #: it writes) plus one per open reader; a slot is free at zero
        self._refs: dict[tuple, int] = {}
        self._released: deque = deque()  # dropped references, not yet settled
        self._index: "OrderedDict[bytes, tuple]" = OrderedDict()  # digest → slot, LRU first
        found = []
        for name in os.listdir(self._prefix):
            size, _, ext = name.partition(".")
            if ext != "records" or not size.isdigit():
                continue
            slab = self._slabs[int(size)] = _Slab(self._prefix, int(size))
            raw = os.pread(slab.records, slab.count * _RECORD.size, 0)
            for slot, (digest, seq, nbytes) in enumerate(_RECORD.iter_unpack(raw)):
                if seq:
                    found.append((seq, digest, (slab, slot, nbytes)))
                else:
                    slab.free.append(slot)  # free, or an install that died before its record
        found.sort(key=lambda rec: rec[0])
        losers = []  # a crash between a replacement's record and the old one's zeroing
        for _, digest, loc in found:
            losers.append(self._index.pop(digest, None))
            self._index[digest] = loc
            self._refs[loc] = 1
        self._retire(losers)
        self._seqs = itertools.count(found[-1][0] + 1 if found else 1)
        self._used = sum(nbytes for _, _, nbytes in self._index.values())

    @property
    def used_bytes(self) -> int:
        return self._used

    def contains(self, key: str) -> bool:
        return _digest(key) in self._index

    def read(self, key: str) -> bytes:
        entry = self.open_read(key)
        if entry is None:
            raise FileNotFoundError(f"not cached: {key!r}")
        with entry[0] as f:
            return f.read()

    def _settle(self) -> None:  # lock held: apply dropped references, free unreferenced slots
        while self._released:
            loc = self._released.popleft()
            refs = self._refs.pop(loc) - 1
            if refs:
                self._refs[loc] = refs
            else:
                loc[0].free.append(loc[1])

    def _retire(self, locs: list) -> None:
        """Slots that left the index (None: no slot): zero each record, no
        lock held — the slot is unreachable — then drop the index's reference."""
        for loc in filter(None, locs):
            slab, slot, _ = loc
            os.pwrite(slab.records, _NO_RECORD, slot * _RECORD.size)
            self._released.append(loc)

    def open_read(self, key: str):
        """An installed entry for zero-copy serving: ``(entry, size)``, or
        None when it is absent (miss, or lost the race to an eviction).  No
        syscall: the slot is pinned in the index's critical section.  The
        caller must close the entry; until then no install overwrites it."""
        digest = _digest(key)
        with self._lock:
            loc = self._index.get(digest)
            if loc is None:
                return None
            self._index.move_to_end(digest)
            self._settle()
            self._refs[loc] += 1
        return _Entry(loc, self._released), loc[2]

    def write(self, key: str, data: bytes) -> None:
        """Install a cache entry, evicting LRU entries if needed: under
        ``nvme-lru`` take a free slot of its size (or a new one at the slab's
        end), ``pwrite`` the data and then the record outside it, commit in
        memory under it (index, accounting, victims), then zero the records
        of the slots that left the index.  A hit never waits behind a data
        write.  Raises ``OSError`` for an entry larger than the whole cache,
        or a failed write (which installs nothing)."""
        size, cap = len(data), self.capacity_bytes
        if cap is not None and size > cap:
            raise OSError(f"entry of {size} bytes exceeds cache capacity {cap}")
        digest, width = _digest(key), max(_SLOT_MIN, 1 << (size - 1).bit_length())
        slab = self._slabs.get(width) or self._slabs.setdefault(width, _Slab(self._prefix, width))
        with self._lock:
            self._settle()
            slot = slab.free.pop() if slab.free else slab.count
            slab.count = max(slab.count, slot + 1)
            loc = (slab, slot, size)
            self._refs[loc] = 1
        try:
            view, offset = memoryview(data), slot * width
            while view:
                n = os.pwrite(slab.data, view, offset)
                view, offset = view[n:], offset + n
            os.pwrite(slab.records, _RECORD.pack(digest, next(self._seqs), size), slot * _RECORD.size)
        except OSError:
            self._released.append(loc)  # its record is still zero: the slot is free again
            raise
        with self._lock:
            old = self._index.pop(digest, None)
            self._index[digest] = loc  # newest, and it fits: the loop stops short of it
            self._used += size - (old[2] if old else 0)
            victims = []
            while cap is not None and self._used > cap and len(self._index) > 1:
                victims.append(self._index.popitem(last=False))
                self._used -= victims[-1][1][2]
            self.evictions += len(victims)
        self._retire([old] + [vloc for _, vloc in victims])
        # Event emission stays outside the critical section (RT001): the
        # counters above are the atomic truth; events are best-effort order.
        for vdigest, (_, _, vsize) in victims:
            get_event_log().emit("eviction", store=self.root.name, entry=vdigest.hex(), nbytes=vsize)

    def drop(self, key: str) -> None:
        with self._lock:
            loc = self._index.pop(_digest(key), None)
            self._used -= loc[2] if loc else 0
        self._retire([loc])

    def clear(self) -> None:
        """Empty the cache: the index is emptied under the lock, the records
        are zeroed outside it exactly like evictions racing readers."""
        with self._lock:
            locs = list(self._index.values())
            self._index.clear()
            self._used = 0
        self._retire(locs)

    def entry_count(self) -> int:
        """Installed entries only, answered from the LRU index: an install
        still writing is not in it, and a STAT costs no syscall."""
        with self._lock:
            return len(self._index)

    def close(self) -> None:
        """Close every slab's descriptors (idempotent).  The directory keeps
        its entries for the next instance; this one must not be used again."""
        for slab in list(self._slabs.values()):
            slab.close()


class PFSDir:
    """Shared 'parallel file system' directory with optional read delay.

    **Containment.**  No key reaches outside the root: ``..`` climbs,
    symlinks, and sibling directories that merely share the root's name as
    a prefix (``/x/pfs-evil`` against ``/x/pfs``) raise ``PermissionError``.
    A key splits at its last ``/``.  Its directory part is resolved with
    ``realpath`` and checked once per directory; only a directory that
    exists and passed is memoised.  Its leaf is opened with ``O_NOFOLLOW``,
    so a read in a verified directory is one ``open`` and a leaf swapped
    for a symlink meanwhile fails the open.  A symlink leaf (``ELOOP``, or
    one ``lstat`` outside :meth:`read`) and a leaf of ``.``, ``..`` or
    nothing take the full ``realpath`` check of the whole key.  The window
    left open is a directory on a verified path swapped for a symlink later.
    """

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
        self._lock = lockwitness.named_lock("pfs-dir")
        #: a key's directory part → its verified real path, with separator
        self._dirs: dict[str, str] = {}

    @property
    def reads(self) -> int:
        return self._reads

    def _real(self, key: str, part: Optional[str] = None) -> str:
        """``part`` of ``key`` (all of it by default) resolved symlink-free;
        ``PermissionError`` when that lands outside the root."""
        path = os.path.realpath(self._real_prefix + (key if part is None else part).lstrip("/"))
        if not (path + os.sep).startswith(self._real_prefix):
            raise PermissionError(f"path escape: {key!r}")
        return path

    def _leaf(self, key: str) -> str:
        """The key's leaf in its verified directory; the full check's answer
        for a leaf that names no file."""
        head, _, leaf = key.rpartition("/")
        if leaf in _NOT_A_NAME:
            return self._real(key)
        real = self._dirs.get(head)
        if real is None:
            real = os.path.join(self._real(key, head), "")
            # only a directory that exists: one created later may be a symlink
            if os.path.isdir(real):
                with self._lock:
                    if len(self._dirs) >= _DIR_MEMO:
                        del self._dirs[next(iter(self._dirs))]
                    self._dirs[head] = real
        return real + leaf

    def _path(self, key: str) -> str:
        """:meth:`_leaf`, with a symlink leaf resolved and checked in full."""
        path = self._leaf(key)
        try:
            mode = os.lstat(path).st_mode
        except OSError:
            return path  # nothing there (yet): the caller's own call reports it
        return self._real(key) if stat.S_ISLNK(mode) else path

    def resolve(self, key: str) -> Path:
        return Path(self._path(key))

    def exists(self, key: str) -> bool:
        return os.path.exists(self._path(key))

    def read(self, key: str) -> bytes:
        if self.read_delay:
            time.sleep(self.read_delay)
        path = self._leaf(key)
        try:
            fd = os.open(path, _OPEN_LEAF)
        except OSError as exc:
            if exc.errno != errno.ELOOP:
                raise
            fd = os.open(self._real(key), os.O_RDONLY | os.O_CLOEXEC)  # a symlink leaf
        with open(fd, "rb", buffering=0) as f:
            data = f.read()
        with self._lock:
            self._reads += 1
        return data

    def write(self, key: str, data: bytes) -> None:
        path = self.resolve(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(data)
