"""LRU eviction in the threaded runtime's NVMeDir, its slab records, and
the read/evict race.

The race regression (``runtime/server.py`` ``_read``): an entry evicted
between the server's cache-presence check and the actual file read must
degrade to a PFS miss, never surface as a client-visible error.

At capacity, the slot an eviction frees is reused by a later install; a
reader's pin keeps an open entry's slot off the free list, so what a
reader holds open is never overwritten.  A reopen adopts exactly the
slots whose record is valid — the record rule (``storage.NVMeDir``).
"""

import os
import shutil
import socket
import sys
import tempfile
import threading
import time

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
    run_state_machine_as_test,
)

from repro.runtime import LocalCluster, Message, recv_message
from repro.runtime.protocol import OP_READ, encode_binary_request
from repro.runtime.server import FTCacheServer
from repro.runtime.storage import _RECORD, NVMeDir, PFSDir


def _disk(root) -> dict:
    """Every file under ``root``: name → (inode, size)."""
    return {e.name: (e.inode(), e.stat().st_size) for e in os.scandir(root)}


def _fds_under(root) -> int:
    """Descriptors this process holds open on files under ``root``."""
    n = 0
    for fd in os.listdir("/proc/self/fd"):
        try:
            n += os.readlink(f"/proc/self/fd/{fd}").startswith(str(root))
        except OSError:  # closed since the listing
            pass
    return n


def _slots_accounted(nv: NVMeDir) -> None:
    """Every slot ever handed out is exactly one of: free, or referenced
    (by the index, and by each open reader)."""
    with nv._lock:
        nv._settle()
        for slab in nv._slabs.values():
            used = [slot for s, slot, _ in nv._refs if s is slab]
            assert sorted(slab.free + used) == list(range(slab.count))


class TestNVMeDirLRU:
    def test_eviction_order_is_lru(self, tmp_path):
        nv = NVMeDir(tmp_path, capacity_bytes=30)
        nv.write("/a", b"x" * 10)
        nv.write("/b", b"x" * 10)
        nv.write("/c", b"x" * 10)
        nv.read("/a")  # refresh /a: /b becomes LRU
        nv.write("/d", b"x" * 10)
        assert nv.contains("/a") and nv.contains("/c") and nv.contains("/d")
        assert not nv.contains("/b")
        assert nv.evictions == 1

    def test_multiple_evictions_for_one_write(self, tmp_path):
        nv = NVMeDir(tmp_path, capacity_bytes=30)
        for key in ("/a", "/b", "/c"):
            nv.write(key, b"x" * 10)
        nv.write("/big", b"x" * 20)  # must displace /a and /b
        assert not nv.contains("/a") and not nv.contains("/b")
        assert nv.contains("/c") and nv.contains("/big")
        assert nv.evictions == 2
        assert nv.used_bytes == 30  # /c (10) + /big (20)

    def test_rewrite_same_key_does_not_self_evict(self, tmp_path):
        nv = NVMeDir(tmp_path, capacity_bytes=10)
        nv.write("/a", b"x" * 8)
        nv.write("/a", b"y" * 10)  # replace in place, no eviction
        assert nv.read("/a") == b"y" * 10
        assert nv.evictions == 0 and nv.used_bytes == 10

    def test_unbounded_dir_never_evicts(self, tmp_path):
        nv = NVMeDir(tmp_path)
        for i in range(20):
            nv.write(f"/k{i}", b"x" * 100)
        assert nv.evictions == 0 and nv.entry_count() == 20

    def test_lru_state_rebuilt_on_reopen(self, tmp_path):
        nv = NVMeDir(tmp_path, capacity_bytes=100)
        nv.write("/a", b"x" * 40)
        nv.write("/b", b"x" * 40)
        again = NVMeDir(tmp_path, capacity_bytes=100)
        assert again.used_bytes == 80
        again.write("/c", b"x" * 40)  # rescanned entries are evictable
        assert again.evictions == 1 and again.used_bytes <= 100

    def test_drop_removes_from_lru_accounting(self, tmp_path):
        nv = NVMeDir(tmp_path, capacity_bytes=20)
        nv.write("/a", b"x" * 10)
        nv.drop("/a")
        nv.write("/b", b"x" * 20)  # freed space: no eviction needed
        assert nv.evictions == 0 and nv.used_bytes == 20

    def test_entry_held_open_keeps_its_bytes_through_recycling(self, tmp_path):
        nv = NVMeDir(tmp_path, capacity_bytes=4 * 64)
        held = bytes(range(64))
        nv.write("/held", held)
        f, size = nv.open_read("/held")
        try:
            for i in range(20):
                nv.write(f"/k{i}", bytes([i]) * 64)
            assert not nv.contains("/held")  # evicted while open
            assert size == 64
            assert f.read(10) + f.read() == held and f.read() == b""
        finally:
            f.close()

    def test_installs_at_capacity_create_no_inode(self, tmp_path):
        """At capacity an install takes the slot its predecessor's eviction
        freed: 40 installs leave the file set and every slab's length
        unchanged."""
        n = 16  # entries the cache holds
        nv = NVMeDir(tmp_path, capacity_bytes=n * 64)
        for i in range(n + 1):  # the last install evicts: a slot is free
            nv.write(f"/warm{i}", bytes(64))
        disk = _disk(tmp_path)
        assert sorted(disk) == ["4096.data", "4096.records"]
        for i in range(40):
            nv.write(f"/k{i}", bytes([i]) * 64)
            assert _disk(tmp_path) == disk
        assert nv.evictions == 41 and nv.used_bytes == n * 64
        nv.write("/whole", bytes(n * 64))  # evicts every other entry
        assert nv.entry_count() == 1 and _disk(tmp_path).keys() == disk.keys()
        _slots_accounted(nv)

    def test_clear_drop_and_reopen_keep_used_bytes_exact(self, tmp_path):
        nv = NVMeDir(tmp_path, capacity_bytes=4 * 64)
        for i in range(6):
            nv.write(f"/k{i}", bytes(64))
        nv.write("/big", bytes(192))  # three victims
        assert nv.used_bytes == 256 and nv.entry_count() == 2
        nv.drop("/big")
        assert nv.used_bytes == 64 and nv.entry_count() == 1
        nv.close()
        again = NVMeDir(tmp_path, capacity_bytes=4 * 64)
        assert again.used_bytes == 64 and again.read("/k5") == bytes(64)
        for i in range(8):
            again.write(f"/j{i}", bytes(64 + i))
        assert again.used_bytes == 71 + 70 + 69 and again.entry_count() == 3
        again.clear()
        assert again.entry_count() == 0 and again.used_bytes == 0
        again.write("/after", b"a" * 10)
        assert again.read("/after") == b"a" * 10 and again.used_bytes == 10
        again.close()
        third = NVMeDir(tmp_path, capacity_bytes=4 * 64)  # clear() zeroed every record
        assert third.entry_count() == 1 and third.used_bytes == 10
        _slots_accounted(third)

    def test_readers_never_see_a_recycled_inode(self, tmp_path):
        """Hammer: installs at capacity reuse freed slots while readers hold
        entries open; every byte a reader sees belongs to its key.  An
        ignored pin shows as another key's bytes — a race that passes most
        single runs, so CI repeats this test."""
        nv = NVMeDir(tmp_path, capacity_bytes=6 * 512)
        keys = [f"/h{i}" for i in range(24)]
        blob = {k: bytes([i + 1]) * (256 + 8 * i) for i, k in enumerate(keys)}
        writing = threading.Event()
        writing.set()
        bad: list = []

        def writer(start: int) -> None:
            for i in range(start, start + 7 * 800, 7):
                nv.write(keys[i % len(keys)], blob[keys[i % len(keys)]])

        def reader(start: int) -> None:
            i = start
            while writing.is_set():
                key = keys[i % len(keys)]
                i += 5
                entry = nv.open_read(key)
                if entry is None:
                    continue
                f, size = entry
                with f:
                    got = f.read(64) + f.read()
                if size != len(blob[key]) or got != blob[key]:
                    bad.append(key)

        writers = [threading.Thread(target=writer, args=(k,), name=f"recycle-writer-{k}", daemon=True) for k in range(2)]
        readers = [threading.Thread(target=reader, args=(k,), name=f"recycle-reader-{k}", daemon=True) for k in range(3)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # interleave the threads finely
        try:
            for t in writers + readers:
                t.start()
            for t in writers:
                t.join(timeout=60)
        finally:
            writing.clear()
            for t in readers:
                t.join(timeout=60)
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in writers + readers)
        assert bad == []
        assert nv.evictions > 1000
        assert nv.used_bytes == sum(size for _, _, size in nv._index.values()) <= nv.capacity_bytes
        _slots_accounted(nv)
        assert sorted(nv._refs.values()) == [1] * nv.entry_count()  # no pin outlived its reader

    def test_matches_a_dict_model(self):
        run_state_machine_as_test(
            NVMeDirModel, settings=settings(max_examples=60, stateful_step_count=40, deadline=None)
        )


class NVMeDirModel(RuleBasedStateMachine):
    """NVMeDir against a dict of what each key last had written: random
    sizes over two slot sizes, a cache that holds a few entries, readers
    held open across installs, reopens.  Whatever is cached reads back as
    the model's bytes, the byte count is the index's, and every slot is
    either free or referenced."""

    CAP = 3 * 4096
    KEYS = st.sampled_from([f"/k{i}" for i in range(8)])

    def __init__(self):
        super().__init__()
        self.root = tempfile.mkdtemp(prefix="nvme-model-")
        self.nv = NVMeDir(self.root, capacity_bytes=self.CAP)
        self.model: dict[str, bytes] = {}
        self.held: list = []  # (open entry, the bytes it had when opened)
        self.version = 0

    @rule(key=KEYS, size=st.integers(0, 48) | st.integers(4000, 6000))
    def write(self, key, size):
        self.version += 1
        data = bytes([self.version % 256]) * size
        self.nv.write(key, data)
        self.model[key] = data

    @precondition(lambda self: self.nv.entry_count())
    @rule(index=st.integers(0, 7))
    def open_and_hold(self, index):
        cached = [key for key in self.model if self.nv.contains(key)]
        key = cached[index % len(cached)]
        f, size = self.nv.open_read(key)
        assert size == len(self.model[key])
        self.held.append((f, self.model[key]))

    @precondition(lambda self: self.held)
    @rule(index=st.integers(0, 7))
    def close_held(self, index):
        f, expected = self.held.pop(index % len(self.held))
        with f:
            assert f.read() == expected

    @rule(key=KEYS)
    def read(self, key):
        if self.nv.contains(key):
            assert self.nv.read(key) == self.model[key]
        else:
            assert self.nv.open_read(key) is None

    @rule(key=KEYS)
    def drop(self, key):
        self.nv.drop(key)
        self.model.pop(key, None)
        assert not self.nv.contains(key)

    @rule()
    def reopen(self):
        """The warm rejoin: close, then ``NVMeDir(root)`` — the same entries
        come back, and each reads the model's bytes."""
        while self.held:
            self.close_held(0)
        cached = {key for key in self.model if self.nv.contains(key)}
        used = self.nv.used_bytes
        self.nv.close()
        self.nv = NVMeDir(self.root, capacity_bytes=self.CAP)
        assert {key for key in self.model if self.nv.contains(key)} == cached
        assert self.nv.used_bytes == used
        for key in cached:
            assert self.nv.read(key) == self.model[key]

    @invariant()
    def books_and_slots_agree(self):
        index = self.nv._index.values()
        assert self.nv.used_bytes == sum(size for _, _, size in index) <= self.CAP
        _slots_accounted(self.nv)

    def teardown(self):
        for f, _ in self.held:
            f.close()
        self.nv.close()
        shutil.rmtree(self.root)


class TestSlabRecords:
    """The record rule across a reopen: a record is valid iff its slot
    holds the current bytes of its key."""

    def test_reopen_never_serves_a_stale_version(self, tmp_path):
        """PUT v1, PUT v2, v2 evicted and its slot reused, restart: the key
        is absent or reads v2, never v1.  A reader holds v1's slot, so only
        v2's slot is free to reuse; zeroing records on reuse instead of
        when a slot is freed would leave v1's record valid."""
        nv = NVMeDir(tmp_path, capacity_bytes=128)
        nv.write("/k", b"1" * 64)
        held, _ = nv.open_read("/k")
        nv.write("/k", b"2" * 64)
        nv.write("/a", b"a" * 64)
        nv.write("/b", b"b" * 64)  # evicts /k: v2's slot is the only free one
        nv.write("/c", b"c" * 64)  # ...and is reused
        assert not nv.contains("/k") and held.read() == b"1" * 64
        held.close()
        nv.close()
        again = NVMeDir(tmp_path, capacity_bytes=128)
        assert not again.contains("/k") or again.read("/k") == b"2" * 64
        assert again.read("/b") == b"b" * 64 and again.read("/c") == b"c" * 64
        _slots_accounted(again)

    def test_data_without_a_record_is_not_adopted(self, tmp_path):
        """An install that died between its data and its record leaves a
        slot with bytes and a zero record: a reopen does not adopt it, and
        the next install reuses it."""
        nv = NVMeDir(tmp_path)
        nv.write("/a", b"a" * 100)
        nv.close()
        with open(tmp_path / "4096.data", "r+b") as f:  # slot 1: data, no record
            f.seek(4096)
            f.write(b"junk" * 64)
        with open(tmp_path / "4096.records", "ab") as f:
            f.write(bytes(_RECORD.size))
        disk = _disk(tmp_path)
        again = NVMeDir(tmp_path)
        assert again.entry_count() == 1 and again.used_bytes == 100
        assert again.read("/a") == b"a" * 100
        again.write("/b", b"b" * 100)
        assert again.read("/b") == b"b" * 100 and _disk(tmp_path) == disk  # slot 1, reused
        _slots_accounted(again)

    def test_reused_slot_whose_data_write_died_is_not_adopted(self, tmp_path):
        """A freed slot's record is zero before it is reused, so a reinstall
        that dies mid-data leaves nothing a reopen would adopt — neither
        the old entry nor the torn new one — and the slot is reused."""
        nv = NVMeDir(tmp_path, capacity_bytes=64)
        nv.write("/a", b"a" * 64)
        nv.write("/b", b"b" * 64)  # evicts /a: slot 0 is zeroed and freed
        with open(tmp_path / "4096.data", "r+b") as f:  # a reinstall into slot 0 dies
            f.write(b"x" * 32)
        assert nv.entry_count() == 1 and nv.used_bytes == 64
        nv.close()
        disk = _disk(tmp_path)
        again = NVMeDir(tmp_path, capacity_bytes=64)
        assert not again.contains("/a") and again.entry_count() == 1
        assert again.read("/b") == b"b" * 64
        again.write("/c", b"c" * 64)
        assert again.read("/c") == b"c" * 64 and _disk(tmp_path) == disk
        _slots_accounted(again)

    @pytest.mark.parametrize("forged", ["older", "newer"])
    def test_duplicate_records_keep_the_higher_sequence(self, tmp_path, forged):
        """A crash between a replacement's record and the zeroing of the old
        one leaves two valid records for one digest: the higher sequence
        number wins, wherever its slot is, and the loser is freed."""
        nv = NVMeDir(tmp_path)
        nv.write("/k", b"1" * 64)  # slot 0
        nv.write("/k", b"2" * 64)  # slot 1; record 0 zeroed
        nv.close()
        records = tmp_path / "4096.records"
        digest, seq, size = _RECORD.unpack_from(records.read_bytes(), _RECORD.size)
        with open(records, "r+b") as f:  # bring record 0 back
            f.write(_RECORD.pack(digest, seq - 1 if forged == "older" else seq + 1, size))
        disk = _disk(tmp_path)
        again = NVMeDir(tmp_path)
        assert again.entry_count() == 1 and again.used_bytes == 64
        winner = b"2" * 64 if forged == "older" else b"1" * 64
        assert again.read("/k") == winner
        again.write("/j", b"j" * 64)  # takes the loser's slot
        assert _disk(tmp_path) == disk
        again.close()
        third = NVMeDir(tmp_path)
        assert third.read("/k") == winner and third.read("/j") == b"j" * 64
        assert third.entry_count() == 2

    def test_small_entry_survives_reopen(self, tmp_path):
        """An 8-byte entry leaves its slab's data file 8 bytes long: the slot
        count comes from the record file."""
        nv = NVMeDir(tmp_path)
        nv.write("/tiny", b"8 bytes!")
        nv.close()
        again = NVMeDir(tmp_path)
        assert again.read("/tiny") == b"8 bytes!" and again.used_bytes == 8

    def test_close_is_idempotent_and_closes_every_slab(self, tmp_path):
        nv = NVMeDir(tmp_path)
        nv.write("/small", b"s")
        nv.write("/large", bytes(10_000))
        assert _fds_under(tmp_path) == 4  # two slot sizes, two files each
        nv.close()
        nv.close()
        assert _fds_under(tmp_path) == 0


class TestEvictionRaceRegression:
    def test_entry_evicted_between_check_and_read_falls_through_to_pfs(self, tmp_path):
        """A READ whose entry is evicted after the decode's lookup and before
        its job's is a miss: served from the PFS, no error."""
        pfs = PFSDir(tmp_path / "pfs")
        pfs.write("/data/a.bin", b"ground truth")
        nvme = NVMeDir(tmp_path / "nvme")
        nvme.write("/data/a.bin", b"ground truth")
        server = FTCacheServer(0, nvme, pfs).start()
        real_open = nvme.open_read
        lookups: list[str] = []

        def evict_after_first_lookup(key):
            lookups.append(key)
            if len(lookups) == 1:
                return None  # the decode's lookup saw no entry...
            nvme.drop(key)  # ...and an eviction won before the job's
            return real_open(key)

        nvme.open_read = evict_after_first_lookup
        try:
            with socket.create_connection(server.address, timeout=10) as sock:
                sock.sendall(encode_binary_request(Message.request(OP_READ, path="/data/a.bin"), seq=1))
                resp = recv_message(sock)
        finally:
            server.close()
        assert lookups == ["/data/a.bin"] * 2
        assert resp.ok
        assert resp.payload == b"ground truth"
        assert resp.header["source"] == "pfs"
        counters = server.stats.snapshot()
        assert counters["errors"] == counters["race_fallthroughs"] == 0
        assert counters["misses"] == 1 and counters["pfs_reads"] == 1

    def test_concurrent_eviction_pressure_no_client_errors(self):
        """End-to-end: tiny caches churn entries while readers hammer them."""
        with LocalCluster(
            n_servers=2,
            policy="nvme",
            ttl=0.5,
            timeout_threshold=3,
            nvme_capacity_bytes=8 * 1024,  # holds only 4 of 32 x 2 KiB entries
        ) as cluster:
            paths = cluster.populate(n_files=32, file_bytes=2048, seed=7)
            client = cluster.client()
            errors = []

            def hammer(offset):
                try:
                    for i in range(60):
                        data = client.read(paths[(i + offset) % len(paths)])
                        assert len(data) == 2048
                except Exception as exc:  # pragma: no cover - failure path
                    errors.append(exc)

            threads = [
                threading.Thread(target=hammer, args=(k * 11,), name=f"evict-hammer-{k}", daemon=True)
                for k in range(4)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert errors == []
            stats = cluster.total_stats()
            assert stats["errors"] == 0
            assert stats["evictions"] > 0  # pressure actually churned the cache


class TestServerStatSnapshot:
    def test_stat_reports_eviction_and_traffic_counters(self):
        with LocalCluster(n_servers=1, nvme_capacity_bytes=4096) as cluster:
            paths = cluster.populate(n_files=8, file_bytes=1024, seed=3)
            client = cluster.client()
            for p in paths + paths:
                client.read(p)
            # quiescent once every accepted recache is installed (or refused)
            deadline = time.monotonic() + 10
            while True:
                stat = client.server_stat(0)
                assert stat is not None
                if stat["mover_queue_len"] == 0 and (
                    stat["mover_enqueued"] - stat["mover_dropped"] == stat["recached"]
                ):
                    break
                assert time.monotonic() < deadline, "data movers never went quiet"
            for key in ("pfs_reads", "recached", "errors", "evictions", "capacity_bytes"):
                assert key in stat
            assert stat["capacity_bytes"] == 4096
            assert stat["evictions"] > 0
            assert stat["cached_bytes"] <= 4096
