"""Connection & data-mover lifecycle hardening (the ISSUE 3 bug classes).

Two failure modes this file pins down:

* a **stale pooled socket** after a server restart must never be fed to
  the failure detector as node evidence — the client reconnects
  transparently and only the fresh attempt counts;
* a **miss storm** must not spawn unbounded data-mover threads — the
  bounded pool coalesces duplicates, makes the submitter run what the
  full queue cannot take (nothing is shed), and drains gracefully on close.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.runtime import LocalCluster
from repro.runtime.server import DataMoverPool, FTCacheServer, ServerStats
from repro.runtime.storage import NVMeDir, PFSDir


def _mover_threads(node_id: int = 0) -> list[threading.Thread]:
    prefix = f"data-mover-{node_id}-"
    return [t for t in threading.enumerate() if t.name.startswith(prefix) and t.is_alive()]


class _SlowNVMeDir(NVMeDir):
    """NVMe stand-in whose writes lag, so the mover queue actually fills."""

    def __init__(self, root, write_delay: float = 0.002, **kwargs):
        super().__init__(root, **kwargs)
        self.write_delay = write_delay

    def write(self, key: str, data: bytes) -> None:
        time.sleep(self.write_delay)
        super().write(key, data)


class _GatedNVMeDir(NVMeDir):
    """NVMe stand-in whose writes announce themselves, park until released,
    and record which thread performed them."""

    def __init__(self, root):
        super().__init__(root)
        self.entered = threading.Semaphore(0)
        self.release = threading.Event()
        self.writers: dict[str, str] = {}

    def write(self, key: str, data: bytes) -> None:
        self.writers[key] = threading.current_thread().name
        self.entered.release()
        assert self.release.wait(timeout=10)
        super().write(key, data)


class TestStaleSocketRegression:
    def test_same_address_restart_is_not_detector_evidence(self, tmp_path):
        """Kill→restart on the same host:port: the client's pooled socket is
        dead, but the node is healthy — zero declarations, zero timeouts."""
        with LocalCluster(
            n_servers=2, workdir=tmp_path, policy="nvme", ttl=0.5, timeout_threshold=2
        ) as c:
            paths = c.populate(n_files=8, file_bytes=512, seed=5)
            client = c.client()
            expected = {p: c.pfs.resolve(p).read_bytes() for p in paths}
            for p in paths:  # pool one connection per live server
                client.read(p)
            victim = c.owner_of(paths[0], client.policy)
            c.kill_server(victim, mode="drop")
            # The node comes back under its old identity before the client
            # notices; nobody tells the client (notify_clients=False).
            c.restart_server(victim, notify_clients=False, same_address=True)
            for p in paths:
                assert client.read(p) == expected[p]
            stats = client.stats
            assert stats["declared"] == 0
            assert stats["timeouts"] == 0
            assert stats["reconnects"] >= 1  # the stale socket was retried, not reported
            assert client.detector.stats.declared_failures == 0
            assert victim not in client.policy.failed_nodes

    def test_rolling_restart_without_notify_is_transparent(self, tmp_path):
        with LocalCluster(
            n_servers=1, workdir=tmp_path, policy="nvme", ttl=0.5, timeout_threshold=1
        ) as c:
            paths = c.populate(n_files=4, file_bytes=256, seed=6)
            client = c.client()
            for p in paths:
                client.read(p)
            # threshold=1: a single piece of false evidence would declare.
            c.restart_server(0, notify_clients=False, same_address=True)
            for p in paths:
                assert len(client.read(p)) == 256
            assert client.stats["declared"] == 0
            assert client.stats["timeouts"] == 0

    def test_admit_node_epoch_invalidates_every_threads_pool(self, tmp_path):
        """Pools are per-thread; the epoch bump in admit_node must retire
        stale sockets on threads that never saw the restart happen."""
        with LocalCluster(
            n_servers=2, workdir=tmp_path, policy="nvme", ttl=0.5, timeout_threshold=2
        ) as c:
            paths = c.populate(n_files=12, file_bytes=256, seed=7)
            client = c.client()
            errors: list[Exception] = []
            barrier = threading.Barrier(3)

            def reader(offset: int) -> None:
                try:
                    for p in paths:  # phase 1: pool sockets on this thread
                        client.read(p)
                    barrier.wait(timeout=5)
                    barrier.wait(timeout=10)  # phase 2 starts after the restart
                    for p in paths:
                        assert len(client.read(p)) == 256
                except Exception as exc:  # pragma: no cover - failure path
                    errors.append(exc)

            threads = [
                threading.Thread(target=reader, args=(k,), name=f"lifecycle-reader-{k}", daemon=True)
                for k in range(2)
            ]
            for t in threads:
                t.start()
            barrier.wait(timeout=5)
            c.restart_server(0, notify_clients=True, same_address=True)
            barrier.wait(timeout=5)
            for t in threads:
                t.join(timeout=10)
            assert errors == []
            assert client.stats["declared"] == 0
            assert client.stats["timeouts"] == 0

    def test_real_failure_still_detected(self, tmp_path):
        """Hardening must not swallow genuine failures: a hung node still
        walks the timeout → threshold → declaration path."""
        with LocalCluster(
            n_servers=2, workdir=tmp_path, policy="nvme", ttl=0.2, timeout_threshold=2
        ) as c:
            paths = c.populate(n_files=6, file_bytes=256, seed=8)
            client = c.client()
            for p in paths:
                client.read(p)
            victim = c.owner_of(paths[0], client.policy)
            c.kill_server(victim, mode="hang")
            assert len(client.read(paths[0])) == 256
            assert client.stats["declared"] == 1
            assert victim in client.policy.failed_nodes

    def test_client_stat_split_keeps_alias(self, tmp_path):
        with LocalCluster(n_servers=1, workdir=tmp_path, policy="nvme") as c:
            paths = c.populate(n_files=4, file_bytes=128, seed=9)
            client = c.client()
            for p in paths:  # misses: served by the server *from the PFS*
                client.read(p)
            deadline = time.monotonic() + 5.0
            while c.servers[0].mover.queue_len and time.monotonic() < deadline:
                time.sleep(0.01)
            for p in paths:  # hits: served from the cache
                client.read(p)
            stats = client.stats
            assert stats["server_pfs_reads"] >= len(paths)
            assert stats["server_cache_reads"] >= 1
            assert "cache_reads" not in stats  # the pre-split alias is gone


class TestDataMoverPool:
    def test_miss_storm_keeps_threads_bounded(self, tmp_path):
        """500 distinct misses against one server with an 8-deep queue and a
        slow device: live mover threads stay at the pool size, the overflow
        is installed by the submitting thread, and nothing is shed."""
        pfs = PFSDir(tmp_path / "pfs")
        keys = [f"/dataset/storm/sample_{i:06d}.bin" for i in range(500)]
        for k in keys:
            pfs.write(k, b"\x42" * 64)
        nvme = _SlowNVMeDir(tmp_path / "nvme", write_delay=0.002)
        server = FTCacheServer(0, nvme, pfs, mover_workers=2, mover_queue_depth=8)
        try:
            baseline = threading.active_count()
            max_movers = 0
            max_active = 0
            for k in keys:
                resp = server._read(k)
                assert resp.ok and resp.header["source"] == "pfs"
                max_movers = max(max_movers, len(_mover_threads(0)))
                max_active = max(max_active, threading.active_count())
                assert server.mover.queue_len <= 8
            assert max_movers <= 2
            # the old thread-per-miss code would have pushed this by O(storm)
            assert max_active <= baseline + 4
            counters = server.stats.counters()
            assert counters["mover_enqueued"] + counters["mover_coalesced"] == 500
        finally:
            server.close()
        # graceful drain: everything admitted got written — queued or caller-run
        final = server.stats.counters()
        assert final["mover_dropped"] == 0
        assert final["recached"] == final["mover_enqueued"] == 500
        assert nvme.entry_count() == 500
        assert len(_mover_threads(0)) == 0  # workers exited

    def test_duplicate_keys_coalesce(self, tmp_path):
        nvme = _SlowNVMeDir(tmp_path / "nvme", write_delay=0.01)
        stats = ServerStats()
        pool = DataMoverPool(nvme, stats, node_id=7, workers=1, queue_depth=16)
        try:
            for _ in range(10):
                assert pool.submit("/same/key.bin", b"payload")
        finally:
            pool.close()
        assert stats.mover_coalesced >= 8
        assert stats.mover_enqueued + stats.mover_coalesced == 10
        assert stats.mover_dropped == 0
        assert nvme.entry_count() == 1

    def test_overflow_runs_on_the_caller(self, tmp_path):
        """A full queue makes the submitter install its own entry — on its
        own thread, before ``submit`` returns — and a duplicate of that key
        submitted meanwhile is coalesced, not installed twice."""
        nvme = _GatedNVMeDir(tmp_path / "nvme")
        stats = ServerStats()
        pool = DataMoverPool(nvme, stats, node_id=8, workers=1, queue_depth=1)
        overflow = threading.Thread(
            target=pool.submit, args=("/k2.bin", b"x" * 16), name="overflow-submitter", daemon=True
        )
        try:
            pool.submit("/k0.bin", b"x" * 16)
            assert nvme.entered.acquire(timeout=10)  # the worker holds k0, parked in write
            pool.submit("/k1.bin", b"x" * 16)  # fills the queue
            overflow.start()
            assert nvme.entered.acquire(timeout=10)  # k2's install is running inline
            assert pool.queue_len == 1 and overflow.is_alive()
            assert pool.submit("/k2.bin", b"x" * 16)  # returns at once: coalesced
            assert stats.mover_coalesced == 1
        finally:
            nvme.release.set()
            overflow.join(timeout=10)
            pool.close()
        assert not overflow.is_alive()
        assert nvme.writers["/k2.bin"] == "overflow-submitter"
        assert nvme.writers["/k0.bin"] == nvme.writers["/k1.bin"] == "data-mover-8-0"
        assert (stats.mover_enqueued, stats.recached, stats.mover_dropped) == (3, 3, 0)
        assert nvme.entry_count() == 3

    def test_close_drains_queue(self, tmp_path):
        nvme = _SlowNVMeDir(tmp_path / "nvme", write_delay=0.005)
        stats = ServerStats()
        pool = DataMoverPool(nvme, stats, node_id=9, workers=2, queue_depth=64)
        for i in range(20):
            pool.submit(f"/drain/{i}.bin", b"y" * 32)
        pool.close()
        assert nvme.entry_count() == 20
        assert stats.recached == 20
        assert not pool.submit("/late.bin", b"z")  # closed pool refuses work

    def test_validation(self, tmp_path):
        nvme = NVMeDir(tmp_path / "nvme")
        with pytest.raises(ValueError):
            DataMoverPool(nvme, ServerStats(), 0, workers=0)
        with pytest.raises(ValueError):
            DataMoverPool(nvme, ServerStats(), 0, queue_depth=0)

    def test_mover_counters_surface_in_stat_and_snapshots(self, tmp_path):
        with LocalCluster(n_servers=1, workdir=tmp_path, mover_workers=1, mover_queue_depth=4) as c:
            paths = c.populate(n_files=6, file_bytes=128, seed=10)
            client = c.client()
            for p in paths:
                client.read(p)
            stat = client.server_stat(0)
            assert stat is not None
            for key in ("mover_enqueued", "mover_coalesced", "mover_dropped",
                        "mover_queue_len", "mover_workers", "race_fallthroughs"):
                assert key in stat
            snap = c.server_snapshots()[0]
            for key in ("mover_enqueued", "mover_dropped", "race_fallthroughs", "mover_queue_len"):
                assert key in snap
            totals = c.total_stats()
            assert totals["mover_enqueued"] >= 1


class TestRaceFallthroughCounter:
    def test_lost_eviction_race_is_counted(self, tmp_path):
        pfs = PFSDir(tmp_path / "pfs")
        key = "/dataset/race/sample.bin"
        pfs.write(key, b"truth" * 10)
        nvme = NVMeDir(tmp_path / "nvme")
        server = FTCacheServer(0, nvme, pfs)
        try:
            nvme.write(key, b"truth" * 10)
            real_read = nvme.read

            def racing_read(k):
                nvme.drop(k)  # the contains()→read() race, lost to an eviction
                return real_read(k)

            nvme.read = racing_read
            resp = server._read(key)
            assert resp.ok and resp.header["source"] == "pfs"
            counters = server.stats.counters()
            assert counters["race_fallthroughs"] == 1
            assert counters["misses"] == 1  # still a miss, now with a trace
        finally:
            server.close()
