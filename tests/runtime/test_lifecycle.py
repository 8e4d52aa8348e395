"""Connection & data-mover lifecycle hardening.

Two failure modes this file pins down:

* a **stale pooled socket** after a server restart must never be fed to
  the failure detector as node evidence — the client reconnects
  transparently and only the fresh attempt counts;
* a **miss storm** must not spawn threads beyond the dispatch threads —
  each miss claims its install before its reply and writes it on its own
  dispatch thread after, duplicates coalesce, nothing is shed, and close
  waits for what was claimed.
"""

from __future__ import annotations

import socket
import threading
import time

import pytest

from repro.obs import reset_event_log
from repro.runtime import LocalCluster, Message, ReadError, recv_message
from repro.runtime.protocol import OP_READ
from repro.runtime.server import FTCacheServer
from repro.runtime.storage import NVMeDir, PFSDir

from tests.runtime.test_server_conn import _connect, _read_req, _stat_req


def _threads(prefix: str) -> list[threading.Thread]:
    return [t for t in threading.enumerate() if t.name.startswith(prefix) and t.is_alive()]


def _rpc(sock: socket.socket, frame: bytes) -> Message:
    sock.sendall(frame)
    resp = recv_message(sock)
    assert resp.ok, resp.header
    return resp


class _GatedNVMeDir(NVMeDir):
    """NVMe stand-in whose writes announce themselves and park until
    released; it records the keys written and how many were when closed."""

    def __init__(self, root):
        super().__init__(root)
        self.entered = threading.Semaphore(0)
        self.release = threading.Event()
        self.writes: list[str] = []
        self.written_at_close = None

    def write(self, key: str, data: bytes) -> None:
        self.entered.release()
        assert self.release.wait(timeout=10)
        super().write(key, data)
        self.writes.append(key)

    def close(self) -> None:
        if self.written_at_close is None:
            self.written_at_close = len(self.writes)
        super().close()


def _gated_server(tmp_path, files: dict[str, bytes]) -> tuple[FTCacheServer, _GatedNVMeDir]:
    pfs = PFSDir(tmp_path / "pfs")
    for key, data in files.items():
        pfs.write(key, data)
    nvme = _GatedNVMeDir(tmp_path / "nvme")
    return FTCacheServer(0, nvme, pfs).start(), nvme


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
            while c.servers[0].mover_queue_len and time.monotonic() < deadline:
                time.sleep(0.01)
            for p in paths:  # hits: served from the cache
                client.read(p)
            stats = client.stats
            assert stats["server_pfs_reads"] >= len(paths)
            assert stats["server_cache_reads"] >= 1
            assert "cache_reads" not in stats  # the pre-split alias is gone


class TestRefusedRequestIsNotEvidence:
    @pytest.mark.parametrize("batched", [False, True], ids=["read", "read_many"])
    def test_over_long_key_is_a_read_error_not_a_dead_node(self, tmp_path, batched):
        """A key the codec refuses (over 64 KiB) is the caller's mistake: a
        ReadError each time, with no detector evidence and no pooled socket
        retired — three of them used to declare all three nodes dead."""
        with LocalCluster(
            n_servers=3, workdir=tmp_path, policy="nvme", ttl=0.5, timeout_threshold=2
        ) as c:
            paths = c.populate(n_files=6, file_bytes=256, seed=10)
            client = c.client()
            expected = {p: c.pfs.resolve(p).read_bytes() for p in paths}
            client.read_many(paths)  # pool a socket to every owner
            pooled = dict(client._pool.conns)
            long_key = "/" + "k" * 70000
            for _ in range(3):
                with pytest.raises(ReadError):
                    if batched:
                        client.read_many([*paths, long_key])
                    else:
                        client.read(long_key)
            stats = client.stats
            assert (stats["timeouts"], stats["declared"], stats["reconnects"]) == (0, 0, 0)
            assert not client.policy.failed_nodes
            assert client._pool.conns == pooled
            assert client.read(paths[0]) == expected[paths[0]]
            assert client.read_many(paths) == [expected[p] for p in paths]


class TestDataMoverPool:
    """The install path: claimed before the reply, written after it on the
    dispatch thread that served the miss — no thread or queue of its own."""

    def test_miss_storm_keeps_threads_bounded(self, tmp_path):
        """500 distinct misses pipelined at one server: no thread beyond its
        dispatch threads ever runs, and every miss is recached."""
        pfs = PFSDir(tmp_path / "pfs")
        keys = [f"/dataset/storm/sample_{i:06d}.bin" for i in range(500)]
        for k in keys:
            pfs.write(k, b"\x42" * 64)
        nvme = NVMeDir(tmp_path / "nvme")
        server = FTCacheServer(0, nvme, pfs, dispatch_workers=3).start()
        try:
            with _connect(server) as sock:
                sock.sendall(b"".join(_read_req(k, seq) for seq, k in enumerate(keys, start=1)))
                for _ in keys:
                    resp = recv_message(sock)
                    assert resp.ok and resp.header["source"] == "pfs"
                    assert len(_threads("ftcache-server-0-exec")) <= 3
                    assert not _threads("data-mover-")
        finally:
            server.close()  # returns once every claimed install is written
        final = server.stats.snapshot()
        assert final["mover_dropped"] == final["mover_coalesced"] == 0
        assert final["recached"] == final["mover_enqueued"] == 500
        assert nvme.entry_count() == 500

    def test_duplicate_keys_coalesce(self, tmp_path):
        """A second dispatch thread missing a key whose install is still
        being written serves it and coalesces: the key is written once."""
        server, nvme = _gated_server(tmp_path, {"/same/key.bin": b"payload"})
        try:
            with _connect(server) as sock:
                assert _rpc(sock, _read_req("/same/key.bin", 1)).payload == b"payload"
                assert nvme.entered.acquire(timeout=10)  # its install is parked in write
                second = _rpc(sock, _read_req("/same/key.bin", 2))
                assert second.payload == b"payload" and second.header["source"] == "pfs"
        finally:
            nvme.release.set()
            server.close()
        assert nvme.writes == ["/same/key.bin"]
        c = server.stats.snapshot()
        assert (c["misses"], c["mover_enqueued"], c["mover_coalesced"], c["recached"]) == (2, 1, 1, 1)

    def test_serve_then_cache(self, tmp_path, monkeypatch):
        """Sec IV-B order: a miss's bytes reach the client while its install
        is parked on the device, and the install was claimed when the reply's
        bytes went to the kernel; releasing the device brings STAT to
        quiescence."""
        server, nvme = _gated_server(tmp_path, {"/k.bin": b"bytes"})
        sent: list[int] = []  # claimed installs as each reply was handed to the kernel
        sendmsg = socket.socket.sendmsg
        try:
            with _connect(server) as sock:
                client = sock.getsockname()

                def recording_sendmsg(self, buffers, *args):  # the job's one send to this client
                    if self.getpeername() == client:
                        sent.append(server.mover_queue_len)
                    return sendmsg(self, buffers, *args)

                monkeypatch.setattr(socket.socket, "sendmsg", recording_sendmsg)
                assert _rpc(sock, _read_req("/k.bin", 1)).payload == b"bytes"
                monkeypatch.undo()
                assert sent == [1]
                assert nvme.entered.acquire(timeout=10) and not nvme.writes
                stat = _rpc(sock, _stat_req(2)).header
                assert stat["mover_queue_len"] == 1
                assert stat["mover_enqueued"] - stat["recached"] == 1
                nvme.release.set()
                deadline = time.monotonic() + 10
                while stat["mover_queue_len"] or stat["mover_enqueued"] != stat["recached"]:
                    assert time.monotonic() < deadline, stat
                    stat = _rpc(sock, _stat_req(3)).header
            assert nvme.writes == ["/k.bin"] and stat["recached"] == 1
        finally:
            nvme.release.set()
            server.close()

    def test_close_waits_for_a_claimed_install(self, tmp_path):
        """close() returns after a claimed install is written, and closes
        the NVMe dir only then."""
        server, nvme = _gated_server(tmp_path, {"/k.bin": b"bytes"})
        closer = threading.Thread(target=server.close, name="closer", daemon=True)
        try:
            with _connect(server) as sock:
                assert _rpc(sock, _read_req("/k.bin", 1)).payload == b"bytes"
            assert nvme.entered.acquire(timeout=10)
            closer.start()
            closer.join(timeout=0.3)
            assert closer.is_alive()  # held by the parked install
        finally:
            nvme.release.set()
            if closer.is_alive():
                closer.join(timeout=10)
            server.close()
        assert not closer.is_alive()
        assert nvme.written_at_close == 1
        assert server.stats.snapshot()["recached"] == 1 and server.mover_queue_len == 0

    def test_install_larger_than_the_device_is_dropped_and_counted(self, tmp_path):
        """An entry bigger than the whole device is served, then its claimed
        install is refused: booked in mover_dropped, not in recached."""
        with LocalCluster(n_servers=1, workdir=tmp_path, nvme_capacity_bytes=64) as c:
            (path,) = c.populate(n_files=1, file_bytes=128, seed=11)
            assert c.client().read(path) == c.pfs.read(path)
            server = c.servers[0]
            server.close()  # returns once the claimed install has run
            counters = server.stats.snapshot()
            assert (counters["mover_enqueued"], counters["mover_dropped"], counters["recached"]) == (1, 1, 0)

    def test_validation(self, tmp_path):
        with pytest.raises(ValueError):
            FTCacheServer(0, NVMeDir(tmp_path / "nvme"), PFSDir(tmp_path / "pfs"), dispatch_workers=0)

    def test_mover_counters_surface_in_stat_and_snapshots(self, tmp_path):
        with LocalCluster(n_servers=1, workdir=tmp_path) as c:
            paths = c.populate(n_files=6, file_bytes=128, seed=10)
            client = c.client()
            for p in paths:
                client.read(p)
            stat = client.server_stat(0)
            assert stat is not None
            for key in ("mover_enqueued", "mover_coalesced", "mover_dropped", "mover_queue_len"):
                assert key in stat
            assert "mover_workers" not in stat
            snap = c.server_snapshots()[0]
            for key in ("mover_enqueued", "mover_dropped", "mover_queue_len"):
                assert key in snap
            totals = c.total_stats()
            assert totals["mover_enqueued"] >= 1


class TestLifecycleLog:
    def test_evicting_installs_leave_lifecycle_events_in_the_ring(self, tmp_path):
        """Installs and evictions are counters and spans, not events: 2 000
        evicting installs do not push a death declaration out of the
        lifecycle ring."""
        log = reset_event_log()
        try:
            nvme = NVMeDir(tmp_path / "nvme", capacity_bytes=4 * 4096)
            server = FTCacheServer(0, nvme, PFSDir(tmp_path / "pfs"))
            log.emit("death_declared", node=7)
            for i in range(2000):
                server._install(f"/churn/{i:04d}.bin", b"x" * 4096, None)
            server.close()
            assert nvme.evictions == 2000 - 4
            assert server.stats.snapshot()["recached"] == 2000
            assert [e["kind"] for e in log.snapshot()] == ["death_declared"]
        finally:
            reset_event_log()


class TestRaceFallthroughCounter:
    def test_a_pinned_entry_never_falls_through(self, tmp_path):
        """A READ that missed at decode finds its entry in its job, which is
        evicted the moment it is opened: the open entry pins its slot, so
        the cached bytes are served by sendfile and nothing falls through."""
        pfs = PFSDir(tmp_path / "pfs")
        key = "/dataset/race/sample.bin"
        pfs.write(key, b"truth" * 10)
        nvme = NVMeDir(tmp_path / "nvme")
        nvme.write(key, b"cache" * 10)
        server = FTCacheServer(0, nvme, pfs).start()
        real_open = nvme.open_read
        lookups: list[str] = []

        def open_then_evict(path):
            lookups.append(path)
            if len(lookups) == 1:
                return None  # the decode's lookup: a miss
            entry = real_open(path)
            nvme.drop(path)  # the eviction wins right after the job's open
            return entry

        nvme.open_read = open_then_evict
        try:
            with _connect(server) as sock:
                resp = _rpc(sock, _read_req(key, 1))
        finally:
            server.close()
        assert lookups == [key, key]
        assert resp.header["source"] == "cache" and resp.payload == b"cache" * 10
        c = server.stats.snapshot()
        assert c["misses"] == c["pfs_reads"] == 0
        assert c["hits"] == c["sendfile_serves"] == 1
        assert not nvme.contains(key)
