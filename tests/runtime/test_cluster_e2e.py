"""End-to-end tests of the threaded runtime: real sockets, real failures."""

import socket

import pytest

from repro.core import UnrecoverableNodeFailure
from repro.runtime import LocalCluster, ReadError
from repro.runtime.protocol import FrameReader

from tests.runtime.test_server_conn import _read_req, _stat_req, _wait


def _recached(client, nodes) -> int:
    """Installs written across ``nodes`` (STAT), or -1 while any is still claimed."""
    stats = [client.server_stat(n) for n in nodes]
    return -1 if any(s["mover_queue_len"] for s in stats) else sum(s["recached"] for s in stats)


@pytest.fixture
def cluster():
    with LocalCluster(n_servers=4, policy="nvme", ttl=0.3, timeout_threshold=2) as c:
        c.populate(n_files=24, file_bytes=2048, seed=1)
        yield c


class TestHappyPath:
    def test_miss_then_hit(self, cluster):
        client = cluster.client()
        path = cluster.paths[0]
        data1 = client.read(path)
        data2 = client.read(path)
        assert data1 == data2 and len(data1) == 2048
        stats = cluster.total_stats()
        assert stats["pfs_reads"] >= 1

    def test_all_files_cached_after_full_pass(self, cluster):
        client = cluster.client()
        for p in cluster.paths:
            client.read(p)
        _wait(lambda: _recached(client, cluster.servers) == len(cluster.paths))  # recaches trail replies
        for p in cluster.paths:
            client.read(p)
        stats = cluster.total_stats()
        assert stats["hits"] >= len(cluster.paths)
        assert stats["recached"] == len(cluster.paths)

    def test_content_integrity(self, cluster):
        client = cluster.client()
        direct = {p: cluster.pfs.read(p) for p in cluster.paths[:6]}
        for p, expected in direct.items():
            assert client.read(p) == expected
            assert client.read(p) == expected  # cached copy identical
        # a write is durable in the PFS and installed in the owner's cache
        path, data = "/dataset/train/written.bin", b"\x5a" * 4096
        client.write(path, data)
        assert cluster.pfs.read(path) == data
        assert client.stats["writes"] == client.stats["cache_installs"] == 1
        pfs_reads = client.stats["server_pfs_reads"]
        assert client.read(path) == data
        assert client.stats["server_pfs_reads"] == pfs_reads  # served from the installed copy

    def test_missing_file_raises(self, cluster):
        client = cluster.client()
        with pytest.raises(ReadError, match="no such file"):
            client.read("/dataset/train/missing.bin")

    def test_bad_keys_are_read_errors_not_failures(self, tmp_path):
        """A key naming a PFS directory, one going through a file and one
        with a leaf over 255 bytes each get an error reply: the client
        raises ``ReadError``, feeds nothing to the detector, and keeps its
        pooled socket for the next read, which then hits."""
        with LocalCluster(n_servers=1, workdir=tmp_path, ttl=0.3) as one:
            path = one.populate(n_files=1, file_bytes=512)[0]
            (one.pfs.root / "sub").mkdir()
            client = one.client()
            client.read(path)  # a miss, recached
            _wait(lambda: _recached(client, [0]) == 1)
            sock = client._pool.conns[0].sock
            for key in ("sub", path + "/x", "/" + "k" * 300):
                with pytest.raises(ReadError):
                    client.read(key)
            hits = client.server_stat(0)["hits"]
            assert client.read(path) == one.pfs.read(path)
            assert client.server_stat(0)["hits"] == hits + 1
            assert client._pool.conns[0].sock is sock
            stats = client.stats
            assert stats["timeouts"] == stats["declared"] == stats["reconnects"] == 0
            assert client.policy.failed_nodes == set()

    def test_server_stat(self, cluster):
        client = cluster.client()
        client.read(cluster.paths[0])
        node = cluster.owner_of(cluster.paths[0], client.policy)
        stat = client.server_stat(node)
        assert stat is not None and stat["node_id"] == node

    def test_ping_live_server(self, cluster):
        client = cluster.client()
        node = cluster.owner_of(cluster.paths[0], client.policy)
        assert client.ping(node) is True

    def test_ping_dead_server_false_and_feeds_detector(self, cluster):
        client = cluster.client()
        victim = cluster.owner_of(cluster.paths[0], client.policy)
        cluster.kill_server(victim, mode="hang")
        assert client.ping(victim) is False
        assert client.detector.pending_count(victim) >= 1

    def test_load_spread_across_servers(self, cluster):
        client = cluster.client()
        for p in cluster.paths:
            client.read(p)
        served = [s.stats.hits + s.stats.misses for s in cluster.servers.values()]
        assert sum(1 for x in served if x > 0) >= 3  # ring spreads load


class TestFailureRecovery:
    def test_hang_failure_detected_and_rerouted(self, cluster):
        client = cluster.client()
        for p in cluster.paths:
            client.read(p)
        victim = cluster.owner_of(cluster.paths[0], client.policy)
        cluster.kill_server(victim, mode="hang")
        data = client.read(cluster.paths[0])
        assert len(data) == 2048
        assert client.stats["declared"] == 1
        assert victim in client.policy.failed_nodes
        assert victim not in client.policy.placement.nodes

    def test_drop_failure_detected(self, cluster):
        client = cluster.client()
        client.read(cluster.paths[0])
        victim = cluster.owner_of(cluster.paths[0], client.policy)
        cluster.kill_server(victim, mode="drop")
        assert client.read(cluster.paths[0]) is not None
        assert client.stats["declared"] == 1

    def test_subsequent_reads_fast_after_recache(self, cluster):
        import time

        client = cluster.client()
        for p in cluster.paths:
            client.read(p)
        victim = cluster.owner_of(cluster.paths[0], client.policy)
        cluster.kill_server(victim)
        client.read(cluster.paths[0])  # pays detection
        t0 = time.monotonic()
        client.read(cluster.paths[0])  # re-homed; no TTL involved
        assert time.monotonic() - t0 < cluster.ttl

    def test_pfs_redirect_policy(self):
        with LocalCluster(n_servers=3, policy="pfs", ttl=0.3, timeout_threshold=2) as c:
            paths = c.populate(n_files=12, file_bytes=512)
            client = c.client()
            for p in paths:
                client.read(p)
            victim = c.owner_of(paths[0], client.policy)
            c.kill_server(victim)
            # Find a path owned by the victim and read it twice: both hit PFS.
            lost = [p for p in paths if client.policy.placement.lookup(p) == victim]
            before = client.stats["pfs_direct_reads"]
            for p in lost:
                client.read(p)
                client.read(p)
            assert client.stats["pfs_direct_reads"] == before + 2 * len(lost)

    def test_noft_policy_aborts(self):
        with LocalCluster(n_servers=3, policy="NoFT", ttl=0.2, timeout_threshold=1) as c:
            paths = c.populate(n_files=6, file_bytes=256)
            client = c.client()
            for p in paths:
                client.read(p)
            victim = c.owner_of(paths[0], client.policy)
            c.kill_server(victim)
            lost = next(p for p in paths if client.policy.placement.lookup(p) == victim)
            with pytest.raises(UnrecoverableNodeFailure):
                client.read(lost)

    def test_two_failures_survived(self, cluster):
        client = cluster.client()
        for p in cluster.paths:
            client.read(p)
        survivors = cluster.alive_servers
        cluster.kill_server(survivors[0])
        cluster.kill_server(survivors[1])
        for p in cluster.paths:
            assert len(client.read(p)) == 2048
        assert len(client.policy.placement.nodes) == 2


class TestBooksAheadOfReplies:
    """A batch is booked once — a server's hits once per decode round, the
    client's reads once per ``read_many`` — and the books still close before
    anyone can hold a reply they describe."""

    def test_stat_after_a_pipelined_batch_counts_every_hit(self):
        with LocalCluster(n_servers=1, policy="nvme") as c:
            paths = c.populate(n_files=32, file_bytes=4096, seed=5)
            server = c.servers[0]
            for p in paths:
                server.nvme.write(p, c.pfs.read(p))
            with socket.create_connection(server.address, timeout=5) as sock:
                sock.settimeout(5)
                reader = FrameReader(sock)
                sock.sendall(_stat_req(100))
                before = reader.recv().header
                sock.sendall(b"".join(_read_req(p, seq) for seq, p in enumerate(paths, start=1)))
                replies = {r.seq: r for r in (reader.recv() for _ in paths)}
                sock.sendall(_stat_req(101))  # the moment the last reply is in
                after = reader.recv().header
            assert [replies[i + 1].payload for i in range(32)] == [c.pfs.read(p) for p in paths]
            assert all(r.header["source"] == "cache" for r in replies.values())
            delta = {k: after[k] - before[k] for k in ("hits", "sendfile_serves", "binary_reqs")}
            assert delta == {"hits": 32, "sendfile_serves": 32, "binary_reqs": 32 + 1}  # + this STAT

    def test_mixed_batch_books_per_key_and_leaves_no_frame_behind(self, cluster):
        client = cluster.client()
        warm, cold = cluster.paths[:12], cluster.paths[12:]
        assert client.read_many(warm) == [cluster.pfs.read(p) for p in warm]
        _wait(lambda: _recached(client, cluster.servers) == len(warm))
        before = client.stats
        with pytest.raises(ReadError, match="no such file"):
            client.read_many([*warm, "/dataset/train/missing.bin", *cold])
        after = client.stats
        moved = {k: after[k] - before[k] for k in after if after[k] != before[k]}
        assert moved == {"server_cache_reads": len(warm), "server_pfs_reads": len(cold),
                         "pipelined_reads": len(warm) + len(cold)}
        assert len(client._pool.conns) == len(cluster.servers)
        for conn in client._pool.conns.values():
            assert conn.reader._lo == conn.reader._hi  # nothing buffered ...
            conn.sock.setblocking(False)
            with pytest.raises(BlockingIOError):  # ... and nothing left in the kernel
                conn.sock.recv(1, socket.MSG_PEEK)
            conn.sock.settimeout(client.detector.ttl)
        assert client.read_many(cluster.paths) == [cluster.pfs.read(p) for p in cluster.paths]
        assert client.stats["reconnects"] == 0


class TestClusterManager:
    def test_populate_writes_pfs(self, cluster):
        assert len(cluster.paths) == 24
        assert cluster.pfs.exists(cluster.paths[-1])

    def test_alive_servers_tracking(self, cluster):
        assert sorted(cluster.alive_servers) == [0, 1, 2, 3]
        cluster.kill_server(2)
        assert 2 not in cluster.alive_servers

    def test_invalid_size(self):
        with pytest.raises(ValueError):
            LocalCluster(n_servers=0)

    def test_static_policy_cluster(self):
        with LocalCluster(n_servers=2, policy="pfs") as c:
            c.populate(n_files=4, file_bytes=128)
            client = c.client()
            assert all(len(client.read(p)) == 128 for p in c.paths)
