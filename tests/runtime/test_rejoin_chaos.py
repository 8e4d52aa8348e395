"""Tests for elastic rejoin and the chaos harness (real sockets/threads)."""

import time

import pytest

from repro.runtime import LocalCluster
from repro.runtime.chaos import ChaosMonkey


def _movers_quiet(client, nodes, timeout: float = 10.0) -> None:
    """Condition wait on STAT: each node's data movers have installed (or
    refused) every recache they accepted."""
    deadline = time.monotonic() + timeout
    for node in nodes:
        while True:
            stat = client.server_stat(node)
            if stat["mover_queue_len"] == 0 and (
                stat["mover_enqueued"] - stat["mover_dropped"] == stat["recached"]
            ):
                break
            assert time.monotonic() < deadline, f"node {node}'s data movers never went quiet"


class TestRejoin:
    def test_restart_brings_node_back(self):
        with LocalCluster(n_servers=3, policy="nvme", ttl=0.3, timeout_threshold=2) as c:
            paths = c.populate(n_files=12, file_bytes=512)
            client = c.client()
            for p in paths:
                client.read(p)
            victim = c.owner_of(paths[0], client.policy)
            c.kill_server(victim)
            client.read(paths[0])  # declare + reroute
            assert victim in client.policy.failed_nodes
            c.restart_server(victim)
            assert victim in c.alive_servers
            assert victim not in client.policy.failed_nodes
            assert victim in client.policy.placement.nodes

    def test_rejoin_is_warm(self):
        with LocalCluster(n_servers=3, policy="nvme", ttl=0.3, timeout_threshold=2) as c:
            paths = c.populate(n_files=12, file_bytes=512)
            client = c.client()
            for p in paths:
                client.read(p)
            _movers_quiet(client, c.servers)  # every recache lands before the failure
            victim = c.owner_of(paths[0], client.policy)
            c.kill_server(victim)
            client.read(paths[0])
            c.restart_server(victim)
            pfs_before = c.pfs.reads
            for p in paths:
                client.read(p)
            # The rejoined node's cache dir survived: nothing refetches.
            assert c.pfs.reads == pfs_before

    def test_routing_restored_after_rejoin(self):
        with LocalCluster(n_servers=3, policy="nvme", ttl=0.3, timeout_threshold=2) as c:
            paths = c.populate(n_files=12, file_bytes=512)
            client = c.client()
            before = {p: client.policy.target_for(p).node for p in paths}
            victim = before[paths[0]]
            c.kill_server(victim)
            client.read(paths[0])
            c.restart_server(victim)
            after = {p: client.policy.target_for(p).node for p in paths}
            assert after == before  # ring identical to the pre-failure one

    def test_restart_without_prior_failure_errors_gracefully(self):
        # Restarting a healthy node = rolling restart; must still work.
        with LocalCluster(n_servers=2, policy="nvme", ttl=0.3, timeout_threshold=2) as c:
            paths = c.populate(n_files=4, file_bytes=256)
            client = c.client()
            client.read(paths[0])
            c.restart_server(0)
            assert all(len(client.read(p)) == 256 for p in paths)


class TestChaosMonkey:
    def test_validation(self):
        with LocalCluster(n_servers=2) as c:
            with pytest.raises(ValueError):
                ChaosMonkey(c, interval=0)
            with pytest.raises(ValueError):
                ChaosMonkey(c, restart_prob=1.5)
            with pytest.raises(ValueError):
                ChaosMonkey(c, min_alive=0)

    def test_reads_survive_sustained_chaos(self):
        with LocalCluster(n_servers=4, policy="nvme", ttl=0.25, timeout_threshold=2) as c:
            paths = c.populate(n_files=24, file_bytes=1024, seed=11)
            client = c.client()
            expected = {p: c.pfs.resolve(p).read_bytes() for p in paths}
            monkey = ChaosMonkey(c, interval=0.15, restart_prob=0.45, min_alive=1, seed=7)
            reads = 0
            with monkey:
                deadline = time.monotonic() + 4.0
                while time.monotonic() < deadline:
                    for p in paths:
                        assert client.read(p) == expected[p]
                        reads += 1
            assert reads >= len(paths)
            assert monkey.kills >= 1  # chaos actually happened
            assert c.alive_servers  # floor respected

    def test_min_alive_respected(self):
        with LocalCluster(n_servers=3, policy="nvme", ttl=0.2, timeout_threshold=1) as c:
            c.populate(n_files=4, file_bytes=128)
            monkey = ChaosMonkey(c, interval=0.05, restart_prob=0.0, min_alive=2, seed=3)
            with monkey:
                time.sleep(1.0)
            assert len(c.alive_servers) >= 2

    def test_actions_recorded_and_summary(self):
        with LocalCluster(n_servers=3, policy="nvme", ttl=0.2, timeout_threshold=1) as c:
            c.populate(n_files=4, file_bytes=128)
            monkey = ChaosMonkey(c, interval=0.05, restart_prob=0.5, min_alive=1, seed=3)
            with monkey:
                time.sleep(1.2)
            assert monkey.actions
            assert "kills" in monkey.summary()
            kinds = {a.kind for a in monkey.actions}
            assert kinds <= {"kill", "restart"}

    def test_double_start_rejected(self):
        with LocalCluster(n_servers=2) as c:
            monkey = ChaosMonkey(c, interval=1.0)
            monkey.start()
            try:
                with pytest.raises(RuntimeError):
                    monkey.start()
            finally:
                monkey.stop()
