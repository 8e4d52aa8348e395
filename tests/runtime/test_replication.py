"""Tests for k-way replication in the real threaded runtime."""

import time

import pytest

from repro.runtime import LocalCluster

from tests.runtime.test_cluster_e2e import _recached
from tests.runtime.test_server_conn import _wait


@pytest.fixture
def cluster():
    with LocalCluster(
        n_servers=4, policy="replicated", replicas=2, ttl=0.3, timeout_threshold=2
    ) as c:
        c.populate(n_files=24, file_bytes=2048, seed=2)
        yield c


def warm(cluster, client):
    """Cold-read every path — each read pushes its bytes to every further
    distinct replica before it returns — then wait out every install."""
    for p in cluster.paths:
        client.read(p)
    pushes = sum(len(set(client.policy.replica_targets(p))) - 1 for p in cluster.paths)
    assert client.stats["replica_pushes"] == pushes
    _wait(lambda: _recached(client, cluster.servers) == len(cluster.paths) + pushes)


class TestReplicaPopulation:
    def test_pushes_happen_on_cold_reads(self, cluster):
        client = cluster.client()
        warm(cluster, client)
        assert client.stats["replica_pushes"] > 0

    def test_replicated_entries_exist_on_both_nodes(self, cluster):
        client = cluster.client()
        warm(cluster, client)
        checked = 0
        for p in cluster.paths:
            targets = client.policy.replica_targets(p)
            if len(set(targets)) < 2:
                continue  # replica collision: single copy by construction
            for node in set(targets):
                assert cluster.servers[node].nvme.contains(p)
            checked += 1
        assert checked > 0

    def test_content_identical_across_replicas(self, cluster):
        client = cluster.client()
        warm(cluster, client)
        p = next(q for q in cluster.paths if len(set(client.policy.replica_targets(q))) == 2)
        a, b = (cluster.servers[n].nvme.read(p) for n in set(client.policy.replica_targets(p)))
        assert a == b == cluster.pfs.resolve(p).read_bytes()


class TestFailover:
    def test_single_ttl_failover(self, cluster):
        client = cluster.client()
        warm(cluster, client)
        path = next(q for q in cluster.paths if len(set(client.policy.replica_targets(q))) == 2)
        primary = client.policy.replica_targets(path)[0]
        cluster.kill_server(primary, mode="hang")
        t0 = time.monotonic()
        data = client.read(path)
        elapsed = time.monotonic() - t0
        assert len(data) == 2048
        # One TTL to time out the primary, then the surviving replica
        # serves immediately — not threshold × TTL.
        assert elapsed < cluster.ttl * 2
        assert client.stats["failovers"] >= 1

    def test_no_pfs_refetch_for_replicated_files(self, cluster):
        client = cluster.client()
        warm(cluster, client)
        replicated_paths = [
            q for q in cluster.paths if len(set(client.policy.replica_targets(q))) == 2
        ]
        victim = client.policy.replica_targets(replicated_paths[0])[0]
        cluster.kill_server(victim, mode="hang")
        pfs_before = cluster.pfs.reads
        for p in replicated_paths:
            client.read(p)
            client.read(p)
        assert cluster.pfs.reads == pfs_before  # survivors had every byte

    def test_whole_dataset_survives_failure(self, cluster):
        client = cluster.client()
        warm(cluster, client)
        cluster.kill_server(0, mode="hang")
        for p in cluster.paths:
            assert len(client.read(p)) == 2048
