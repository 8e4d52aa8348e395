"""Tests for the PyTorch-style cached data loader."""

import queue
import threading

import pytest

from repro.runtime import CachedDataLoader, LocalCluster, ReadError


@pytest.fixture(scope="module")
def cluster():
    with LocalCluster(n_servers=3, policy="nvme", ttl=0.3, timeout_threshold=2) as c:
        c.populate(n_files=20, file_bytes=1024, seed=4)
        yield c


class TestIteration:
    def test_batches_cover_dataset(self, cluster):
        loader = CachedDataLoader(cluster.paths, cluster.client(), batch_size=6, seed=1)
        batches = list(loader)
        assert len(batches) == len(loader) == 4  # ceil(20/6)
        assert sum(len(b) for b in batches) == 20
        assert all(len(x) == 1024 for b in batches for x in b)

    def test_drop_last(self, cluster):
        loader = CachedDataLoader(
            cluster.paths, cluster.client(), batch_size=6, drop_last=True, seed=1
        )
        batches = list(loader)
        assert len(batches) == len(loader) == 3
        assert all(len(b) == 6 for b in batches)

    def test_shuffle_changes_with_epoch(self, cluster):
        client = cluster.client()
        loader = CachedDataLoader(cluster.paths, client, batch_size=20, seed=1)
        loader.set_epoch(0)
        e0 = list(loader)[0]
        loader.set_epoch(1)
        e1 = list(loader)[0]
        assert sorted(e0) == sorted(e1)  # same multiset of samples
        assert e0 != e1  # different order

    def test_same_epoch_reproducible(self, cluster):
        client = cluster.client()
        loader = CachedDataLoader(cluster.paths, client, batch_size=20, seed=1)
        loader.set_epoch(3)
        a = list(loader)[0]
        b = list(loader)[0]
        assert a == b

    def test_no_shuffle_preserves_order(self, cluster):
        client = cluster.client()
        loader = CachedDataLoader(cluster.paths[:5], client, batch_size=5, shuffle=False)
        batch = list(loader)[0]
        expected = [cluster.pfs.read(p) for p in cluster.paths[:5]]
        assert batch == expected

    def test_custom_collate(self, cluster):
        loader = CachedDataLoader(
            cluster.paths[:4],
            cluster.client(),
            batch_size=2,
            collate=lambda samples: sum(len(s) for s in samples),
        )
        assert list(loader) == [2048, 2048]

    def test_validation(self, cluster):
        with pytest.raises(ValueError):
            CachedDataLoader(cluster.paths, cluster.client(), batch_size=0)
        with pytest.raises(ValueError):
            CachedDataLoader(cluster.paths, cluster.client(), num_workers=-1)


class TestThreadedWorkers:
    def test_multiworker_matches_sequential(self, cluster):
        client = cluster.client()
        seq = list(CachedDataLoader(cluster.paths, client, batch_size=4, seed=2, num_workers=0))
        par = list(CachedDataLoader(cluster.paths, client, batch_size=4, seed=2, num_workers=3))
        assert seq == par

    def test_multiworker_survives_failure(self, cluster):
        client = cluster.client()
        for p in cluster.paths:
            client.read(p)  # warm cache so the victim holds data
        victim = client.policy.target_for(cluster.paths[0]).node
        cluster.kill_server(victim)
        loader = CachedDataLoader(cluster.paths, client, batch_size=5, seed=3, num_workers=2)
        batches = list(loader)
        assert sum(len(b) for b in batches) == 20

    def test_worker_error_propagates(self, cluster):
        client = cluster.client()
        bad = cluster.paths[:3] + ["/dataset/train/not-there.bin"]
        loader = CachedDataLoader(bad, client, batch_size=2, shuffle=False, num_workers=2)
        raised: queue.Queue = queue.Queue()

        def consume() -> None:
            try:
                list(loader)
            except ReadError as exc:
                raised.put(exc)

        threading.Thread(target=consume, name="loader-consumer", daemon=True).start()
        # a worker that swallowed the error would leave the consumer waiting
        raised.get(timeout=30)
