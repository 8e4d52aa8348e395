"""Tests for the k-way replication extension."""

import numpy as np
import pytest

from repro.core import HashRing, ReplicatedRecache, bulk_hash64, hash64, salt_hash, salted_hashes

KEYS = bulk_hash64(np.arange(10_000))


def make(n=16, k=2):
    return ReplicatedRecache(HashRing(nodes=range(n), vnodes_per_node=100), replicas=k)


class TestSaltedHashes:
    def test_replica_zero_is_identity(self):
        np.testing.assert_array_equal(salted_hashes(KEYS, 0), KEYS)
        assert salt_hash(int(KEYS[0]), 0) == int(KEYS[0])

    def test_replicas_differ(self):
        a = salted_hashes(KEYS, 1)
        b = salted_hashes(KEYS, 2)
        assert not np.array_equal(a, KEYS)
        assert not np.array_equal(a, b)

    def test_scalar_matches_bulk(self):
        bulk = salted_hashes(KEYS[:50], 3)
        for i in range(50):
            assert salt_hash(int(KEYS[i]), 3) == int(bulk[i])

    def test_deterministic(self):
        np.testing.assert_array_equal(salted_hashes(KEYS, 1), salted_hashes(KEYS, 1))


class TestReplicatedRecache:
    def test_validation(self):
        with pytest.raises(ValueError):
            make(k=0)

    def test_primary_matches_plain_recache(self):
        p = make()
        for i in range(50):
            assert p.target_for(i).node == p.placement.lookup(i)

    def test_replica_targets_count(self):
        p = make(k=3)
        assert len(p.replica_targets("key-x")) == 3

    def test_replicas_mostly_distinct(self):
        p = make(n=32, k=2)
        frac = p.distinct_replica_fraction(KEYS)
        assert frac > 0.9  # ~1/N collision chance

    def test_surviving_replica_skips_failed_primary(self):
        p = make()
        key = "sample-7"
        primary, secondary = p.replica_targets(key)[:2]
        if primary == secondary:
            pytest.skip("replica collision for this key")
        p.on_node_failed(primary)
        survivor = p.surviving_replica(key)
        assert survivor != primary

    def test_single_failure_never_loses_both_replicas(self):
        p = make(n=16, k=2)
        owners = p.replica_owner_matrix(KEYS).astype(np.int64)
        for victim in range(16):
            both_lost = (owners[0] == victim) & (owners[1] == victim)
            # Collisions make this possible but rare (~1/N of victim's keys).
            assert both_lost.mean() < 0.01

    def test_bulk_routes_equal_the_per_key_routes(self):
        p = make(n=8, k=3)
        p.on_node_failed(3)
        keys = [f"/data/{i}.bin" for i in np.random.default_rng(7).integers(0, 10**9, 2000)]

        def per_key(key):
            warm, cold = [], []
            for r in range(p.replicas):
                h = salt_hash(hash64(key), r)
                node = p.placement.lookup_hash(h)
                if node in p.failed_nodes or node in warm or node in cold:
                    continue
                (warm if node == p._pristine.lookup_hash(h) else cold).append(node)
            return warm + cold or [p.placement.lookup(key)]

        routes = p.candidates_for(keys)
        assert routes == [per_key(k) for k in keys]
        assert any(len(r) == 1 for r in routes) and any(len(r) == 3 for r in routes)

    def test_owner_matrix_shape(self):
        p = make(k=3)
        m = p.replica_owner_matrix(KEYS[:100])
        assert m.shape == (3, 100)


class TestFluidReplication:
    def _run(self, replication, seed=4):
        from repro.cluster.config import frontier
        from repro.dl import Dataset, TrainingConfig
        from repro.dl.fastsim import FluidTrainingModel

        ds = Dataset(name="t", n_samples=1024, sample_bytes=2.2e6)
        cfg = TrainingConfig(epochs=4, batch_size=8)
        return FluidTrainingModel(
            frontier(16), ds, "FT w/ NVMe", cfg, n_failures=2, seed=seed, replication=replication
        ).run()

    def test_replication_reduces_refetches(self):
        single = self._run(1)
        repl = self._run(2)
        assert repl.pfs_files < single.pfs_files
        assert repl.total_time <= single.total_time

    def test_replication_requires_ring_policy(self):
        from repro.cluster.config import frontier
        from repro.dl import Dataset, TrainingConfig
        from repro.dl.fastsim import FluidTrainingModel

        ds = Dataset(name="t", n_samples=64, sample_bytes=1e6)
        with pytest.raises(ValueError):
            FluidTrainingModel(
                frontier(4), ds, "FT w/ PFS", TrainingConfig(), replication=2
            )

    def test_invalid_replication(self):
        from repro.cluster.config import frontier
        from repro.dl import Dataset, TrainingConfig
        from repro.dl.fastsim import FluidTrainingModel

        ds = Dataset(name="t", n_samples=64, sample_bytes=1e6)
        with pytest.raises(ValueError):
            FluidTrainingModel(
                frontier(4), ds, "FT w/ NVMe", TrainingConfig(), replication=0
            )
