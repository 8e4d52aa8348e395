import zlib

import numpy as np

import gen


def test_same_seed_same_op_sequence():
    a = gen.OpStream(2024, 0, 512, "zipf", write_ratio=0.1)
    b = gen.OpStream(2024, 0, 512, "zipf", write_ratio=0.1)
    a.extend()
    b.extend()
    assert a.keys == b.keys and a.writes == b.writes
    assert len(a.keys) == 2 * gen.OpStream.CHUNK


def test_seed_and_thread_change_the_sequence():
    base = gen.OpStream(2024, 0, 512).keys
    assert gen.OpStream(7, 0, 512).keys != base
    assert gen.OpStream(2024, 1, 512).keys != base


def test_zipf_is_skewed_and_threads_agree_on_hot_keys():
    counts = [np.bincount(gen.OpStream(3, t, 512, "zipf").keys, minlength=512) for t in (0, 1)]
    assert counts[0].max() > 20 * np.median(counts[0])
    assert int(counts[0].argmax()) == int(counts[1].argmax())


def test_stride_keeps_threads_on_disjoint_files():
    even = gen.OpStream(1, 0, 2048, write_ratio=0.1, stride=2, offset=0)
    odd = gen.OpStream(1, 1, 2048, write_ratio=0.1, stride=2, offset=1)
    assert all(k % 2 == 0 for k in even.keys) and all(k % 2 == 1 for k in odd.keys)
    assert 0.08 < sum(even.writes) / len(even.writes) < 0.12


def test_corpus_checksum_table_matches_files(tmp_path):
    corpus = gen.write_corpus(tmp_path, seed=5, n_files=8, size=4096, keep_bytes=True)
    assert corpus.keys[3] == "/dataset/train/sample_000003.bin"
    for i, key in enumerate(corpus.keys):
        data = (tmp_path / key.lstrip("/")).read_bytes()
        assert len(data) == 4096 and zlib.crc32(data) == corpus.crcs[i]
        assert data == corpus.blobs[i] and corpus.check(i, data)
    again = gen.write_corpus(tmp_path / "again", seed=5, n_files=8, size=4096)
    assert again.crcs == corpus.crcs and again.blobs is None
    assert gen.write_corpus(tmp_path / "other", seed=6, n_files=8, size=4096).crcs != corpus.crcs


def test_check_catches_wrong_length_and_wrong_bytes(tmp_path):
    corpus = gen.write_corpus(tmp_path, seed=5, n_files=2, size=4096, keep_bytes=True)
    good = corpus.blobs[0]
    assert not corpus.check(0, good[:-1])
    assert not corpus.check(0, bytes([good[0] ^ 1]) + good[1:])
    assert not corpus.check(1, good)


def test_large_payloads_are_hashed_every_16th_op(tmp_path):
    corpus = gen.write_corpus(tmp_path, seed=5, n_files=1, size=128 * 1024, keep_bytes=True)
    flipped = bytes([corpus.blobs[0][0] ^ 1]) + corpus.blobs[0][1:]
    assert corpus.check(0, flipped, op_no=1)  # length only
    assert not corpus.check(0, flipped, op_no=16)
    assert not corpus.check(0, flipped[:-1], op_no=1)


def test_zipf_ranks_are_dealt_to_the_owners_in_turn():
    owners = [i % 3 for i in range(512)]
    shares = []
    for seed in (1, 2, 3):
        stream = gen.OpStream(seed, 0, 512, "zipf", owners=owners)
        load = np.bincount([owners[k] for k in stream.keys], minlength=3) / len(stream.keys)
        shares.append(sorted(load))
    # which owner is hottest is the seed's; how hot it is, is not
    assert np.allclose(shares[0], shares[1], atol=0.01) and np.allclose(shares[0], shares[2], atol=0.01)
    hot = [int(np.bincount(gen.OpStream(seed, 0, 512, "zipf", owners=owners).keys).argmax()) for seed in (1, 2, 3)]
    assert len(set(hot)) > 1
