"""Seeded inputs for the benchmark: corpus bytes, checksum table, op streams.

Everything the program sees is generated here from ``--seed``; nothing is
imported from the program under test, so a rewrite of ``repro.loadgen``
cannot move the workload.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

__all__ = ["Corpus", "OpStream", "key_for", "write_corpus"]

#: payloads above this are crc-checked every 16th op only, so hashing
#: stays a small share of the byte-dominated workload
FULL_CHECK_MAX_BYTES = 64 * 1024
SPARSE_CHECK_EVERY = 16


def key_for(i: int) -> str:
    """Dataset key of file ``i``; fixed width, so every request frame has
    the same length."""
    return f"/dataset/train/sample_{i:06d}.bin"


@dataclass
class Corpus:
    """The generated dataset: keys, per-file crc32, and (optionally) bytes."""

    keys: list[str]
    size: int
    crcs: list[int]
    #: file bytes, kept only when the workload rewrites files
    blobs: list[bytes] | None = None

    def check(self, i: int, data: bytes, op_no: int = 0) -> bool:
        """Length always; crc32 always up to 64 KiB, every 16th op above."""
        if len(data) != self.size:
            return False
        if self.size > FULL_CHECK_MAX_BYTES and op_no % SPARSE_CHECK_EVERY:
            return True
        return zlib.crc32(data) == self.crcs[i]


def corpus_blobs(seed: int, n_files: int, size: int) -> list[bytes]:
    rng = np.random.default_rng([seed, n_files, size])
    return [rng.bytes(size) for _ in range(n_files)]


def write_corpus(root: Path, seed: int, n_files: int, size: int, keep_bytes: bool = False) -> Corpus:
    """Generate the corpus and lay it out as ``PFSDir`` expects
    (``root / key.lstrip('/')``)."""
    blobs = corpus_blobs(seed, n_files, size)
    keys = [key_for(i) for i in range(n_files)]
    (root / "dataset" / "train").mkdir(parents=True, exist_ok=True)
    for key, blob in zip(keys, blobs):
        with open(root / key.lstrip("/"), "wb") as f:
            f.write(blob)
    return Corpus(keys, size, [zlib.crc32(b) for b in blobs], blobs if keep_bytes else None)


def _deal_ranks(slots: np.ndarray, owners: list | None, rng: np.random.Generator) -> np.ndarray:
    """``slots`` in popularity order: shuffled, then one key of each owner
    in turn (owners that run out drop out of the rotation)."""
    slots = slots[rng.permutation(len(slots))]
    if owners is None:
        return slots
    hands: dict = {}
    for i in slots.tolist():
        hands.setdefault(owners[i], []).append(i)
    order = [hands[o] for o in sorted(hands)]
    order = [order[j] for j in rng.permutation(len(order))]
    dealt = []
    for turn in range(max(map(len, order))):
        dealt.extend(hand[turn] for hand in order if turn < len(hand))
    return np.asarray(dealt)


class OpStream:
    """Deterministic op sequence for one load thread.

    ``keys[j]`` is the corpus index of op ``j`` and ``writes[j]`` says
    whether it is a write.  With ``stride``/``offset`` the stream only
    touches indices congruent to ``offset`` modulo ``stride``, which keeps
    two threads off each other's files.

    Zipf popularity ranks are dealt to the keys of each owner in turn
    (``owners[i]`` is whatever serves corpus index ``i``), so the share of
    the load each server gets is the same for every seed; which keys are
    hot, and in which order the servers take their turns, is the seed's.
    """

    CHUNK = 1 << 16

    def __init__(self, seed: int, thread: int, n_keys: int, dist: str = "uniform",
                 zipf_s: float = 1.1, write_ratio: float = 0.0,
                 stride: int = 1, offset: int = 0, owners: list | None = None):
        if dist not in ("uniform", "zipf"):
            raise ValueError(f"unknown distribution {dist!r}")
        self._rng = np.random.default_rng([seed, 7919, thread])
        self._slots = np.arange(offset, n_keys, stride)
        self._write_ratio = write_ratio
        self._cdf = None
        if dist == "zipf":
            # drawn from the seed alone, so every thread agrees on the hot keys
            self._slots = _deal_ranks(self._slots, owners, np.random.default_rng([seed, 104729]))
            w = 1.0 / np.arange(1, len(self._slots) + 1, dtype=np.float64) ** zipf_s
            self._cdf = np.cumsum(w / w.sum())
        self.keys: list[int] = []
        self.writes: list[bool] = []
        self.extend()

    def extend(self) -> None:
        """Append one more chunk of ops; a chunk outlasts a 10 s window at
        the rates this box reaches, so the timed loop rarely pays for it."""
        u = self._rng.random(self.CHUNK)
        if self._cdf is None:
            ranks = (u * len(self._slots)).astype(np.int64)
        else:
            ranks = np.searchsorted(self._cdf, u, side="left")
        self.keys.extend(self._slots[np.minimum(ranks, len(self._slots) - 1)].tolist())
        if self._write_ratio:
            self.writes.extend((self._rng.random(self.CHUNK) < self._write_ratio).tolist())
        else:
            self.writes.extend([False] * self.CHUNK)
