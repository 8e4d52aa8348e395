"""Stable hash functions for data placement.

Placement hashing has two requirements that Python's builtin ``hash`` does
not meet: stability across processes/runs (``PYTHONHASHSEED`` randomises
``str`` hashes) and uniformity over the full 64-bit range.  This module
provides:

* :func:`hash64` — stable 64-bit digest of a string/bytes key, with a choice
  of algorithms (BLAKE2b default; MD5/SHA1 for parity with common consistent
  hashing deployments; FNV-1a for a cheap non-crypto option).
* :func:`hash_unit` — the same digest mapped to ``[0, 1)``, matching the
  ring-position presentation used in the paper's Figure 4.
* :func:`splitmix64` / :func:`bulk_hash64` — vectorised hashing of integer
  key arrays with NumPy, used by the load-distribution simulation (Fig 6b)
  which hashes ~5 × 10⁵ keys per trial × 500 trials; a Python-level loop
  would dominate the experiment's runtime.
* :func:`splitmix64_int` — the same mix of one Python ``int``, for scalar
  callers: numpy's fixed cost on a one-element array is ~25× the mix.
"""

from __future__ import annotations

import hashlib
from typing import Iterable, Union

import numpy as np

__all__ = ["hash64", "hash_unit", "splitmix64", "splitmix64_int", "bulk_hash64", "fnv1a64", "HASH_ALGOS"]

_U64 = np.uint64
_MASK64 = (1 << 64) - 1

FNV_OFFSET = 0xCBF29CE484222325
FNV_PRIME = 0x100000001B3


def _to_bytes(key: Union[str, bytes]) -> bytes:
    if isinstance(key, bytes):
        return key
    if isinstance(key, str):
        return key.encode("utf-8")
    raise TypeError(f"unhashable placement key type: {type(key).__name__}")


def fnv1a64(data: bytes) -> int:
    """FNV-1a 64-bit hash (cheap, non-cryptographic, stable)."""
    h = FNV_OFFSET
    for byte in data:
        h ^= byte
        h = (h * FNV_PRIME) & _MASK64
    return h


def _digest64(algo: str, data: bytes) -> int:
    if algo == "blake2b":
        return int.from_bytes(hashlib.blake2b(data, digest_size=8).digest(), "little")
    if algo == "md5":
        return int.from_bytes(hashlib.md5(data).digest()[:8], "little")
    if algo == "sha1":
        return int.from_bytes(hashlib.sha1(data).digest()[:8], "little")
    if algo == "fnv1a":
        return fnv1a64(data)
    raise ValueError(f"unknown hash algorithm {algo!r}; choose from {sorted(HASH_ALGOS)}")


HASH_ALGOS = frozenset({"blake2b", "md5", "sha1", "fnv1a"})


def hash64(key: Union[str, bytes, int], algo: str = "blake2b") -> int:
    """Stable uniform 64-bit hash of ``key``.

    Integer keys take the SplitMix64 path so that the scalar result agrees
    exactly with :func:`bulk_hash64` over an integer array — placement
    decisions must not depend on whether a key was looked up one at a time
    or in bulk.
    """
    if isinstance(key, int) and not isinstance(key, bool):
        if key < 0:
            raise ValueError("integer placement keys must be non-negative")
        if key > _MASK64:
            raise OverflowError(f"integer placement key {key} does not fit 64 bits")
        return splitmix64_int(key)
    return _digest64(algo, _to_bytes(key))


def hash_unit(key: Union[str, bytes, int], algo: str = "blake2b") -> float:
    """``hash64`` mapped to the unit interval ``[0, 1)``.

    This is the ring-position convention the paper illustrates (e.g. file E
    at position 0.293853 in Figure 4).
    """
    return hash64(key, algo) / 2.0**64


def splitmix64(x: np.ndarray) -> np.ndarray:
    """Vectorised SplitMix64 finaliser: uniform 64-bit mix of integer keys.

    Operates elementwise on a ``uint64`` array.  SplitMix64 is a bijection
    on 64-bit integers with excellent avalanche behaviour, making it a
    sound stand-in for a cryptographic hash when keys are dense integers
    (file indices), at NumPy speed.
    """
    z = np.asarray(x, dtype=_U64).copy()
    with np.errstate(over="ignore"):
        z += _U64(0x9E3779B97F4A7C15)
        z = (z ^ (z >> _U64(30))) * _U64(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> _U64(27))) * _U64(0x94D049BB133111EB)
        z = z ^ (z >> _U64(31))
    return z


def splitmix64_int(x: int) -> int:
    """:func:`splitmix64` of one 64-bit ``int``: the same four steps, each
    masked to 64 bits, as plain integer arithmetic."""
    z = (x + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def bulk_hash64(keys: Union[np.ndarray, Iterable[Union[str, bytes, int]]], algo: str = "blake2b") -> np.ndarray:
    """Hash many keys to a ``uint64`` array.

    Integer arrays take the vectorised :func:`splitmix64` path; anything
    else falls back to per-key :func:`hash64` (still stable, just slower).
    """
    if isinstance(keys, np.ndarray) and np.issubdtype(keys.dtype, np.integer):
        return splitmix64(keys.astype(_U64, copy=False))
    out = np.fromiter((hash64(k, algo) for k in keys), dtype=_U64)
    return out
