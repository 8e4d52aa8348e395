"""PyTorch-style data loader over the FT-Cache client.

The paper's reproduction band notes that "PyTorch data-loader integration
[is] natural" — this module is that integration surface, minus the torch
dependency: an iterable, epoch-shuffled, multi-worker batch loader whose
``__iter__`` yields lists of raw sample bytes fetched through the
fault-tolerant cache client.  Swap ``collate`` for a tensor constructor
and it drops into a training loop unchanged.
"""

from __future__ import annotations

import queue
import threading
from typing import Any, Callable, Iterator, Optional, Sequence

import numpy as np

from ..analysis import lockwitness
from ..sim.rng import derive_seed
from .client import FTCacheClient

__all__ = ["CachedDataLoader"]


def _default_collate(samples: list[bytes]) -> list[bytes]:
    return samples


class CachedDataLoader:
    """Epoch-shuffled batch loader reading through an :class:`FTCacheClient`.

    Parameters mirror ``torch.utils.data.DataLoader`` where they make
    sense: ``batch_size``, ``shuffle``, ``num_workers`` (prefetch threads
    sharing the fault-tolerant client), ``drop_last``, and ``collate``.
    Call :meth:`set_epoch` between epochs, as with
    ``DistributedSampler.set_epoch``.
    """

    def __init__(
        self,
        paths: Sequence[str],
        client: FTCacheClient,
        batch_size: int = 8,
        shuffle: bool = True,
        seed: int = 0,
        num_workers: int = 0,
        drop_last: bool = False,
        collate: Callable[[list[bytes]], Any] = _default_collate,
    ):
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if num_workers < 0:
            raise ValueError("num_workers must be >= 0")
        self.paths = list(paths)
        self.client = client
        self.batch_size = batch_size
        self.shuffle = shuffle
        self.seed = seed
        self.num_workers = num_workers
        self.drop_last = drop_last
        self.collate = collate
        self.epoch = 0

    def set_epoch(self, epoch: int) -> None:
        """Select the shuffle permutation for the coming iteration."""
        self.epoch = int(epoch)

    def __len__(self) -> int:
        n = len(self.paths)
        if self.drop_last:
            return n // self.batch_size
        return -(-n // self.batch_size)

    def _order(self) -> np.ndarray:
        if not self.shuffle:
            return np.arange(len(self.paths))
        rng = np.random.default_rng(derive_seed(self.seed, f"epoch:{self.epoch}"))
        return rng.permutation(len(self.paths))

    def __iter__(self) -> Iterator[Any]:
        order = self._order()
        batches = [
            order[i : i + self.batch_size] for i in range(0, len(order), self.batch_size)
        ]
        if self.drop_last and batches and len(batches[-1]) < self.batch_size:
            batches.pop()
        if self.num_workers == 0:
            for batch in batches:
                yield self.collate(self._fetch(batch))
            return
        yield from self._iter_threaded(batches)

    def _fetch(self, batch: np.ndarray) -> list[bytes]:
        """One batch's bytes via :meth:`FTCacheClient.read_many` —
        same-owner samples pipeline over one socket instead of paying a
        full round trip per sample."""
        return self.client.read_many([self.paths[j] for j in batch])

    def _iter_threaded(self, batches: list[np.ndarray]) -> Iterator[Any]:
        """Bounded prefetch pipeline: workers fetch batches ahead, in order."""
        results: dict[int, Any] = {}
        errors: dict[int, BaseException] = {}
        done = threading.Event()
        work: "queue.Queue[Optional[tuple[int, np.ndarray]]]" = queue.Queue()
        ready = threading.Semaphore(0)
        lock = lockwitness.named_lock("loader-results")

        for item in enumerate(batches):
            work.put(item)
        for _ in range(self.num_workers):
            work.put(None)

        def _worker() -> None:
            while not done.is_set():
                item = work.get()
                if item is None:
                    return
                idx, batch = item
                try:
                    out = self.collate(self._fetch(batch))
                    with lock:
                        results[idx] = out
                except BaseException as exc:  # surfaced to the consumer
                    with lock:
                        errors[idx] = exc
                ready.release()

        workers = [
            threading.Thread(target=_worker, name=f"loader-worker-{i}", daemon=True)
            for i in range(self.num_workers)
        ]
        for w in workers:
            w.start()
        try:
            for idx in range(len(batches)):
                while True:
                    with lock:
                        if idx in errors:
                            raise errors.pop(idx)
                        if idx in results:
                            out = results.pop(idx)
                            break
                    ready.acquire()
                yield out
        finally:
            done.set()
            # Drain the queue so workers blocked on get() can exit.
            try:
                while True:
                    work.get_nowait()
            except queue.Empty:
                pass
            for _ in workers:
                work.put(None)
            for w in workers:
                w.join(timeout=2.0)
