"""Benchmark-side spans and the 1 Hz server time series.

Spans are recorded around the benchmark's calls into the program (one per
op, batch, phase and chaos action), kept in memory, and written to
``bench/out/<workload>.trace.jsonl`` when the run ends.  Spans inside the
program are a later change.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from pathlib import Path

from procs import proc_cpu_seconds, proc_rss_mb

__all__ = ["Tracer", "StatSampler"]


class Tracer:
    """In-memory span list.  ``enabled=False`` records nothing but still
    hands out ids, so workload code has one shape for both runs."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self._ids = itertools.count(1)
        # (id, parent, trace, name, start, end, thread, outcome, node)
        self.spans: list[tuple] = []

    def begin(self, name: str, parent: int = 0) -> tuple[int, str, int, float]:
        """Open a long-lived span (workload, phase, epoch); its id is
        ``handle[0]``.  Phases share the workload span's trace."""
        return next(self._ids), name, parent, time.perf_counter()

    def end(self, handle: tuple, outcome: str = "ok") -> None:
        if self.enabled:
            sid, name, parent, t0 = handle
            self.spans.append((sid, parent, parent or sid, name, t0, time.perf_counter(),
                               threading.get_ident(), outcome, None))

    def op(self, name: str, parent: int, t0: float, t1: float, outcome: str, node,
           trace: int = 0) -> int:
        """Record a finished op, batch or chaos action.  It roots its own
        trace unless ``trace`` names the unit it is a step of."""
        sid = next(self._ids)
        self.spans.append((sid, parent, trace or sid, name, t0, t1,
                           threading.get_ident(), outcome, node))
        return sid

    def dump(self, path: Path, samples: list[dict]) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as f:
            for sid, parent, trace, name, t0, t1, thread, outcome, node in self.spans:
                f.write(json.dumps({"kind": "span", "id": sid, "parent": parent or None,
                                    "trace": trace, "name": name, "start": t0, "end": t1,
                                    "thread": thread, "outcome": outcome, "node": node}) + "\n")
            for s in samples:
                f.write(json.dumps({"kind": "sample", **s}) + "\n")


class StatSampler:
    """Once a second: every live server's STAT reply and ``/proc`` CPU/RSS.

    Runs on its own thread, so it has its own pooled sockets in the shared
    client; ``server_stat`` does not feed the failure detector, so sampling
    never declares a node.
    """

    def __init__(self, cluster, period: float = 1.0):
        self.cluster = cluster
        self.period = period
        self.samples: list[dict] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, name="bench-sampler", daemon=True)

    def start(self) -> "StatSampler":
        self._thread.start()
        return self

    def _run(self) -> None:
        while not self._stop.wait(self.period):
            self.sample()

    def sample(self) -> None:
        client = self.cluster.client
        now = time.perf_counter()
        for node, proc in list(self.cluster.servers.items()):
            cpu = proc_cpu_seconds(proc.pid)
            if cpu is None:
                continue  # killed
            if node not in client.servers:
                client.register_address(node, proc.address)  # joining, not yet cut over
            self.samples.append({"t": now, "node": node, "cpu_s": cpu,
                                 "rss_mb": proc_rss_mb(proc.pid),
                                 "stat": client.server_stat(node) or {}})

    def stop(self) -> list[dict]:
        self._stop.set()
        self._thread.join(timeout=5.0)
        return self.samples

    def max_stat(self, field: str) -> float:
        return max((s["stat"].get(field, 0) for s in self.samples), default=0)
