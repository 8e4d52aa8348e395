"""A node that stops, not one that dies: SIGSTOP one of three server processes.

A stopped server's kernel still accepts connections and ACKs requests,
so nothing is refused: the only evidence is silence.  Every drain that
times out is one strike, so the client declares the node after
``timeout_threshold`` TTLs — and every read of the batches in flight
meanwhile still succeeds, re-homed once the node is declared.  The
servers are ``python -m repro.runtime serve`` subprocesses, so the
signal stops a whole server and nothing of the client.
"""

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from repro.core.fault_policy import ElasticRecache
from repro.core.hash_ring import HashRing
from repro.obs import get_event_log
from repro.runtime.client import FTCacheClient
from repro.runtime.storage import PFSDir

SRC = str(Path(__file__).resolve().parents[2] / "src")


def _serve(node: int, root: Path, procs: dict) -> tuple[str, int]:
    """Start one server process into ``procs``; the address its banner announced."""
    argv = [sys.executable, "-m", "repro.runtime", "serve", "--node-id", str(node), "--port", "0",
            "--nvme", str(root / f"nvme{node}"), "--pfs", str(root / "pfs")]
    proc = procs[node] = subprocess.Popen(argv, stdout=subprocess.PIPE, env=dict(os.environ, PYTHONPATH=SRC))
    banner = proc.stdout.readline().decode()
    assert "listening on" in banner, f"server {node} printed {banner!r}"
    host, port = banner.split("listening on ", 1)[1].split()[0].rsplit(":", 1)
    return host, int(port)


def test_a_stopped_node_is_declared_in_threshold_ttls_and_no_read_fails(tmp_path):
    ttl, threshold = 0.8, 2
    pfs = PFSDir(tmp_path / "pfs")
    rng = np.random.default_rng(21)
    paths = [f"/dataset/train/sample_{i:04d}.bin" for i in range(192)]
    expected = {p: rng.bytes(4096) for p in paths}
    for p, data in expected.items():
        pfs.write(p, data)
    batches = [paths[lo:lo + 32] for lo in range(0, len(paths), 32)]
    procs: dict[int, subprocess.Popen] = {}
    client = None
    try:
        addrs = {node: _serve(node, tmp_path, procs) for node in range(3)}
        ring = HashRing(nodes=sorted(addrs), vnodes_per_node=100)
        client = FTCacheClient(addrs, ElasticRecache(ring), pfs, ttl=ttl, timeout_threshold=threshold)
        for _ in range(2):  # cold, then warm: every owner has a pooled socket
            for batch in batches:
                assert client.read_many(batch) == [expected[p] for p in batch]
        victim = ring.lookup(paths[0])
        os.kill(procs[victim].pid, signal.SIGSTOP)
        t_stop = time.monotonic()
        rounds = 0
        while client.stats["declared"] == 0:
            batch = batches[rounds % len(batches)]
            assert client.read_many(batch) == [expected[p] for p in batch]
            rounds += 1
            assert rounds <= 4 * len(batches), "the stopped node was never declared"
        declared = [e for e in get_event_log().snapshot()
                    if e["kind"] == "death_declared" and e.get("node") == victim and e["t_mono"] >= t_stop]
        assert len(declared) == 1
        detect = declared[0]["t_mono"] - t_stop
        assert (client.stats["declared"], client.stats["timeouts"]) == (1, threshold)
        # one strike per timed-out drain: threshold TTLs, plus scheduling slack well under one more
        assert (threshold - 0.05) * ttl <= detect < (threshold + 0.5) * ttl, detect
        for batch in batches:  # the survivors serve everything
            assert client.read_many(batch) == [expected[p] for p in batch]
        assert victim not in ring.nodes
    finally:
        if client is not None:
            client.close()
        for proc in procs.values():
            os.kill(proc.pid, signal.SIGCONT)  # first: should the kill fail, nothing is left stopped
            proc.kill()
            proc.wait()
            proc.stdout.close()
