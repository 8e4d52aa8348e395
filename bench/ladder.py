"""The layer ladder: single-threaded rungs, each a strict superset of the one
below, against the servers the traced workload just used.

    floor   raw TCP request → payload-size reply from ``echo_server.py``
    framed  the same exchange through ``send_binary_request``/``recv_message``
    server  a binary READ on a raw socket against the real server
    client  ``FTCacheClient.read``

The differences between neighbouring rungs are the layer costs
(``protocol.frame_us``, ``server.hit_service_us``, ``client.overhead_us``).
In-process timings of the pieces (ring lookup, policy, encode, decode,
storage calls) say how much of a difference is explained.

A rung whose program symbol is gone reports nothing and never fails the run.
"""

from __future__ import annotations

import contextlib
import socket
import struct
import time

import numpy as np

import gen
from probe import SpeedProbe
from procs import ProcessSet

from repro.core import HashRing, make_policy
from repro.runtime import PFSDir

NET_BUDGET_S = 3.0
CPU_BUDGET_S = 0.5
BLOCK = 100
#: what a removed or reshaped public function raises when a rung calls it
_GONE = (ImportError, AttributeError, TypeError)
#: everything else the ladder reports is a duration
_NOT_DURATIONS = {"ring.load_imbalance_3", "ring.load_imbalance_2", "ring.moved_ratio_kill",
                  "protocol.recv_calls_per_frame"}


def _connect(addr) -> socket.socket:
    sock = socket.create_connection(addr, timeout=5.0)
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    return sock


class _MemorySocket:
    """Stands in for a socket under ``recv_message``: serves one frame from
    memory, over and over, and counts the receive calls it took."""

    def __init__(self, frame: bytes):
        self._frame = memoryview(frame)
        self._pos = 0
        self.calls = 0

    def recv_into(self, view, nbytes: int = 0) -> int:
        self.calls += 1
        if self._pos == len(self._frame):
            self._pos = 0
        n = min(nbytes or len(view), len(self._frame) - self._pos)
        view[:n] = self._frame[self._pos:self._pos + n]
        self._pos += n
        return n

    def recv(self, nbytes: int) -> bytes:
        buf = bytearray(nbytes)
        return bytes(buf[:self.recv_into(memoryview(buf))])


class Ladder:
    """The rungs over one cluster and one key sequence; :meth:`climb` returns
    ``{metric: (value, samples)}``."""

    def __init__(self, cluster, idx: list[int], procs: ProcessSet, probe: SpeedProbe, iters: int):
        self.cluster = cluster
        self.procs = procs
        self.probe = probe
        self.iters = iters
        self.idx = self._cycle(idx)
        self.keys = [cluster.corpus.keys[i] for i in self.idx]
        self.out: dict = {}

    def _cycle(self, items: list) -> list:
        return (items * (self.iters // len(items) + 1))[:self.iters]

    def _p50_us(self, fn, args: list, budget: float = CPU_BUDGET_S) -> tuple[float, int]:
        """Median latency of ``fn(arg)`` over ``args``, stopping early once
        ``budget`` seconds are spent."""
        lat = []
        deadline = time.perf_counter() + budget
        for arg in args:
            t0 = time.perf_counter()
            fn(arg)
            t1 = time.perf_counter()
            lat.append(t1 - t0)
            if t1 > deadline:
                break
        return float(np.median(lat)) * 1e6, len(lat)

    def _rung(self, name: str, measure) -> None:
        try:
            self.out[name] = measure()
        except _GONE:
            pass

    # -- in-process rungs -------------------------------------------------------------
    def ring_rungs(self) -> None:
        out, all_keys, nodes = self.out, self.cluster.corpus.keys, [0, 1, 2]
        ring = HashRing(nodes=nodes, vnodes_per_node=100)
        out["ring.lookup_us"] = self._p50_us(ring.lookup, self.keys)
        before = [ring.lookup(k) for k in all_keys]
        removals = []
        for _ in range(21):
            victim = HashRing(nodes=nodes, vnodes_per_node=100)
            t0 = time.perf_counter()
            victim.remove_node(1)
            victim.lookup(all_keys[0])
            removals.append(time.perf_counter() - t0)
        out["ring.remove_node_ms"] = (float(np.median(removals)) * 1e3, len(removals))
        after = [victim.lookup(k) for k in all_keys]
        for name, owners, n_nodes in (("ring.load_imbalance_3", before, 3), ("ring.load_imbalance_2", after, 2)):
            out[name] = (max(owners.count(n) for n in nodes) / (len(owners) / n_nodes), len(owners))
        lost = before.count(1)
        moved = sum(1 for a, b in zip(before, after) if a != b)
        out["ring.moved_ratio_kill"] = (moved / max(1, lost), lost)
        out["policy.target_for_us"] = self._p50_us(make_policy("nvme", ring).target_for, self.keys)

    def protocol_rungs(self) -> None:
        from repro.runtime import protocol as P

        self._rung("protocol.encode_us", lambda: self._p50_us(
            lambda k: P.encode_binary_request(P.Message.request(P.OP_READ, path=k)), self.keys))
        for label, size in (("4k", 4096), ("16k", 16384), ("1m", 1 << 20)):
            def decode(size=size):
                frame = P.encode_binary_response_header(P.OP_READ, P.Message.ok_response(), payload_len=size)
                sock = _MemorySocket(frame + bytes(size))
                p50, n = self._p50_us(lambda _: P.recv_message(sock), self.keys)
                self.out["protocol.recv_calls_per_frame"] = (sock.calls / n, n)
                return p50, n

            self._rung(f"protocol.decode_{label}_us", decode)

    def storage_rungs(self) -> None:
        from repro.runtime import NVMeDir

        cluster, corpus = self.cluster, self.cluster.corpus
        blob = bytes(corpus.size)
        self.out["storage.pfs_read_us"] = self._p50_us(PFSDir(cluster.work / "pfs").read, self.keys)
        names = self._cycle([gen.key_for(i) for i in range(64)])
        nvme = NVMeDir(cluster.work / "ladder-nvme")
        self._rung("storage.write_us", lambda: self._p50_us(lambda k: nvme.write(k, blob), names))

        def open_read(key: str) -> None:
            f, _ = nvme.open_read(key)
            f.close()

        self._rung("storage.open_read_us", lambda: self._p50_us(open_read, names))
        full = NVMeDir(cluster.work / "ladder-nvme-full", capacity_bytes=8 * corpus.size)
        fresh = [gen.key_for(10_000 + i) for i in range(self.iters + 8)]
        for k in fresh[:8]:
            full.write(k, blob)
        self._rung("storage.write_evict_us", lambda: self._p50_us(lambda k: full.write(k, blob), fresh[8:]))

    # -- network rungs ----------------------------------------------------------------
    def network_rungs(self) -> None:
        """floor → framed → server → client, taking turns in blocks of ``BLOCK``
        back-to-back calls.  Back to back, because that is what a closed-loop
        caller does and a peer that is called less often wakes up slower;
        taking turns, so that drift on the box hits every rung alike and
        cancels in the differences."""
        out, cluster, keys = self.out, self.cluster, self.keys
        size = cluster.corpus.size
        try:
            from repro.runtime import protocol as P

            request = P.encode_binary_request(P.Message.request(P.OP_READ, path=keys[0]))
            frame = P.encode_binary_response_header(P.OP_READ, P.Message.ok_response(), payload_len=size)
        except _GONE:
            P, request, frame = None, bytes(64), b""
        buf = memoryview(bytearray(size))

        def raw_exchange(sock: socket.socket, _key: str) -> None:
            # the request's bytes out, the payload's bytes back, no framing code
            sock.sendall(request)
            got = 0
            while got < size:
                n = sock.recv_into(buf[got:])
                if n == 0:
                    raise ConnectionError("echo closed")
                got += n

        def framed_exchange(sock: socket.socket, key: str):
            P.send_binary_request(sock, P.Message.request(P.OP_READ, path=key))
            resp = P.recv_message(sock)
            if not resp.ok or len(resp.payload) != size:
                raise RuntimeError(f"ladder READ of {key} failed: {resp.header}")
            return resp.header.get("source", "cache")

        with contextlib.ExitStack() as stack:
            echo = self.procs.spawn_echo()
            stack.callback(echo.kill)
            rungs = {"floor": _echo_rung(stack, echo.address, request, bytes(size), raw_exchange)}
            if P is not None:
                # the echo replies a pre-encoded response frame ...
                rungs["framed"] = _echo_rung(stack, echo.address, request, frame + bytes(size), framed_exchange)
                # ... and the real server answers the same request, each key on
                # a raw socket to the node the ring names
                socks = {node: stack.enter_context(_connect(cluster.servers[node].address))
                         for node in cluster.ring.nodes}
                owner = {key: socks[cluster.ring.lookup(key)] for key in set(keys)}
                rungs["server"] = lambda key: framed_exchange(owner[key], key)
            rungs["client"] = cluster.client.read
            lat: dict[str, list[float]] = {name: [] for name in rungs}
            sources: list[str] = []
            # the client rung runs half a sequence away, so on a capacity-bound
            # cluster it does not read the key the server rung just re-cached
            client_keys = keys[len(keys) // 2:] + keys[:len(keys) // 2]
            deadline = time.perf_counter() + NET_BUDGET_S * len(rungs)
            for lo in range(0, self.iters, BLOCK):
                for name, exchange in list(rungs.items()):
                    try:
                        for arg in (client_keys if name == "client" else keys)[lo:lo + BLOCK]:
                            t0 = time.perf_counter()
                            ret = exchange(arg)
                            t1 = time.perf_counter()
                            lat[name].append(t1 - t0)
                            if name == "server":
                                sources.append(ret)
                    except _GONE:
                        del rungs[name], lat[name]
                if time.perf_counter() > deadline:
                    break

        p50 = {name: (float(np.median(v)) * 1e6, len(v)) for name, v in lat.items() if v}
        for source, name in (("cache", "server_hit"), ("pfs", "server_miss")):
            v = [x for x, src in zip(lat.get("server", ()), sources) if src == source]
            if len(v) >= 50:
                p50[name] = (float(np.median(v)) * 1e6, len(v))
        out["floor.echo_rtt_us"] = p50["floor"]
        out["client.read_1thread_us"] = p50["client"]
        # neighbouring rungs' differences are the layer costs
        for name, upper, lower in (("protocol.frame_us", "framed", "floor"),
                                   ("server.hit_service_us", "server_hit", "framed"),
                                   ("server.miss_service_us", "server_miss", "framed"),
                                   ("client.overhead_us", "client", "server")):
            if upper in p50 and lower in p50:
                out[name] = (p50[upper][0] - p50[lower][0], p50[upper][1])

    def climb(self) -> dict:
        t0 = time.perf_counter()
        for rungs in (self.ring_rungs, self.protocol_rungs, self.storage_rungs):
            try:
                rungs()
            except _GONE:
                continue
        self.network_rungs()
        # like every duration the benchmark reports: at reference box speed
        speed = self.probe.speed(t0, time.perf_counter())
        return {name: (value if name in _NOT_DURATIONS else value * speed, n)
                for name, (value, n) in self.out.items()}


def _echo_rung(stack: contextlib.ExitStack, addr, request: bytes, reply: bytes, exchange):
    """Connect to the echo process, upload its canned reply, and return
    ``exchange`` bound to the socket."""
    sock = stack.enter_context(_connect(addr))
    sock.sendall(struct.pack(">II", len(request), len(reply)) + reply)
    return lambda key: exchange(sock, key)
