"""The per-connection protocol of the event-loop server (``server._Conn``).

Frames are decoded from a receive buffer in ``data_received``; a READ
that hits is answered within the loop turn, everything that may block
is a dispatch job that sends its own reply from its thread, and what
the socket did not take is finished by a loop task under the
connection's write token.
These tests drive a real server over raw sockets and pin the contracts
that design must keep: identical replies however the request stream is
segmented, no interleaving on the write side, header-time rejection of
hostile headers, pipeline and write-side backpressure, control ops
completing out of order like any other, and the failure-injection /
shutdown paths.
"""

from __future__ import annotations

import asyncio
import json
import logging
import os
import socket
import subprocess
import sys
import textwrap
import threading
import time
import zlib
from collections import deque
from pathlib import Path

import pytest

from repro.runtime import Message, recv_message
from repro.runtime.protocol import (
    _MAX_EXT,
    _MAX_PAYLOAD,
    OP_READ,
    OP_STAT,
    encode_binary_request,
)
from repro.runtime.server import _PIPELINE_DEPTH, FTCacheServer, _WriteLock
from repro.runtime.storage import NVMeDir, PFSDir

SRC = str(Path(__file__).resolve().parents[2] / "src")
#: the ``node`` fixture's corpus: cached keys and PFS-only keys
HITS = [f"/dataset/hit/{i:03d}.bin" for i in range(32)]
MISSES = [f"/dataset/miss/{i:03d}.bin" for i in range(8)]


def _wait(predicate, timeout: float = 5.0) -> None:
    """Poll ``predicate`` until true (condition wait, not a fixed sleep)."""
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "condition not reached in time"
        time.sleep(0.002)


def _assert_severed(sock: socket.socket) -> None:
    """The server closed or reset the connection without sending a byte."""
    try:
        assert sock.recv(1) == b""
    except ConnectionError:
        pass


def _read_req(path: str, seq: int) -> bytes:
    return encode_binary_request(Message.request(OP_READ, path=path), seq=seq)


def _stat_req(seq: int) -> bytes:
    return encode_binary_request(Message.request(OP_STAT), seq=seq)


def _inflight(conn) -> int:
    """Requests owing a reply off the one-turn path: dispatch jobs + tasks."""
    return conn.jobs + len(conn.tasks)


def _only_conn(server: FTCacheServer):
    _wait(lambda: len(server._conns) == 1)
    return next(iter(server._conns))


def _assert_runs_clean(script: str, tmp_path) -> None:
    """Run ``script`` under ``-X dev -W error`` in a fresh interpreter: it
    must print "clean", and nothing may reach stderr — a leaked file,
    socket, task or un-awaited coroutine is reported there."""
    env = dict(os.environ, PYTHONPATH=SRC, FTLINT_LOCKWITNESS="0")
    proc = subprocess.run(
        [sys.executable, "-X", "dev", "-W", "error", "-c", script, str(tmp_path)],
        capture_output=True, text=True, timeout=60, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "clean"
    assert proc.stderr == "", proc.stderr


@pytest.fixture
def node(tmp_path):
    """One started server over fresh dirs: 32 cached 4 KiB keys + 8 PFS-only."""
    pfs = PFSDir(tmp_path / "pfs")
    nvme = NVMeDir(tmp_path / "nvme")
    server = FTCacheServer(0, nvme, pfs)
    for i, key in enumerate(HITS + MISSES):
        pfs.write(key, bytes([i]) * 4096)
    for key in HITS:
        nvme.write(key, pfs.read(key))
    server.start()
    try:
        yield server
    finally:
        server.close()


@pytest.fixture
def log_records():
    """What the server module and asyncio log during the test, attached to
    the loggers themselves: the ``repro`` hierarchy may not propagate."""
    records: list[logging.LogRecord] = []
    handler = logging.Handler()
    handler.emit = records.append
    loggers = [logging.getLogger("repro.runtime.server"), logging.getLogger("asyncio")]
    for logger in loggers:
        logger.addHandler(handler)
    yield records
    for logger in loggers:
        logger.removeHandler(handler)


def _connect(server: FTCacheServer, rcvbuf: int | None = None) -> socket.socket:
    sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    if rcvbuf is not None:  # must precede connect() to cap the advertised window
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, rcvbuf)
    sock.settimeout(10)
    try:
        sock.connect(server.address)
    except OSError:
        sock.close()
        raise
    return sock


class TestSegmentation:
    def test_split_at_every_offset_gives_identical_replies(self, node):
        """Two hits and a miss, delivered in two segments cut at every byte
        offset: the replies are the same three, matched by seq."""
        keys = [HITS[0], MISSES[0], HITS[1]]
        stream = b"".join(_read_req(k, seq) for seq, k in enumerate(keys, start=1))
        expected = {seq: node.pfs.read(k) for seq, k in enumerate(keys, start=1)}
        for cut in range(1, len(stream)):
            with _connect(node) as sock:
                sock.sendall(stream[:cut])
                if cut % 7 == 0:  # let some first segments be parsed on their own
                    time.sleep(0.001)
                sock.sendall(stream[cut:])
                got = {}
                for _ in keys:
                    resp = recv_message(sock)
                    assert resp.ok, (cut, resp.header)
                    got[resp.seq] = resp.payload
            assert got == expected, f"cut at {cut}"

    def test_32_pipelined_reads_in_one_segment(self, node):
        stream = b"".join(_read_req(k, seq) for seq, k in enumerate(HITS, start=1))
        before = node.stats.snapshot()
        with _connect(node) as sock:
            sock.sendall(stream)
            replies = [recv_message(sock) for _ in HITS]
        # all hits are served in decode order within the turn(s) that parsed them
        assert [r.seq for r in replies] == list(range(1, 33))
        for r, key in zip(replies, HITS):
            assert r.ok and r.header["source"] == "cache"
            assert r.payload == node.pfs.read(key)
        after = node.stats.snapshot()
        assert after["hits"] - before["hits"] == 32
        assert after["sendfile_serves"] - before["sendfile_serves"] == 32
        assert after["binary_reqs"] - before["binary_reqs"] == 32

    def test_a_small_hit_reply_is_one_segment(self, node):
        """The header is corked onto the ``sendfile``: the first blocking
        ``recv`` after a 4 KiB hit holds the whole frame, every time."""
        with _connect(node) as sock:
            for seq in range(200):
                key = HITS[seq % len(HITS)]
                sock.sendall(_read_req(key, seq))
                first = sock.recv(1 << 16)
                assert len(first) == 22 + 4096, f"read {seq}: first recv held {len(first)} bytes"
                assert first[22:] == node.pfs.read(key)

    def test_books_are_closed_before_the_reply(self, node):
        """The client holding a reply must already be counted (ROADMAP 1a)."""
        with _connect(node) as sock:
            for i, key in enumerate(HITS, start=1):
                before = node.stats.snapshot()["hits"]
                sock.sendall(_read_req(key, i))
                assert recv_message(sock).ok
                assert node.stats.snapshot()["hits"] == before + 1
            for i, key in enumerate(MISSES, start=100):
                before = node.stats.snapshot()["misses"]
                sock.sendall(_read_req(key, i))
                assert recv_message(sock).header["source"] == "pfs"
                assert node.stats.snapshot()["misses"] == before + 1


class TestRemainderPath:
    def test_large_entry_slow_reader_miss_behind_it(self, node):
        """4 MiB hit to a reader with a tiny receive buffer: the socket takes
        only part of it inline, the rest goes out by ``loop.sendfile`` under
        the write lock, and the miss pipelined behind it — ready long before
        the reader drains — is answered after it, never interleaved."""
        big = "/dataset/big.bin"
        blob = os.urandom(4 << 20)
        node.pfs.write(big, blob)
        node.nvme.write(big, blob)
        with _connect(node, rcvbuf=4096) as sock:
            sock.sendall(_read_req(big, 1) + _read_req(MISSES[0], 2))
            conn = _only_conn(node)
            # the miss has been dispatched and is parked on the write lock
            # behind the hit's tail before a single byte is read
            _wait(lambda: node.stats.snapshot()["misses"] == 1 and len(conn.wlock._waiters) == 1)
            assert node.stats.snapshot()["hits"] == 1
            first = recv_message(sock)
            second = recv_message(sock)
        assert first.seq == 1 and first.header["source"] == "cache"
        assert zlib.crc32(first.payload) == zlib.crc32(blob) and len(first.payload) == len(blob)
        assert second.seq == 2 and second.header["source"] == "pfs"
        assert second.payload == node.pfs.read(MISSES[0])

    def test_hit_behind_a_busy_write_side_is_not_inlined_past_it(self, node):
        """A small hit decoded in the same turn as a hit that went partial
        finds the write lock taken and queues behind the tail."""
        big = "/dataset/big2.bin"
        blob = os.urandom(4 << 20)
        node.pfs.write(big, blob)
        node.nvme.write(big, blob)
        with _connect(node, rcvbuf=4096) as sock:
            sock.sendall(_read_req(big, 1) + _read_req(HITS[0], 2))
            conn = _only_conn(node)
            # both are on the books, the second parked on the lock, nothing read yet
            _wait(lambda: node.stats.snapshot()["hits"] == 2 and len(conn.wlock._waiters) == 1)
            first, second = recv_message(sock), recv_message(sock)
        assert (first.seq, second.seq) == (1, 2)
        assert first.payload == blob and second.payload == node.pfs.read(HITS[0])

    def test_eviction_between_open_and_send_is_harmless(self, node):
        key = HITS[0]
        real_open = node.nvme.open_read

        def open_then_evict(path):
            entry = real_open(path)
            node.nvme.drop(path)  # leaves the index while the entry pins its slot
            return entry

        node.nvme.open_read = open_then_evict
        with _connect(node) as sock:
            sock.sendall(_read_req(key, 9))
            resp = recv_message(sock)
        assert resp.ok and resp.seq == 9 and resp.header["source"] == "cache"
        assert resp.payload == node.pfs.read(key)
        assert not node.nvme.contains(key)

    def test_zero_byte_entry(self, node):
        node.pfs.write("/dataset/empty.bin", b"")
        node.nvme.write("/dataset/empty.bin", b"")
        with _connect(node) as sock:
            sock.sendall(_read_req("/dataset/empty.bin", 3) + _read_req(HITS[0], 4))
            a, b = recv_message(sock), recv_message(sock)
        assert (a.seq, a.payload, a.header["source"]) == (3, b"", "cache")
        assert b.seq == 4 and b.payload == node.pfs.read(HITS[0])

    def test_a_lone_zero_byte_hit_is_not_corked(self, node, monkeypatch):
        """Nothing follows an empty entry's header to flush a cork, and the
        kernel holds a corked segment for up to 200 ms: a zero-byte hit alone
        on its connection goes out uncorked, a 4 KiB hit corked."""
        node.pfs.write("/dataset/empty.bin", b"")
        node.nvme.write("/dataset/empty.bin", b"")
        sends: list = []
        send = socket.socket.send
        with _connect(node) as sock:
            client = sock.getsockname()

            def recording_send(self, data, flags=0):  # what the server sends this client, and how
                if self.getpeername() == client:
                    sends.append((len(data), flags & socket.MSG_MORE))
                return send(self, data, flags)

            monkeypatch.setattr(socket.socket, "send", recording_send)
            sock.sendall(_read_req("/dataset/empty.bin", 3))
            empty = recv_message(sock)
            assert sends == [(22, 0)]
            sock.sendall(_read_req(HITS[0], 4))
            full = recv_message(sock)
        assert sends == [(22, 0), (22, socket.MSG_MORE)]
        assert (empty.seq, empty.payload, empty.header["source"]) == (3, b"", "cache")
        assert full.seq == 4 and full.payload == node.pfs.read(HITS[0])


class TestHostileHeaders:
    """Bounds are enforced when the 22-byte header arrives: the server
    severs the connection without waiting for a single body byte."""

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda h: h.__setitem__(slice(18, 22), (_MAX_PAYLOAD + 1).to_bytes(4, "big")),
            lambda h: h.__setitem__(slice(8, 10), (_MAX_EXT + 1).to_bytes(2, "big")),
            lambda h: h.__setitem__(1, 0x00),  # second magic byte
            lambda h: h.__setitem__(4, 0xEE),  # op code
            lambda h: h.__setitem__(3, 1),  # kind: an OK reply sent *to* the server
        ],
        ids=["payload_len", "ext_len", "magic", "op_code", "kind"],
    )
    def test_rejected_on_header_arrival(self, node, mutate):
        header = bytearray(_read_req("/k", 1)[:22])
        mutate(header)
        before = node.stats.snapshot()["errors"]
        with _connect(node) as sock:
            sock.sendall(bytes(header))  # header only: no key, no body
            _assert_severed(sock)
        assert node.stats.snapshot()["errors"] == before + 1

    def test_non_magic_bytes_rejected_on_arrival(self, node):
        """Anything that does not open with the magic — a wrong first byte,
        a wrong second, a whole length-prefixed JSON frame — is refused at
        once, not after a header's worth of it has trickled in."""
        for first_bytes in (b"\x00", b"\xf7\x00", b'\x00\x00\x00\x0d{"op":"PING"}'):
            before = node.stats.snapshot()["errors"]
            with _connect(node) as sock:
                sock.sendall(first_bytes)
                _assert_severed(sock)
            assert node.stats.snapshot()["errors"] == before + 1

    def test_path_escape_is_answered_not_dropped(self, node):
        """A READ outside the PFS root gets an error *reply* — silence would
        read as a timeout against a healthy node."""
        evil = node.pfs.root.parent / "pfs-evil"
        evil.mkdir()
        (evil / "s.txt").write_bytes(b"secret")
        with _connect(node) as sock:
            for seq, key in enumerate(["../pfs-evil/s.txt", "/a/../../pfs-evil/s.txt"], start=1):
                sock.sendall(_read_req(key, seq))
                resp = recv_message(sock)
                assert not resp.ok and resp.seq == seq and b"secret" not in resp.payload
                assert "escape" in resp.header["reason"]
            # the connection is still good
            sock.sendall(_read_req(HITS[0], 7))
            assert recv_message(sock).seq == 7


class TestBackpressure:
    def test_pipeline_depth_pauses_reading_and_resumes(self, tmp_path):
        """More than ``_PIPELINE_DEPTH`` slow requests in one burst: decoding
        stops at the depth, reading pauses, and every request is still
        answered once the backlog drains."""
        pfs = PFSDir(tmp_path / "pfs", read_delay=0.01)
        n = _PIPELINE_DEPTH + 36
        keys = [f"/dataset/slow/{i:03d}.bin" for i in range(n)]
        for i, key in enumerate(keys):
            pfs.write(key, bytes([i % 251]) * 64)
        server = FTCacheServer(0, NVMeDir(tmp_path / "nvme"), pfs, dispatch_workers=2).start()
        try:
            with _connect(server) as sock:
                sock.sendall(b"".join(_read_req(k, i) for i, k in enumerate(keys, start=1)))
                conn = _only_conn(server)
                _wait(lambda: conn.paused and _inflight(conn) == _PIPELINE_DEPTH)
                got = {}
                for _ in keys:
                    assert _inflight(conn) <= _PIPELINE_DEPTH
                    resp = recv_message(sock)
                    assert resp.ok
                    got[resp.seq] = resp.payload
                assert got == {i: bytes([(i - 1) % 251]) * 64 for i in range(1, n + 1)}
                _wait(lambda: not conn.paused and not _inflight(conn))
        finally:
            server.close()


class TestCompletionCallback:
    """A dispatched request's reply is written by its job at once when it
    can, and otherwise keeps the write-side rules."""

    def test_completion_while_writing_is_paused_waits_for_resume(self, node):
        with _connect(node) as sock:
            sock.sendall(_read_req(HITS[0], 1))
            assert recv_message(sock).ok
            conn = _only_conn(node)
            # the transport's high-water signal, delivered by hand
            node._loop.call_soon_threadsafe(conn.pause_writing)
            _wait(lambda: conn.drain is not None)
            sock.sendall(_read_req(MISSES[0], 2))
            # dispatched, completed, and parked on the paused write side
            _wait(lambda: node.stats.snapshot()["misses"] == 1 and not conn.jobs and len(conn.tasks) == 1)
            sock.settimeout(0.2)
            with pytest.raises((socket.timeout, TimeoutError)):
                sock.recv(1)
            sock.settimeout(10)
            node._loop.call_soon_threadsafe(conn.resume_writing)
            resp = recv_message(sock)
            assert resp.seq == 2 and resp.payload == node.pfs.read(MISSES[0])
            _wait(lambda: not _inflight(conn))

    def test_completion_after_connection_lost_is_dropped(self, node, log_records):
        gate = threading.Event()
        real_read = node.pfs.read
        node.pfs.read = lambda key: gate.wait(10) and real_read(key)
        before = node.stats.snapshot()["errors"]
        with _connect(node) as sock:
            sock.sendall(_read_req(MISSES[0], 1))
            conn = _only_conn(node)
            _wait(lambda: conn.jobs == 1)
            node._loop.call_soon_threadsafe(conn.transport.abort)
            _wait(lambda: not node._conns)  # connection_lost has run
            assert conn.jobs == 1  # the job is still inside the PFS read
            gate.set()
            _wait(lambda: conn.jobs == 0)  # its completion ran, on a dead connection
        assert node.stats.snapshot()["misses"] == 1
        assert node.stats.snapshot()["errors"] == before
        assert log_records == []

    def test_dispatch_exception_counts_once_and_severs(self, node, log_records):
        def broken(*_):
            raise RuntimeError("dispatch bug")

        node._dispatch = broken
        before = node.stats.snapshot()["errors"]
        with _connect(node) as sock:
            sock.sendall(_stat_req(1))
            _assert_severed(sock)
        assert node.stats.snapshot()["errors"] == before + 1
        assert [r.getMessage() for r in log_records] == ["unhandled error serving STAT"]


class TestControlOps:
    def test_stat_overtakes_a_slow_miss_then_counts_it(self, tmp_path):
        """Control ops have no lane of their own: a STAT behind a READ that
        is still inside the PFS is answered first, matched by seq; one sent
        after the READ's reply was received counts that read (books before
        reply, across op types)."""
        pfs = PFSDir(tmp_path / "pfs", read_delay=0.15)
        pfs.write("/slow.bin", b"s" * 64)
        server = FTCacheServer(0, NVMeDir(tmp_path / "nvme"), pfs).start()
        try:
            with _connect(server) as sock:
                sock.sendall(_read_req("/slow.bin", 1) + _stat_req(2))
                first, second = recv_message(sock), recv_message(sock)
                assert first.seq == 2 and first.header["misses"] == 0
                assert second.seq == 1 and second.payload == b"s" * 64
                sock.sendall(_stat_req(3))
                third = recv_message(sock)
            assert third.seq == 3 and third.header["misses"] == 1
            assert third.header["binary_reqs"] == 3
        finally:
            server.close()


class TestFailureInjectionAndShutdown:
    def test_hang_swallows_requests(self, node):
        with _connect(node) as sock:
            sock.sendall(_read_req(HITS[0], 1))
            assert recv_message(sock).ok
            node.kill("hang")
            sock.sendall(_read_req(HITS[1], 2))
            sock.settimeout(0.3)
            with pytest.raises((socket.timeout, TimeoutError)):
                sock.recv(1)
            assert node.stats.snapshot()["hits"] == 1  # swallowed, not served
            node.close()  # shutdown severs the hung connection
            sock.settimeout(5)
            _assert_severed(sock)

    def test_drop_severs_live_connections_and_refuses_new_ones(self, node):
        with _connect(node) as sock:
            sock.sendall(_read_req(HITS[0], 1))
            assert recv_message(sock).ok
            node.kill("drop")
            sock.sendall(_read_req(HITS[1], 2))
            _assert_severed(sock)
        with pytest.raises(OSError):
            _connect(node).close()

    def test_half_close_still_gets_its_replies(self, node):
        with _connect(node) as sock:
            sock.sendall(_read_req(MISSES[0], 1) + _read_req(HITS[0], 2))
            sock.shutdown(socket.SHUT_WR)
            got = {r.seq: r.payload for r in (recv_message(sock), recv_message(sock))}
            assert sock.recv(1) == b""  # then the server closes its side
        assert got == {1: node.pfs.read(MISSES[0]), 2: node.pfs.read(HITS[0])}

    def test_close_leaves_no_task_fd_or_resource_warning(self, tmp_path):
        """Under ``-X dev -W error``: close() with a sendfile tail parked on a
        slow reader, a miss waiting on the write lock and a request still
        in the executor.  Any leaked file, socket, task or un-awaited
        coroutine surfaces on stderr and fails the run."""
        script = textwrap.dedent(
            """
            import gc, os, socket, sys, time
            from repro.runtime import Message
            from repro.runtime.protocol import OP_READ, encode_binary_request
            from repro.runtime.server import FTCacheServer
            from repro.runtime.storage import NVMeDir, PFSDir

            def fds():
                return len(os.listdir("/proc/self/fd"))

            root = sys.argv[1]
            gc.collect(); base = fds()  # before the NVMeDir: its slabs must close with the server
            pfs = PFSDir(root + "/pfs", read_delay=0.05)
            nvme = NVMeDir(root + "/nvme")
            blob = os.urandom(4 << 20)
            pfs.write("/big.bin", blob); nvme.write("/big.bin", blob)
            pfs.write("/miss.bin", b"m" * 64); pfs.write("/late.bin", b"l" * 64)
            server = FTCacheServer(0, nvme, pfs).start()
            sock = socket.socket()
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
            sock.connect(server.address)
            req = lambda p, s: encode_binary_request(Message.request(OP_READ, path=p), seq=s)
            sock.sendall(req("/big.bin", 1) + req("/miss.bin", 2))
            deadline = time.monotonic() + 5
            while not (server._conns and next(iter(server._conns)).wlock._waiters):
                assert time.monotonic() < deadline
                time.sleep(0.002)
            conn = next(iter(server._conns))
            sock.sendall(req("/late.bin", 3))  # still in the executor at close
            tasks = set(conn.tasks)
            assert len(tasks) >= 2
            server.close()
            assert not server._conns and all(t.done() for t in tasks)
            sock.close()
            del conn, tasks, server
            gc.collect()
            assert fds() == base, (fds(), base)  # nvme is still alive: server.close() closed its slabs
            print("clean")
            """
        )
        _assert_runs_clean(script, tmp_path)

    def test_a_tail_severed_before_it_starts_frees_the_write_side(self, tmp_path):
        """An 8 MiB hit the socket takes only part of, and a garbage frame in
        the same segment: the hit's tail task holds the write token from
        birth and is cancelled by the sever before its first step.  The
        token still comes free, so the dup'd socket is closed with the
        transport's: the client reads what was sent, then EOF, at once,
        and the connection leaves no descriptor behind."""
        script = textwrap.dedent(
            """
            import gc, os, socket, sys, time
            from repro.runtime import Message
            from repro.runtime.protocol import OP_READ, encode_binary_request
            from repro.runtime.server import FTCacheServer
            from repro.runtime.storage import NVMeDir, PFSDir

            def fds():
                return len(os.listdir("/proc/self/fd"))

            root = sys.argv[1]
            gc.collect(); base = fds()
            pfs = PFSDir(root + "/pfs")
            nvme = NVMeDir(root + "/nvme")
            blob = os.urandom(8 << 20)  # more than the socket buffers take
            pfs.write("/big.bin", blob); nvme.write("/big.bin", blob)
            server = FTCacheServer(0, nvme, pfs).start()
            sock = socket.socket()
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
            sock.settimeout(5)  # a socket the server never closes would hang to here
            sock.connect(server.address)
            deadline = time.monotonic() + 5
            while not server._conns:
                assert time.monotonic() < deadline
                time.sleep(0.002)
            conn = next(iter(server._conns))
            req = encode_binary_request(Message.request(OP_READ, path="/big.bin"), seq=1)
            sock.sendall(req + b"\\x00")  # the hit, then a frame without the magic
            got = 0
            try:
                while chunk := sock.recv(1 << 16):
                    got += len(chunk)
            except ConnectionResetError:
                pass
            assert got < len(req) + len(blob), got  # severed mid-reply, not served
            assert conn.sock.fileno() == -1  # closed with the transport, not left to gc
            assert server.stats.snapshot()["errors"] == 1
            server.close()
            sock.close()
            del conn, server
            gc.collect()
            assert fds() == base, (fds(), base)
            print("clean")
            """
        )
        _assert_runs_clean(script, tmp_path)


def _gated_pfs_server(tmp_path, files: dict, **kwargs):
    """A started server whose PFS reads park until the returned gate is set."""
    pfs = PFSDir(tmp_path / "pfs")
    for key, data in files.items():
        pfs.write(key, data)
    server = FTCacheServer(0, NVMeDir(tmp_path / "nvme"), pfs, **kwargs)
    gate = threading.Event()
    real_read = pfs.read
    pfs.read = lambda key: gate.wait(10) and real_read(key)
    return server.start(), gate


class TestJobReplies:
    """A dispatch job sends its own reply from its thread; the loop finishes
    only what the socket did not take, and hears of a job only when it
    waits on one."""

    def test_entry_installed_between_decode_and_job_is_a_sendfile_hit(self, tmp_path):
        """A READ that missed at decode and finds its entry when its job runs
        is served like any hit: corked header + sendfile, booked as a hit."""
        late = "/dataset/late.bin"
        server, gate = _gated_pfs_server(
            tmp_path, {MISSES[0]: b"m" * 4096, late: b"p" * 4096}, dispatch_workers=1
        )
        try:
            with _connect(server) as sock:
                sock.sendall(_read_req(MISSES[0], 1) + _read_req(late, 2))
                conn = _only_conn(server)
                # both decoded as misses; the one dispatch thread is parked in the PFS
                _wait(lambda: server.stats.snapshot()["binary_reqs"] == 2 and conn.jobs == 2)
                server.nvme.write(late, b"c" * 4096)  # installed between decode and job
                gate.set()
                replies = {r.seq: r for r in (recv_message(sock), recv_message(sock))}
        finally:
            gate.set()
            server.close()
        assert replies[1].header["source"] == "pfs" and replies[1].payload == b"m" * 4096
        assert replies[2].header["source"] == "cache" and replies[2].payload == b"c" * 4096
        c = server.stats.snapshot()
        assert c["hits"] == c["sendfile_serves"] == 1
        assert c["misses"] == 1 and c["race_fallthroughs"] == 0

    def test_a_remainder_keeps_frames_whole_and_in_order(self, tmp_path):
        """A reader that stops reading while 1 MiB miss replies are owed —
        more than the socket buffers hold — with hits pipelined behind them:
        dispatch threads send what the socket takes, tasks finish the rest
        under the write token, the hits queue behind those tasks, and every
        frame arrives whole, matched by seq."""
        bigs = {f"/dataset/big-miss/{i}.bin": os.urandom(1 << 20) for i in range(6)}
        pfs = PFSDir(tmp_path / "pfs")
        nvme = NVMeDir(tmp_path / "nvme")
        for key, blob in bigs.items():
            pfs.write(key, blob)
        for i, key in enumerate(HITS[:8]):
            pfs.write(key, bytes([i]) * 4096)
            nvme.write(key, bytes([i]) * 4096)
        server = FTCacheServer(0, nvme, pfs).start()
        expected = dict(enumerate(bigs.values(), start=1))
        expected.update((seq, bytes([i]) * 4096) for i, seq in enumerate(range(7, 15)))
        try:
            with _connect(server, rcvbuf=4096) as sock:
                sock.sendall(b"".join(_read_req(k, seq) for seq, k in enumerate(bigs, start=1)))
                conn = _only_conn(server)
                # every job has left; what the socket did not take holds the write side
                _wait(lambda: server.stats.snapshot()["misses"] == 6 and not conn.jobs and conn.drain is not None)
                sock.sendall(b"".join(_read_req(k, seq) for seq, k in enumerate(HITS[:8], start=7)))
                _wait(lambda: server.stats.snapshot()["hits"] == 8 and len(conn.tasks) >= 8)
                replies = [recv_message(sock) for _ in expected]
                _wait(lambda: not _inflight(conn))
        finally:
            server.close()
        seqs = [r.seq for r in replies]
        assert sorted(seqs[:6]) == list(range(1, 7)) and seqs[6:] == list(range(7, 15))
        for r in replies:
            assert r.ok and r.payload == expected[r.seq], r.seq
            assert r.header["source"] == ("pfs" if r.seq <= 6 else "cache")

    @pytest.mark.parametrize("workers", [1, 8])
    def test_a_full_pipeline_released_at_once_resumes(self, tmp_path, workers):
        """64 parked misses fill the pipeline and pause reading; released at
        once, the jobs leave it from their dispatch threads, switching often,
        and the loop still resumes and answers the 64 behind them.  One
        thread sends every reply in place, so only a job can wake the loop;
        eight contend for the write token, and a lost update to ``jobs``
        would leave it non-zero."""
        keys = [f"/dataset/gated/{i:03d}.bin" for i in range(2 * _PIPELINE_DEPTH)]
        server, gate = _gated_pfs_server(
            tmp_path, {k: bytes([i % 251]) * 64 for i, k in enumerate(keys)}, dispatch_workers=workers
        )
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with _connect(server) as sock:
                sock.sendall(b"".join(_read_req(k, seq) for seq, k in enumerate(keys, start=1)))
                conn = _only_conn(server)
                _wait(lambda: conn.paused and conn.jobs == _PIPELINE_DEPTH)
                gate.set()
                got = {r.seq: r.payload for r in (recv_message(sock) for _ in keys)}
                _wait(lambda: not conn.paused and not _inflight(conn))
        finally:
            sys.setswitchinterval(interval)
            gate.set()
            server.close()
        assert got == {seq: bytes([(seq - 1) % 251]) * 64 for seq in range(1, len(keys) + 1)}

    @pytest.mark.parametrize("workers", [1, 8])
    def test_eof_with_replies_owed_gets_them_all(self, tmp_path, workers):
        """A client that half-closes after pipelining misses still parked in
        the PFS gets every reply, then the server's FIN."""
        keys = [f"/dataset/eof/{i:02d}.bin" for i in range(16)]
        server, gate = _gated_pfs_server(tmp_path, {k: k.encode() * 8 for k in keys}, dispatch_workers=workers)
        try:
            with _connect(server) as sock:
                sock.sendall(b"".join(_read_req(k, seq) for seq, k in enumerate(keys, start=1)))
                conn = _only_conn(server)
                _wait(lambda: server.stats.snapshot()["binary_reqs"] == len(keys))
                sock.shutdown(socket.SHUT_WR)
                _wait(lambda: conn.eof)
                gate.set()
                got = {r.seq: r.payload for r in (recv_message(sock) for _ in keys)}
                assert sock.recv(1) == b""
        finally:
            gate.set()
            server.close()
        assert got == {seq: k.encode() * 8 for seq, k in enumerate(keys, start=1)}

    def test_a_pause_set_after_the_last_job_left_still_resumes(self, tmp_path):
        """The lost wake-up, forced: every job of a full pipeline leaves
        (in place, one dispatch thread, none of them seeing a pause) while
        the loop is between filling the pipeline and pausing reading.  The
        loop re-checks after it pauses, so the 64 frames behind still get
        decoded and answered."""
        keys = [f"/dataset/race/{i:03d}.bin" for i in range(2 * _PIPELINE_DEPTH)]
        server, gate = _gated_pfs_server(tmp_path, {k: k.encode() for k in keys}, dispatch_workers=1)

        class JobsLeaveBeforeThePause(bytearray):
            def __delitem__(self, index):  # ``_parse`` trims what it decoded, then pauses
                if conn.jobs == _PIPELINE_DEPTH and not gate.is_set():
                    gate.set()
                    _wait(lambda: not conn.jobs)
                super().__delitem__(index)

        try:
            with _connect(server) as sock:
                conn = _only_conn(server)
                conn.buf = JobsLeaveBeforeThePause()
                sock.sendall(b"".join(_read_req(k, seq) for seq, k in enumerate(keys, start=1)))
                got = {r.seq: r.payload for r in (recv_message(sock) for _ in keys)}
        finally:
            gate.set()
            server.close()
        assert got == {seq: k.encode() for seq, k in enumerate(keys, start=1)}

    def test_eof_with_a_remainder_owed_gets_it_whole(self, tmp_path):
        """A half-closed client owed a reply larger than the socket buffers:
        the job hands the rest to a task, which is in the pipeline before the
        job leaves it, so the EOF close waits for the whole frame."""
        blob = os.urandom(8 << 20)
        server, gate = _gated_pfs_server(tmp_path, {"/dataset/huge.bin": blob})
        try:
            with _connect(server, rcvbuf=4096) as sock:
                sock.sendall(_read_req("/dataset/huge.bin", 1))
                conn = _only_conn(server)
                _wait(lambda: conn.jobs == 1)
                sock.shutdown(socket.SHUT_WR)
                _wait(lambda: conn.eof)
                gate.set()
                _wait(lambda: not conn.jobs)  # left, its remainder with a task or the transport
                resp = recv_message(sock)
                assert sock.recv(1) == b""
        finally:
            gate.set()
            server.close()
        assert resp.seq == 1 and resp.payload == blob

    def test_a_job_tail_severed_in_its_turn_frees_the_write_side(self, node):
        """A job's remainder handed to the loop with the job's token, then a
        sever in the same turn (a node drop, a failed job): the tail task is
        cancelled before its first step, yet the token comes free, so the
        connection's socket is closed and the client is not left hanging."""
        with _connect(node) as sock:
            conn = _only_conn(node)
            assert conn.wlock.try_acquire()  # the job's in-place send claimed it

            def tail_then_sever():
                conn._job_tail(b"head", b"payload", None, 0, True)
                conn.sever()

            with conn.jobs_lock:
                conn.jobs += 1  # the job _job_tail retires
            node._loop.call_soon_threadsafe(tail_then_sever)
            _assert_severed(sock)
            _wait(lambda: conn.sock.fileno() == -1 and not conn.tasks)
        assert conn.jobs == 0

    def test_close_while_sending_leaves_no_fd_task_or_thread(self, tmp_path):
        """Under ``-X dev -W error``: close() in the middle of a burst of
        misses whose replies dispatch threads are sending to a slow reader.
        No descriptor, task or thread outlives it."""
        script = textwrap.dedent(
            """
            import gc, os, socket, sys, threading, time
            from repro.runtime import Message
            from repro.runtime.protocol import OP_READ, encode_binary_request
            from repro.runtime.server import FTCacheServer
            from repro.runtime.storage import NVMeDir, PFSDir

            def fds():
                return len(os.listdir("/proc/self/fd"))

            root = sys.argv[1]
            gc.collect(); base = fds()
            pfs = PFSDir(root + "/pfs")
            nvme = NVMeDir(root + "/nvme")
            keys = ["/burst/%03d.bin" % i for i in range(128)]
            for k in keys:
                pfs.write(k, os.urandom(64 << 10))
            server = FTCacheServer(0, nvme, pfs).start()
            sock = socket.socket()
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
            sock.connect(server.address)
            sock.sendall(b"".join(
                encode_binary_request(Message.request(OP_READ, path=k), seq=i) for i, k in enumerate(keys)
            ))
            deadline = time.monotonic() + 5
            while server.stats.snapshot()["misses"] < 8:
                assert time.monotonic() < deadline
                time.sleep(0.002)
            conn = next(iter(server._conns))
            server.close()
            assert not server._conns and all(t.done() for t in conn.tasks)
            sock.close()
            del conn, server
            gc.collect()
            assert fds() == base, (fds(), base)
            assert threading.enumerate() == [threading.main_thread()], threading.enumerate()
            print("clean")
            """
        )
        _assert_runs_clean(script, tmp_path)


class TestWriteToken:
    def test_a_release_before_the_waiter_queues_is_not_lost(self):
        """A dispatch thread frees the token after a loop task's claim failed
        and before the task queued: the task re-checks after queueing, so
        it takes the token instead of waiting for a hand-off nobody sends."""
        loop = asyncio.new_event_loop()
        ours, peer = socket.socketpair()
        token = _WriteLock(loop, ours)
        assert token.try_acquire()

        class ReleasedBeforeQueued(deque):
            def append(self, fut):
                releaser = threading.Thread(target=token.release, name="releaser", daemon=True)
                releaser.start()
                releaser.join(timeout=5)
                assert not releaser.is_alive()
                super().append(fut)

        token._waiters = ReleasedBeforeQueued()
        try:
            loop.run_until_complete(asyncio.wait_for(token.acquire(), timeout=5))
            assert not token.try_acquire()  # the task holds it
            token.retire()
            assert ours.fileno() != -1  # never closed under its holder...
            token.release()
            assert ours.fileno() == -1  # ...who closes it on release
        finally:
            loop.close()
            ours.close()
            peer.close()


class TestStatFromTheIndex:
    def test_stat_reports_entries_without_scanning(self, node):
        with _connect(node) as sock:
            sock.sendall(_stat_req(1))
            stat = recv_message(sock).header
        assert stat["cached_entries"] == len(HITS) == node.nvme.entry_count()
        assert json.dumps(stat)  # plain JSON types only
