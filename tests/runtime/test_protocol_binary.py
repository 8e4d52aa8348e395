"""Wire codec, the async server core, and the PR's bugfix sweep.

Covers the fixed-header codec round trips, frame truncation at every
byte offset (payload frames and JSON-fields frames), the
``_MAX_PAYLOAD``/``_MAX_HEADER`` bounds, TCP_NODELAY on client and
server sockets, the zero-copy vectored send (no header+payload
concatenation), seq-echo pipelining with out-of-order completion, the
scatter–gather ``read_many`` (every owner in flight at once, drained
across owners before any reply is judged, per-owner fallback), and
``FrameReader`` — the buffered driver every pooled socket reads through.
"""

import socket
import threading
import time

import pytest

from repro.runtime import LocalCluster, Message, ReadError, recv_message
from repro.runtime.protocol import (
    _MAX_EXT,
    _MAX_HEADER,
    _MAX_PAYLOAD,
    _WINDOW,
    FrameReader,
    OP_JOIN_PLAN,
    OP_OBS,
    OP_PING,
    OP_PUT,
    OP_READ,
    OP_STAT,
    OP_TRANSFER,
    ProtocolError,
    encode_binary_request,
    encode_binary_response_header,
    parse_frame,
    send_binary_request,
    set_nodelay,
)

from tests.runtime.test_cluster_e2e import _recached
from tests.runtime.test_server_conn import _wait


def _pump(sock: socket.socket):
    """Decode one frame from ``sock`` on a reader thread; return
    ``(thread, out, err)`` dicts the caller joins and inspects."""
    out: dict = {}
    err: dict = {}

    def reader() -> None:
        try:
            out["msg"] = recv_message(sock)
        except Exception as exc:  # surfaced via ``err`` in the test thread
            err["exc"] = exc

    t = threading.Thread(target=reader, name="binproto-reader", daemon=True)
    t.start()
    return t, out, err


class TestBinaryRoundTrip:
    def test_read_request_round_trips(self):
        a, b = socket.socketpair()
        try:
            t, out, err = _pump(b)
            msg = Message.request(OP_READ, path="/dataset/train/x.bin")
            send_binary_request(a, msg, seq=7)
            t.join(timeout=5)
            assert not err, err
            got = out["msg"]
            assert got.op == OP_READ
            assert got.header["path"] == "/dataset/train/x.bin"
            assert got.seq == 7 and got.payload == b""
        finally:
            a.close()
            b.close()

    def test_put_request_carries_payload(self):
        a, b = socket.socketpair()
        try:
            t, out, err = _pump(b)
            msg = Message.request(OP_PUT, path="/k")
            msg.payload = b"\x00\x01binary bytes\xff" * 100
            send_binary_request(a, msg, seq=3)
            t.join(timeout=5)
            assert not err, err
            got = out["msg"]
            assert got.op == OP_PUT and got.payload == msg.payload and got.seq == 3
        finally:
            a.close()
            b.close()

    def test_trace_context_rides_the_ext_field(self):
        a, b = socket.socketpair()
        try:
            t, out, err = _pump(b)
            msg = Message.request(OP_READ, path="/k")
            msg.header["trace_id"] = "0123456789abcdef"
            msg.header["span_id"] = "fedcba98"
            send_binary_request(a, msg)
            t.join(timeout=5)
            assert not err, err
            got = out["msg"]
            assert got.header["trace_id"] == "0123456789abcdef"
            assert got.header["span_id"] == "fedcba98"
        finally:
            a.close()
            b.close()

    @pytest.mark.parametrize(
        "resp, expect",
        [
            (Message.ok_response(payload=b"data", source="cache"), {"source": "cache"}),
            (Message.ok_response(payload=b"data", source="pfs"), {"source": "pfs"}),
        ],
    )
    def test_read_response_source_flag(self, resp, expect):
        a, b = socket.socketpair()
        try:
            t, out, err = _pump(b)
            a.sendall(encode_binary_response_header(OP_READ, resp, seq=9) + resp.payload)
            t.join(timeout=5)
            assert not err, err
            got = out["msg"]
            assert got.ok and got.seq == 9 and got.payload == b"data"
            for k, v in expect.items():
                assert got.header[k] == v
        finally:
            a.close()
            b.close()

    def test_transfer_response_carries_accept_and_queue_len(self):
        resp = Message.ok_response(accepted=True, queue_len=17)
        a, b = socket.socketpair()
        try:
            t, out, err = _pump(b)
            a.sendall(encode_binary_response_header(OP_TRANSFER, resp, seq=1))
            t.join(timeout=5)
            assert not err, err
            got = out["msg"]
            assert got.header["accepted"] is True and got.header["queue_len"] == 17
        finally:
            a.close()
            b.close()

    def test_error_response_carries_reason_and_code(self):
        resp = Message.error_response("no such file: /k", code="ENOENT")
        a, b = socket.socketpair()
        try:
            t, out, err = _pump(b)
            a.sendall(encode_binary_response_header(OP_READ, resp, seq=2))
            t.join(timeout=5)
            assert not err, err
            got = out["msg"]
            assert not got.ok
            assert got.header["reason"] == "no such file: /k"
            assert got.header["code"] == "ENOENT"
        finally:
            a.close()
            b.close()

    def test_non_table_op_refused(self):
        with pytest.raises(ProtocolError, match="op table"):
            encode_binary_request(Message.request("EVICT"))


_TRACE = {"trace_id": "0123456789abcdef", "span_id": "fedcba98"}
_HIT_PAYLOAD = bytes(range(256)) * 64  # 16 KiB

#: ``(encode, golden frame, payload, decoded message)``: each frame as the
#: codec wrote it before READ frames got their cheap paths, which must
#: reproduce these bytes and these messages exactly
_GOLDEN = {
    "read": (
        lambda: encode_binary_request(Message.request(OP_READ, path="/dataset/train/x.bin"), 7),
        "f7c501000100001400000000000700000000000000002f646174617365742f747261696e2f782e62696e",
        b"",
        Message({"op": OP_READ, "path": "/dataset/train/x.bin"}, b"", 7),
    ),
    "read_traced": (
        lambda: encode_binary_request(Message.request(OP_READ, path="/dataset/train/x.bin", **_TRACE), 8),
        "f7c501000100001400180000000800000000000000002f646174617365742f747261696e2f782e62696e"
        "303132333435363738396162636465666665646362613938",
        b"",
        Message({"op": OP_READ, "path": "/dataset/train/x.bin", **_TRACE}, b"", 8),
    ),
    "read_non_ascii": (
        lambda: encode_binary_request(Message.request(OP_READ, path="/données/ñ/файл.bin"), 9),
        "f7c501000100001900000000000900000000000000002f646f6e6ec3a965732fc3b12fd184d0b0d0b9d0bb2e62696e",
        b"",
        Message({"op": OP_READ, "path": "/données/ñ/файл.bin"}, b"", 9),
    ),
    "read_empty_path": (
        lambda: encode_binary_request(Message.request(OP_READ, path=""), 0),
        "f7c50100010000000000000000000000000000000000",
        b"",
        Message({"op": OP_READ, "path": ""}, b"", 0),
    ),
    "ping_traced": (  # a trace context and no path: three header fields
        lambda: encode_binary_request(Message.request(OP_PING, **_TRACE), 1),
        "f7c50100040000000018000000010000000000000000303132333435363738396162636465666665646362613938",
        b"",
        Message({"op": OP_PING, "path": "", **_TRACE}, b"", 1),
    ),
    "hit_reply": (
        lambda: encode_binary_response_header(OP_READ, Message.ok_response(source="cache"), seq=5,
                                              payload_len=len(_HIT_PAYLOAD)),
        "f7c50101010000000000000000050000000000004000",
        _HIT_PAYLOAD,
        Message({"status": "OK", "source": "cache"}, _HIT_PAYLOAD, 5),
    ),
    "pfs_reply": (
        lambda: encode_binary_response_header(OP_READ, Message.ok_response(payload=b"data", source="pfs"), seq=6),
        "f7c50101010100000000000000060000000000000004",
        b"data",
        Message({"status": "OK", "source": "pfs"}, b"data", 6),
    ),
    "enoent_reply": (
        lambda: encode_binary_response_header(
            OP_READ, Message.error_response("no such file: /k", code="ENOENT"), seq=2),
        "f7c501020100001000000000000200000001000000006e6f20737563682066696c653a202f6b",
        b"",
        Message({"status": "ERROR", "reason": "no such file: /k", "code": "ENOENT"}, b"", 2),
    ),
    "reason_reply": (
        lambda: encode_binary_response_header(OP_READ, Message.error_response("missing path"), seq=3),
        "f7c501020100000c00000000000300000000000000006d697373696e672070617468",
        b"",
        Message({"status": "ERROR", "reason": "missing path"}, b"", 3),
    ),
    "stat_reply": (
        lambda: encode_binary_response_header(OP_STAT, Message.ok_response(node_id=3, hits=9), seq=4),
        "f7c501010504000000000000000400000000000000167b226e6f64655f6964223a332c2268697473223a397d",
        b"",
        Message({"status": "OK", "node_id": 3, "hits": 9}, b"", 4),
    ),
}


@pytest.mark.parametrize("name", sorted(_GOLDEN))
class TestGoldenFrames:
    """The codec made cheap in place — READ frames skip what they do not
    carry, a hit's reply header is one pack — is the same codec: the same
    bytes out and the same messages in as before."""

    def test_encoder_writes_the_golden_frame(self, name):
        encode, golden, _, _ = _GOLDEN[name]
        assert encode().hex() == golden

    def test_every_driver_decodes_the_golden_message(self, name):
        _, golden, payload, expected = _GOLDEN[name]
        frame = bytes.fromhex(golden) + payload
        assert parse_frame(frame) == (expected, len(frame))
        assert parse_frame(bytearray(b"\0" + frame), 1) == (expected, 1 + len(frame))
        assert FrameReader(_Segments(frame)).recv() == expected
        a, b = socket.socketpair()
        try:
            a.sendall(frame)
            assert recv_message(b) == expected
        finally:
            a.close()
            b.close()


class TestTruncation:
    """A frame cut at *every* byte offset must fail cleanly, never hang
    or decode garbage."""

    def _truncated_outcomes(self, frame: bytes):
        for cut in range(len(frame)):
            a, b = socket.socketpair()
            try:
                b.settimeout(5)
                a.sendall(frame[:cut])
                a.close()
                with pytest.raises((ConnectionError, ProtocolError)):
                    recv_message(b)
            finally:
                b.close()

    def test_binary_frame_every_offset(self):
        msg = Message.request(OP_PUT, path="/dataset/x.bin")
        msg.payload = b"payload-bytes"
        frame = encode_binary_request(msg, seq=5) + msg.payload
        self._truncated_outcomes(frame)

    def test_json_frame_every_offset(self):
        """A STAT reply: its fields ride as JSON in the payload."""
        frame = encode_binary_response_header(OP_STAT, Message.ok_response(node_id=3, hits=9), seq=5)
        self._truncated_outcomes(frame)

    @pytest.mark.parametrize("body", ["binary", "json"])
    def test_incremental_parser_every_offset(self, body):
        """The server-side decoder (``parse_frame``) on the same frames: a
        prefix of any length is "not yet" with a target beyond what it
        has — never a message, never an error — and the whole frame, with
        the next one already behind it, decodes exactly once."""
        if body == "binary":
            msg = Message.request(OP_PUT, path="/dataset/x.bin")
            msg.payload = b"payload-bytes"
        else:
            msg = Message.request(OP_JOIN_PLAN, planned_keys=3, planned_bytes=[1, 2], epoch="v")
        frame = encode_binary_request(msg, seq=5) + msg.payload
        for cut in range(len(frame)):
            got, need = parse_frame(bytearray(frame[:cut]))
            assert got is None and cut < need <= len(frame)
        buf = bytearray(b"\0\0\0" + frame + frame[:5])  # mid-buffer, trailing partial
        got, end = parse_frame(buf, 3)
        assert end == 3 + len(frame)
        assert got.payload == msg.payload and got.seq == 5
        assert got.header == {"path": "", **msg.header}
        del buf[:end]  # no view of the buffer outlives the call


class TestSizeBounds:
    def test_json_oversized_header_rejected(self):
        """A fields payload longer than ``_MAX_HEADER`` fails on the fixed
        header, before a byte of it is waited for."""
        good = bytearray(encode_binary_request(Message.request(OP_OBS, spans_limit=1, events_limit=1))[:22])
        good[18:22] = (_MAX_HEADER + 1).to_bytes(4, "big")  # payload_len field
        a, b = socket.socketpair()
        try:
            a.sendall(bytes(good))
            with pytest.raises(ProtocolError, match="payload length"):
                recv_message(b)
        finally:
            a.close()
            b.close()

    def test_binary_oversized_payload_len_rejected(self):
        good = bytearray(encode_binary_request(Message.request(OP_READ, path="/k")))
        good[18:22] = (_MAX_PAYLOAD + 1).to_bytes(4, "big")  # payload_len field
        a, b = socket.socketpair()
        try:
            a.sendall(bytes(good))
            with pytest.raises(ProtocolError, match="payload length"):
                recv_message(b)
        finally:
            a.close()
            b.close()

    def test_binary_oversized_ext_len_rejected(self):
        good = bytearray(encode_binary_request(Message.request(OP_READ, path="/k")))
        good[8:10] = (_MAX_EXT + 1).to_bytes(2, "big")  # ext_len field
        a, b = socket.socketpair()
        try:
            a.sendall(bytes(good))
            with pytest.raises(ProtocolError, match="ext length"):
                recv_message(b)
        finally:
            a.close()
            b.close()

    def test_binary_bad_magic_rejected(self):
        bad = b"\xf7\x00" + encode_binary_request(Message.request(OP_READ, path="/k"))[2:]
        a, b = socket.socketpair()
        try:
            a.sendall(bad)
            with pytest.raises(ProtocolError, match="magic"):
                recv_message(b)
        finally:
            a.close()
            b.close()

    def test_binary_unknown_op_code_rejected(self):
        bad = bytearray(encode_binary_request(Message.request(OP_READ, path="/k")))
        bad[4] = 0xEE  # op-code byte
        a, b = socket.socketpair()
        try:
            a.sendall(bytes(bad))
            with pytest.raises(ProtocolError, match="op code"):
                recv_message(b)
        finally:
            a.close()
            b.close()

    @pytest.mark.parametrize(
        "field, value, match",
        [
            (slice(18, 22), (_MAX_PAYLOAD + 1).to_bytes(4, "big"), "payload length"),
            (slice(8, 10), (_MAX_EXT + 1).to_bytes(2, "big"), "ext length"),
            (slice(1, 2), b"\x00", "magic"),
            (slice(4, 5), b"\xee", "op code"),
        ],
    )
    def test_incremental_parser_rejects_on_the_fixed_header(self, field, value, match):
        """``parse_frame`` fails a hostile frame with 22 bytes in hand — it
        never asks for the body the bad length describes — and a bad
        magic byte the moment it is in."""
        header = bytearray(encode_binary_request(Message.request(OP_READ, path="/k"))[:22])
        header[field] = value
        verdict_at = 2 if match == "magic" else 22
        assert parse_frame(header[: verdict_at - 1])[0] is None  # one byte short: no verdict yet
        with pytest.raises(ProtocolError, match=match):
            parse_frame(header[:verdict_at])
        with pytest.raises(ProtocolError, match=match):
            parse_frame(header)

    def test_incremental_parser_json_bounds(self):
        """Hostile fields payloads raise as soon as their bytes are in."""
        head = bytearray(encode_binary_request(Message.request(OP_OBS, spans_limit=1, events_limit=1))[:22])
        for raw, match in ((b"[1,2]", "not an object"), (b'"x"', "not an object"),
                           (b"\xff\xfe{}", "bad fields"), (b"{nope", "bad fields"),
                           (b"[" * 100_000, "bad fields")):
            head[18:22] = len(raw).to_bytes(4, "big")
            assert parse_frame(head + raw[:-1])[0] is None
            with pytest.raises(ProtocolError, match=match):
                parse_frame(head + raw)
        head[18:22] = (_MAX_HEADER + 1).to_bytes(4, "big")
        with pytest.raises(ProtocolError, match="payload length"):
            parse_frame(head)

    def test_oversized_payload_refused_at_send_time(self):
        class Huge(bytes):
            def __len__(self):
                return _MAX_PAYLOAD + 1

        msg = Message.request(OP_PUT, path="/k")
        msg.payload = Huge()
        with pytest.raises(ProtocolError, match="payload length"):
            encode_binary_request(msg)
        # the fields flag claims the payload: a message that also has payload
        # bytes of its own (or a sendfile length) cannot be framed either
        msg = Message.request(OP_PUT, path="/k", ttl=3)
        msg.payload = b"bytes"
        with pytest.raises(ProtocolError, match="need the payload"):
            encode_binary_request(msg)
        for resp, plen in ((Message.ok_response(payload=b"bytes", hits=1), None),
                           (Message.ok_response(hits=1), 5)):
            with pytest.raises(ProtocolError, match="need the payload"):
                encode_binary_response_header(OP_READ, resp, payload_len=plen)


class _RecordingSock:
    """Captures sendmsg iovecs so tests can assert zero-copy behaviour."""

    def __init__(self):
        self.calls: list = []

    def sendmsg(self, bufs):
        bufs = list(bufs)
        self.calls.append(bufs)
        return sum(len(b) for b in bufs)


class TestVectoredSend:
    def test_payload_is_its_own_iovec_not_a_copy(self):
        """Regression: the send path used to concatenate header+payload,
        doubling peak memory for every large message."""
        payload = b"x" * 65536
        sock = _RecordingSock()
        send_binary_request(sock, Message(header={"op": "PUT", "path": "/k"}, payload=payload))
        assert len(sock.calls) == 1
        bufs = sock.calls[0]
        assert len(bufs) == 2  # header frame + payload, never joined
        # the payload iovec is a view over the caller's buffer, not a copy
        assert bufs[1].obj is payload
        assert bufs[1].nbytes == len(payload)

    def test_binary_request_payload_is_its_own_iovec(self):
        payload = b"y" * 32768
        msg = Message.request(OP_PUT, path="/k")
        msg.payload = payload
        sock = _RecordingSock()
        send_binary_request(sock, msg, seq=1)
        bufs = sock.calls[0]
        assert bufs[-1].obj is payload

    def test_partial_sendmsg_progresses(self):
        class Trickle:
            def __init__(self):
                self.got = bytearray()

            def sendmsg(self, bufs):
                first = bytes(bufs[0])[:3]  # short write every call
                self.got += first
                return len(first)

        sock = Trickle()
        msg = Message(header={"op": "PUT", "path": "/k"}, payload=b"0123456789")
        send_binary_request(sock, msg)
        frame = encode_binary_request(msg) + msg.payload
        assert bytes(sock.got) == frame


@pytest.fixture(scope="class")
def cluster():
    with LocalCluster(n_servers=3, policy="nvme", ttl=1.0, timeout_threshold=2) as c:
        c.populate(n_files=16, file_bytes=4096, seed=7)
        yield c


class TestWireNegotiation:
    """READ replies over one raw socket: source flag, seq echo, error code."""

    def test_binary_read_miss_reports_pfs_source(self, cluster):
        server = cluster.servers[0]
        path = cluster.paths[1]
        server.nvme.drop(path)
        with socket.create_connection(server.address, timeout=5) as sock:
            sock.settimeout(5)
            send_binary_request(sock, Message.request(OP_READ, path=path), seq=4)
            resp = recv_message(sock)
            assert resp.ok and resp.seq == 4
            assert resp.header["source"] == "pfs"
            assert resp.payload == cluster.pfs.read(path)

    def test_binary_read_enoent_error(self, cluster):
        server = cluster.servers[0]
        with socket.create_connection(server.address, timeout=5) as sock:
            sock.settimeout(5)
            send_binary_request(
                sock, Message.request(OP_READ, path="/dataset/never/was.bin"), seq=6
            )
            resp = recv_message(sock)
            assert not resp.ok and resp.seq == 6
            assert resp.header["code"] == "ENOENT"


class TestNodelay:
    def test_server_sets_nodelay_on_accepted_conns(self, cluster):
        server = cluster.servers[1]
        with socket.create_connection(server.address, timeout=5) as sock:
            sock.settimeout(5)
            send_binary_request(sock, Message.request(OP_PING))
            assert recv_message(sock).ok
            accepted = [c.transport.get_extra_info("socket") for c in list(server._conns)]
            assert accepted, "server tracked no live connection"
            assert all(
                s.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY) == 1 for s in accepted
            )

    def test_client_pooled_socket_sets_nodelay(self, cluster):
        client = cluster.client()
        try:
            client.read(cluster.paths[0])
            pooled = list(client._pool.conns.values())
            assert pooled, "client pooled no connection"
            assert all(
                p.sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY) == 1
                for p in pooled
            )
        finally:
            client.close()

    def test_set_nodelay_tolerates_non_tcp_sockets(self):
        a, b = socket.socketpair()  # AF_UNIX: TCP_NODELAY is invalid here
        try:
            set_nodelay(a)  # must not raise
        finally:
            a.close()
            b.close()


class TestPipelining:
    def test_out_of_order_completion_matched_by_seq(self):
        """A cached READ behind a slow PFS miss completes first; the seq
        echo is what keeps the responses attributable."""
        with LocalCluster(
            n_servers=1, policy="nvme", ttl=5.0, timeout_threshold=3, pfs_read_delay=0.25
        ) as c:
            c.populate(n_files=2, file_bytes=2048, seed=3)
            slow, fast = c.paths[0], c.paths[1]
            server = c.servers[0]
            server.nvme.write(fast, c.pfs.read(fast))  # pre-cache the fast key
            with socket.create_connection(server.address, timeout=5) as sock:
                sock.settimeout(5)
                send_binary_request(sock, Message.request(OP_READ, path=slow), seq=1)
                send_binary_request(sock, Message.request(OP_READ, path=fast), seq=2)
                first = recv_message(sock)
                second = recv_message(sock)
            assert first.seq == 2, "cache hit should overtake the PFS miss"
            assert second.seq == 1
            assert first.payload == c.pfs.read(fast)
            assert second.payload == c.pfs.read(slow)

    def test_read_many_pipelines_same_owner_batches(self, cluster):
        client = cluster.client()
        try:
            expected = [cluster.pfs.read(p) for p in cluster.paths]
            got = client.read_many(list(cluster.paths))
            assert got == expected
            assert client.stats["pipelined_reads"] > 0
            got2 = client.read_many(list(cluster.paths))  # now mostly cache hits
            assert got2 == expected
        finally:
            client.close()

    def test_read_many_missing_file_raises(self, cluster):
        client = cluster.client()
        try:
            with pytest.raises(ReadError, match="no such file"):
                client.read_many([cluster.paths[0], "/dataset/train/nope.bin"])
        finally:
            client.close()

    def test_every_owner_is_sent_to_before_any_reply_is_read(self, cluster):
        client = cluster.client()
        try:
            client.read_many(list(cluster.paths))  # pools a socket per owner
            log: list[tuple[str, int]] = []
            for node, conn in client._pool.conns.items():
                conn.sock = conn.reader.sock = _TapSock(conn.sock, node, log)
            assert len(client._pool.conns) == 3
            assert client.read_many(list(cluster.paths)) == [cluster.pfs.read(p) for p in cluster.paths]
            first_recv = [op for op, _ in log].index("recv")
            assert sorted(log[:first_recv]) == [("send", node) for node in sorted(client._pool.conns)]
            assert all(op == "recv" for op, _ in log[first_recv:])
        finally:
            client.close()

    def test_error_reply_leaves_no_owner_with_unread_frames(self, cluster):
        """The missing key leads the batch, so its owner is judged first —
        by which time the other owners' replies must be off their sockets:
        a stale frame would answer the next ``read`` with the wrong bytes."""
        client = cluster.client()
        try:
            client.read_many(list(cluster.paths))
            conns = dict(client._pool.conns)
            assert len(conns) == 3
            with pytest.raises(ReadError, match="no such file"):
                client.read_many(["/dataset/train/nope.bin", *cluster.paths])
            for p in reversed(cluster.paths):
                assert client.read(p) == cluster.pfs.read(p)
            assert client._pool.conns == conns  # drained, not retired
            assert client.stats["reconnects"] == 0
        finally:
            client.close()

    def test_hung_owner_falls_back_alone(self):
        """One of three owners hangs: its keys — and only its — take the
        sequential path (one TTL for the batch, one per detector strike);
        the healthy owners' replies are consumed and their sockets reused."""
        ttl, threshold = 0.25, 2
        with LocalCluster(n_servers=3, policy="nvme", ttl=ttl, timeout_threshold=threshold) as c:
            paths = c.populate(n_files=30, file_bytes=2048, seed=11)
            expected = [c.pfs.read(p) for p in paths]
            client = c.client()
            assert client.read_many(paths) == expected
            victim = c.owner_of(paths[0], client.policy)
            healthy = {n: conn for n, conn in client._pool.conns.items() if n != victim}
            theirs = sum(c.owner_of(p, client.policy) != victim for p in paths)
            assert len(healthy) == 2 and 0 < theirs < 30
            before = client.stats
            c.kill_server(victim, mode="hang")
            t0 = time.perf_counter()
            assert client.read_many(paths) == expected
            elapsed = time.perf_counter() - t0
            after = client.stats
            assert after["pipelined_reads"] - before["pipelined_reads"] == theirs
            assert (after["declared"], after["timeouts"]) == (1, threshold)
            assert (1 + threshold) * ttl <= elapsed < (2 + threshold) * ttl + 1.0
            assert client.read_many(paths) == expected  # all pipelined to the survivors
            assert client.stats["pipelined_reads"] - after["pipelined_reads"] == 30
            assert {n: client._pool.conns[n] for n in healthy} == healthy
            assert client.stats["reconnects"] == 0

    def test_first_owner_hangs(self):
        """Pins today's drain order (owner by owner, the batch's first owner
        first) for the case where it costs most: that owner hangs.  The
        others' pipelined replies wait out its TTL on their sockets and are
        still used — each of their keys reaches its server once — and only
        the hung owner's keys take the sequential path."""
        ttl, threshold = 0.25, 2
        with LocalCluster(n_servers=3, policy="nvme", ttl=ttl, timeout_threshold=threshold) as c:
            paths = c.populate(n_files=30, file_bytes=2048, seed=13)
            expected = [c.pfs.read(p) for p in paths]
            client = c.client()
            assert client.read_many(paths) == expected
            victim = c.owner_of(paths[0], client.policy)  # routed first, so drained first
            survivors = [n for n in c.servers if n != victim]
            theirs = sum(c.owner_of(p, client.policy) != victim for p in paths)
            before = client.stats
            reqs = {n: client.server_stat(n)["binary_reqs"] for n in survivors}
            c.kill_server(victim, mode="hang")
            t0 = time.perf_counter()
            assert client.read_many(paths) == expected
            elapsed = time.perf_counter() - t0
            after = client.stats
            served = sum(after[k] - before[k] for k in ("server_cache_reads", "server_pfs_reads"))
            assert served == 30 and after["pipelined_reads"] - before["pipelined_reads"] == theirs
            # every survivor read is one pipelined READ or one re-homed sequential READ (+ this STAT)
            assert sum(client.server_stat(n)["binary_reqs"] - reqs[n] - 1 for n in survivors) == 30
            assert (after["declared"], after["timeouts"]) == (1, threshold)
            assert elapsed < (2 + threshold) * ttl + 1.0  # one TTL for the batch, one per strike

    def test_dropped_owner_mid_epoch(self):
        with LocalCluster(n_servers=3, policy="nvme", ttl=0.25, timeout_threshold=2) as c:
            paths = c.populate(n_files=48, file_bytes=1024, seed=12)
            client = c.client()
            victim = c.owner_of(paths[0], client.policy)
            for epoch in range(3):
                for lo in range(0, len(paths), 8):
                    if (epoch, lo) == (1, 16):
                        c.kill_server(victim, mode="drop")
                    batch = paths[lo : lo + 8]
                    assert client.read_many(batch) == [c.pfs.read(p) for p in batch]
            assert client.stats["declared"] == 1
            assert victim in client.policy.failed_nodes

    def test_timeout_mid_frame_retires_the_connection(self, tmp_path):
        """Half a reply, then silence: the half-read connection is dropped,
        never reused — the retry gets a fresh socket and a whole frame."""
        body = b"x" * 100
        reply = encode_binary_response_header(OP_READ, Message.ok_response(payload=body)) + body
        accepted = []

        def serve() -> None:
            for part in (reply[:60], reply):
                conn, _ = listener.accept()
                accepted.append(conn)
                recv_message(conn)
                conn.sendall(part)

        with socket.create_server(("127.0.0.1", 0)) as listener:
            server = threading.Thread(target=serve, name="half-frame-server", daemon=True)
            server.start()
            with LocalCluster(n_servers=1, workdir=tmp_path, ttl=0.2) as c:
                client = c.client()
                client.register_address(9, listener.getsockname())
                try:
                    assert client.read_from(9, "/a.bin") is None  # timed out mid-frame
                    assert 9 not in client._pool.conns
                    assert client.read_from(9, "/a.bin") == (body, "cache")
                finally:
                    client.close()
            server.join(timeout=5)
            assert not server.is_alive()
        for conn in accepted:
            conn.close()


class _TapSock:
    """A pooled socket that logs which node was sent to / received from."""

    def __init__(self, sock, node, log):
        self.sock, self.node, self.log = sock, node, log

    def sendall(self, data):
        self.log.append(("send", self.node))
        return self.sock.sendall(data)

    def recv_into(self, view):
        self.log.append(("recv", self.node))
        return self.sock.recv_into(view)

    def close(self):
        self.sock.close()


class _Segments:
    """Stands in for a socket under a :class:`FrameReader`: each ``recv_into``
    hands over what is left of the next segment (at most what fits), then EOF.
    ``fed`` bytes have been handed over, ``before_last`` of them before the
    most recent call."""

    def __init__(self, *segments: bytes):
        self.segments = [s for s in segments if s]
        self.calls = self.fed = self.before_last = 0

    def recv_into(self, view) -> int:
        self.calls += 1
        self.before_last = self.fed
        if not self.segments:
            return 0
        n = min(len(view), len(self.segments[0]))
        view[:n] = self.segments[0][:n]
        self.segments[0] = self.segments[0][n:]
        if not self.segments[0]:
            del self.segments[0]
        self.fed += n
        return n


def _reply(seq: int, payload: bytes) -> bytes:
    msg = Message.ok_response(payload=payload, source="pfs")
    return encode_binary_response_header(OP_READ, msg, seq=seq) + payload


class TestFrameReader:
    def test_one_recv_yields_every_frame_that_arrived(self):
        sock = _Segments(b"".join(_reply(i, bytes([i]) * 100) for i in range(32)))
        reader = FrameReader(sock)
        got = [reader.recv() for _ in range(32)]
        assert [(m.seq, m.payload) for m in got] == [(i, bytes([i]) * 100) for i in range(32)]
        assert sock.calls == 1

    def test_frame_larger_than_the_window(self):
        big = bytes(range(256)) * (3 * _WINDOW // 256)
        stream = _reply(1, b"before") + _reply(2, big) + _reply(3, b"after")
        sock = _Segments(stream[:50_000], stream[50_000:])
        reader = FrameReader(sock)
        assert [reader.recv().payload for _ in range(3)] == [b"before", big, b"after"]
        # the part not in the first recv went straight into the frame, in one call
        assert sock.calls == 3

    def test_frame_straddling_the_window_end_is_compacted(self):
        payloads = [bytes([65 + i]) * 16384 for i in range(5)]
        sock = _Segments(b"".join(_reply(i, p) for i, p in enumerate(payloads)))
        reader = FrameReader(sock)
        assert [reader.recv().payload for _ in range(5)] == payloads
        with pytest.raises(ConnectionError):
            reader.recv()  # clean EOF between frames

    def test_hostile_header_rejected_on_arrival(self):
        head = bytearray(_reply(0, b"")[:22])
        head[18:22] = (_MAX_PAYLOAD + 1).to_bytes(4, "big")
        reader = FrameReader(_Segments(_reply(7, b"fine"), bytes(head)))
        assert reader.recv().payload == b"fine"
        with pytest.raises(ProtocolError, match="payload length"):  # not EOF: nothing more was asked for
            reader.recv()
        with pytest.raises(ProtocolError, match="bad magic"):
            FrameReader(_Segments(b"G")).recv()

    def test_eof_mid_frame(self):
        reader = FrameReader(_Segments(_reply(1, b"y" * 64)[:40]))
        with pytest.raises(ConnectionError, match="mid-frame"):
            reader.recv()


class TestBinaryWireEndToEnd:
    def test_kill_restart_over_binary_wire(self):
        with LocalCluster(n_servers=3, policy="nvme", ttl=0.3, timeout_threshold=2) as c:
            c.populate(n_files=12, file_bytes=1024, seed=6)
            client = c.client()
            for p in c.paths:
                client.read(p)
            victim = c.owner_of(c.paths[0], client.policy)
            c.kill_server(victim, mode="drop")
            assert client.read(c.paths[0]) == c.pfs.read(c.paths[0])
            c.restart_server(victim)
            for p in c.paths:
                assert client.read(p) == c.pfs.read(p)
            stats = c.total_stats()
            assert stats["binary_reqs"] > 0

    def test_sendfile_payload_integrity_large_entry(self):
        with LocalCluster(n_servers=1, policy="nvme", ttl=2.0) as c:
            c.populate(n_files=2, file_bytes=1 << 20, seed=9)  # 1 MiB entries
            client = c.client()
            first = client.read(c.paths[0])  # miss: executor path
            _wait(lambda: _recached(client, [0]) == 1)  # the recache is in
            second = client.read(c.paths[0])  # hit: sendfile path
            assert first == second == c.pfs.read(c.paths[0])
            assert c.total_stats()["sendfile_serves"] >= 1
