"""Property-based fuzzing of the wire protocol."""

import socket
import threading

from hypothesis import given, settings
from hypothesis import strategies as st

import pytest

from repro.runtime import Message, PFSDir, recv_message, send_message
from repro.runtime.protocol import (
    BIN_OPS,
    encode_binary_request,
    encode_json_frame,
    parse_frame,
    send_binary_request,
)

_header_values = st.recursive(
    st.none() | st.booleans() | st.integers(min_value=-(2**31), max_value=2**31)
    | st.floats(allow_nan=False, allow_infinity=False) | st.text(max_size=40),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=10), children, max_size=4),
    max_leaves=10,
)

_headers = st.dictionaries(
    st.text(min_size=1, max_size=20).filter(lambda k: k != "payload_len"),
    _header_values,
    max_size=6,
)


class TestProtocolRoundTrip:
    @settings(max_examples=40, deadline=None)
    @given(header=_headers, payload=st.binary(max_size=4096))
    def test_any_header_payload_round_trips(self, header, payload):
        a, b = socket.socketpair()
        try:
            out = {}

            def reader():
                out["msg"] = recv_message(b)

            t = threading.Thread(target=reader, name="fuzz-frame-reader", daemon=True)
            t.start()
            send_message(a, Message(header=dict(header), payload=payload))
            t.join(timeout=5)
            assert not t.is_alive()
            msg = out["msg"]
            assert msg.payload == payload
            for k, v in header.items():
                assert msg.header[k] == v
            assert msg.header["payload_len"] == len(payload)
        finally:
            a.close()
            b.close()

    @settings(max_examples=20, deadline=None)
    @given(payloads=st.lists(st.binary(max_size=512), min_size=1, max_size=8))
    def test_back_to_back_frames_preserve_order(self, payloads):
        a, b = socket.socketpair()
        try:
            received = []

            def reader():
                for _ in payloads:
                    received.append(recv_message(b).payload)

            t = threading.Thread(target=reader, name="fuzz-order-reader", daemon=True)
            t.start()
            for i, p in enumerate(payloads):
                send_message(a, Message(header={"i": i}, payload=p))
            t.join(timeout=5)
            assert received == payloads
        finally:
            a.close()
            b.close()

    @settings(max_examples=40, deadline=None)
    @given(
        op=st.sampled_from(sorted(BIN_OPS)),
        path=st.text(max_size=200).filter(lambda s: len(s.encode("utf-8")) <= 0xFFFF),
        payload=st.binary(max_size=4096),
        seq=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_binary_request_round_trips(self, op, path, payload, seq):
        a, b = socket.socketpair()
        try:
            out = {}

            def reader():
                out["msg"] = recv_message(b)

            t = threading.Thread(target=reader, name="fuzz-bin-reader", daemon=True)
            t.start()
            msg = Message.request(op, path=path)
            msg.payload = payload
            send_binary_request(a, msg, seq=seq)
            t.join(timeout=5)
            assert not t.is_alive()
            got = out["msg"]
            assert got.op == op
            assert got.header["path"] == path
            assert got.payload == payload
            assert got.seq == seq
        finally:
            a.close()
            b.close()


_frames = st.lists(
    st.one_of(
        st.tuples(
            st.sampled_from(sorted(BIN_OPS)),
            st.text(max_size=60),
            st.binary(max_size=300),
            st.integers(min_value=0, max_value=2**32 - 1),
        ),
        st.tuples(st.none(), _headers, st.binary(max_size=300), st.just(0)),
    ),
    min_size=1,
    max_size=6,
)


class TestIncrementalDecode:
    """``parse_frame`` — the server's decoder — fed a mixed-codec stream in
    arbitrary segments yields exactly the messages that were framed."""

    @settings(max_examples=60, deadline=None)
    @given(frames=_frames, data=st.data())
    def test_any_segmentation_decodes_the_same_messages(self, frames, data):
        stream = bytearray()
        sent = []
        for op, head, payload, seq in frames:
            if op is not None:
                msg = Message.request(op, path=head)
                msg.payload = payload
                stream += encode_binary_request(msg, seq=seq) + payload
                sent.append((True, {"op": op, "path": head}, payload, seq))
            else:
                msg = Message(header=dict(head), payload=payload)
                stream += encode_json_frame(msg) + payload
                sent.append((False, {**head, "payload_len": len(payload)}, payload, 0))
        cuts = sorted(data.draw(st.sets(st.integers(0, len(stream)), max_size=8)) | {len(stream)})
        buf, got, fed = bytearray(), [], 0
        for cut in cuts:  # what data_received does, minus the socket
            buf += stream[fed:cut]
            fed = cut
            pos = 0
            while True:
                msg, binary, end = parse_frame(buf, pos)
                if msg is None:
                    assert end > len(buf)
                    break
                got.append((binary, msg.header, msg.payload, msg.seq))
                pos = end
            del buf[:pos]
        assert not buf and got == sent


class TestPFSRootEscape:
    """No key reaches outside the PFS root (ROADMAP 1c): ``..`` climbs and
    sibling directories sharing the root's name as a prefix included."""

    @pytest.fixture(scope="class")
    def pfs(self, tmp_path_factory):
        base = tmp_path_factory.mktemp("x")
        (base / "pfs-evil").mkdir()
        (base / "pfs-evil" / "s.txt").write_bytes(b"secret")
        (base / "outside.txt").write_bytes(b"secret")
        pfs = PFSDir(base / "pfs")
        pfs.write("/dataset/a.bin", b"inside")
        return pfs

    @pytest.mark.parametrize(
        "key",
        [
            "../pfs-evil/s.txt",  # sibling whose name starts with the root's
            "/../pfs-evil/s.txt",
            "/dataset/../../pfs-evil/s.txt",
            "../outside.txt",
            "/dataset/../../outside.txt",
            "..",
            "/../../../../etc/passwd",
        ],
    )
    def test_escapes_are_refused(self, pfs, key):
        for op in (pfs.read, pfs.exists, pfs.resolve, lambda k: pfs.write(k, b"x")):
            with pytest.raises(PermissionError, match="path escape"):
                op(key)

    def test_dotdot_inside_the_root_is_fine(self, pfs):
        assert pfs.read("/dataset/sub/../a.bin") == b"inside"
        assert pfs.read("dataset/./a.bin") == b"inside"

    @settings(max_examples=120, deadline=None)
    @given(
        parts=st.lists(
            st.sampled_from(["..", ".", "dataset", "pfs-evil", "pfs", "a.bin", "s.txt", ""]),
            min_size=1,
            max_size=8,
        ),
        lead=st.sampled_from(["", "/", "//"]),
    )
    def test_whatever_resolves_stays_inside(self, pfs, parts, lead):
        key = lead + "/".join(parts)
        try:
            path = pfs.resolve(key)
        except PermissionError:
            return
        assert path == pfs.root.resolve() or pfs.root.resolve() in path.parents
