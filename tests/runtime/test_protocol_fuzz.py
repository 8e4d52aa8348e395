"""Property-based fuzzing of the wire protocol."""

import json
import os
import random
import socket
import threading

from hypothesis import example, given, settings
from hypothesis import strategies as st

import pytest

from repro.runtime import Message, PFSDir, recv_message, storage
from repro.runtime.protocol import (
    _MAX_EXT,
    _MAX_HEADER,
    _MAX_PAYLOAD,
    _WINDOW,
    BIN_MAGIC,
    BIN_OPS,
    BIN_VERSION,
    FrameReader,
    OP_OBS,
    OP_PUT,
    OP_READ,
    ProtocolError,
    RecvWindow,
    encode_binary_request,
    encode_binary_response_header,
    parse_frame,
)

from tests.runtime.test_protocol_binary import _Segments

_header_values = st.recursive(
    st.none() | st.booleans() | st.integers(min_value=-(2**31), max_value=2**31)
    | st.floats(allow_nan=False, allow_infinity=False) | st.text(max_size=40),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=10), children, max_size=4),
    max_leaves=10,
)

#: every name the fixed header packs for some op and kind: a field of one
#: of these names may not round-trip as a JSON field
_PACKED = {"op", "path", "status", "source", "reason", "code", "accepted", "queue_len",
           "stored", "trace_id", "span_id"}
_fields = st.dictionaries(
    st.text(min_size=1, max_size=20).filter(lambda k: k not in _PACKED),
    _header_values,
    max_size=6,
)
_paths = st.text(max_size=200).filter(lambda s: len(s.encode("utf-8")) <= 0xFFFF)
_seqs = st.integers(min_value=0, max_value=2**32 - 1)


def _ok_packed(op):
    """What the fixed header packs of an OK reply of ``op``: its row's flag and aux fields."""
    packed = {}
    if op.flag is not None:
        packed[op.flag[0]] = st.sampled_from(op.flag[2:])
    if op.aux is not None:
        packed[op.aux] = st.integers(0, 2**32 - 1)
    return st.fixed_dictionaries(packed)


@st.composite
def _messages(draw):
    """``(frame bytes, expected decoded header, payload, seq)`` of one message
    of any op in the table, in either direction, with the fields its row
    declares (any, on a STAT reply): a message carries header fields or
    payload bytes of its own, never both."""
    op = BIN_OPS[draw(st.sampled_from(sorted(BIN_OPS)))]
    seq = draw(_seqs)
    kind = draw(st.sampled_from(["request", "ok", "error"]))
    if kind == "request":
        fields = {f: draw(_header_values) for f in sorted(op.request)}
        msg = Message.request(op.name, path=draw(_paths), **fields)
    elif kind == "ok":
        fields = draw(_fields) if op.reply is None else {f: draw(_header_values) for f in sorted(op.reply)}
        msg = Message.ok_response(**fields)
        msg.header.update(draw(_ok_packed(op)))
    else:
        fields = {}
        msg = Message.error_response(draw(st.text(max_size=60)))
        code = draw(st.sampled_from([None, "ENOENT", "ENOSPC"]))
        if code:
            msg.header["code"] = code
    msg.payload = b"" if fields else draw(st.binary(max_size=4096))
    if kind == "request":
        return encode_binary_request(msg, seq=seq) + msg.payload, msg.header, msg.payload, seq
    return encode_binary_response_header(op.name, msg, seq=seq) + msg.payload, msg.header, msg.payload, seq


@st.composite
def _big_messages(draw):
    """Like :func:`_messages`, for a PUT request or a READ reply whose
    payload outgrows the receive window — beyond four windows, the
    payload's own buffer grows as it arrives."""
    seq = draw(_seqs)
    payload = random.Random(draw(_seqs)).randbytes(draw(st.integers(_WINDOW - 64, 5 * _WINDOW)))
    if draw(st.booleans()):
        msg = Message.request(OP_PUT, path=draw(_paths))
        msg.payload = payload
        return encode_binary_request(msg, seq=seq) + payload, msg.header, payload, seq
    msg = Message.ok_response(payload=payload, source=draw(st.sampled_from(["cache", "pfs"])))
    return encode_binary_response_header(OP_READ, msg, seq=seq) + payload, msg.header, payload, seq


def _recv_all(frames: list[bytes]) -> list[Message]:
    """``recv_message`` each of ``frames`` off one socketpair, sender on a thread."""
    a, b = socket.socketpair()
    try:
        sender = threading.Thread(
            target=lambda: [a.sendall(f) for f in frames], name="fuzz-frame-sender", daemon=True
        )
        sender.start()
        b.settimeout(5)
        got = [recv_message(b) for _ in frames]
        sender.join(timeout=5)
        assert not sender.is_alive()
        return got
    finally:
        a.close()
        b.close()


class TestProtocolRoundTrip:
    @settings(max_examples=60, deadline=None)
    @given(message=_messages())
    def test_any_header_payload_round_trips(self, message):
        frame, header, payload, seq = message
        (got,) = _recv_all([frame])
        assert (got.header, got.payload, got.seq) == (header, payload, seq)

    @settings(max_examples=20, deadline=None)
    @given(messages=st.lists(_messages(), min_size=1, max_size=8))
    def test_back_to_back_frames_preserve_order(self, messages):
        got = _recv_all([m[0] for m in messages])
        assert [(g.header, g.payload, g.seq) for g in got] == [m[1:] for m in messages]

    @settings(max_examples=40, deadline=None)
    @given(op=st.sampled_from(sorted(n for n, op in BIN_OPS.items() if not op.request)),  # payload ops
           path=_paths, payload=st.binary(max_size=4096), seq=_seqs)
    def test_binary_request_round_trips(self, op, path, payload, seq):
        msg = Message.request(op, path=path)
        msg.payload = payload
        (got,) = _recv_all([encode_binary_request(msg, seq=seq) + payload])
        assert got.op == op
        assert got.header["path"] == path
        assert got.payload == payload
        assert got.seq == seq

    @settings(max_examples=60, deadline=None)
    @given(reason=st.text() | st.tuples(st.integers(0xFFFF - 12, 0xFFFF), st.text(min_size=1, max_size=8))
           .map(lambda t: "x" * t[0] + t[1]))
    @example(reason="no such file: " + "é" * 40000)
    def test_every_error_reason_frame_decodes(self, reason):
        """A reason longer than the key field is cut on a character
        boundary: the frame decodes, to the longest prefix that fits."""
        frame = encode_binary_response_header(OP_READ, Message.error_response(reason, code="ENOENT"))
        got, end = parse_frame(frame)
        cut = got.header["reason"]
        assert end == len(frame) and got.header["code"] == "ENOENT" and reason.startswith(cut)
        assert cut == reason or 0xFFFF - 4 < len(cut.encode("utf-8")) <= 0xFFFF


def _not_an_object(raw: bytes) -> bool:
    try:
        return not isinstance(json.loads(raw.decode("utf-8")), dict)
    except ValueError:
        return True


def _fields_head(payload_len: int) -> bytes:
    head = bytearray(encode_binary_request(Message.request(OP_OBS, spans_limit=1, events_limit=1))[:22])
    head[18:22] = payload_len.to_bytes(4, "big")
    return bytes(head)


#: ``(frame, verdict_at)``: a frame whose fields payload is hostile, and how
#: many of its bytes must be in before the decoder can know — all of them
#: (not JSON, not UTF-8, not an object), or the fixed header alone (a
#: length over ``_MAX_HEADER``)
_hostile_frames = st.one_of(
    st.one_of(st.binary(max_size=64), _header_values.map(lambda v: json.dumps(v).encode()))
    .filter(_not_an_object)
    .map(lambda raw: (_fields_head(len(raw)) + raw, 22 + len(raw))),
    st.integers(_MAX_HEADER + 1, 2**32 - 1).map(lambda n: (_fields_head(n), 22)),
)


_segmented_streams = dict(
    messages=st.lists(_messages() | _big_messages(), min_size=1, max_size=6),
    hostile=st.none() | _hostile_frames,
    data=st.data(),
)


def _segment(messages, hostile, data):
    """``(stream, verdict_at, cuts)``: the framed messages, the optional
    hostile frame behind them, and where the stream is cut into segments."""
    stream = b"".join(m[0] for m in messages)
    verdict_at = None
    if hostile is not None:
        verdict_at = len(stream) + hostile[1]
        stream += hostile[0]
    cuts = sorted(data.draw(st.sets(st.integers(0, len(stream)), max_size=8)) | {len(stream)})
    return stream, verdict_at, cuts


class TestIncrementalDecode:
    """The receive window — under the server's ``_Conn`` and under the
    client's ``FrameReader`` alike — fed a stream of any ops, both
    directions, payloads beyond the window included, in arbitrary segments
    yields exactly the messages that were framed, and fails a hostile frame
    behind them as soon as its bytes are in."""

    @settings(max_examples=80, deadline=None)
    @given(**_segmented_streams)
    def test_frame_reader_any_segmentation(self, messages, hostile, data):
        stream, verdict_at, cuts = _segment(messages, hostile, data)
        sock = _Segments(*(stream[lo:hi] for lo, hi in zip([0, *cuts], cuts)))
        reader = FrameReader(sock)
        got = [reader.recv() for _ in messages]
        assert [(m.header, m.payload, m.seq) for m in got] == [m[1:] for m in messages]
        with pytest.raises(ConnectionError if hostile is None else ProtocolError):
            reader.recv()
        if hostile is not None:  # no segment was asked for once the verdict was in
            assert sock.before_last < verdict_at <= sock.fed

    @settings(max_examples=80, deadline=None)
    @given(**_segmented_streams)
    def test_any_segmentation_decodes_the_same_messages(self, messages, hostile, data):
        stream, verdict_at, cuts = _segment(messages, hostile, data)
        window, got, fed = RecvWindow(), [], 0
        try:
            for cut in cuts:  # each segment as ``_Conn`` receives it: as much as each buffer takes
                while fed < cut:
                    buf = window.get_buffer()
                    n = min(len(buf), cut - fed)
                    assert n
                    buf[:n] = stream[fed : fed + n]
                    del buf  # released before the next get_buffer, as asyncio does
                    fed += n
                    if window.buffer_updated(n):  # then decode what is whole, as ``_parse`` does
                        while (msg := window.next()) is not None:
                            got.append((msg.header, msg.payload, msg.seq))
                    assert verdict_at is None or fed < verdict_at
        except ProtocolError:
            assert verdict_at is not None and fed >= verdict_at
        else:
            assert verdict_at is None and window.lo == window.hi
        assert got == [m[1:] for m in messages]


#: a READ request (maybe traced) or a READ reply (cache or PFS): the frame
#: shapes the decoder's READ branch takes, as ``(header, body)``
_read_frames = st.one_of(
    st.tuples(_paths, st.booleans(), _seqs).map(lambda t: encode_binary_request(
        Message.request(OP_READ, path=t[0], **({"trace_id": "0" * 16, "span_id": "1" * 8} if t[1] else {})),
        t[2])),
    st.tuples(st.sampled_from(["cache", "pfs"]), st.binary(max_size=64), _seqs).map(
        lambda t: encode_binary_response_header(OP_READ, Message.ok_response(payload=t[1], source=t[0]),
                                                seq=t[2]) + t[1]),
).map(lambda frame: (frame[:22], frame[22:]))

#: ``(byte range, hostile value, verdict)`` of each fixed-header field the
#: READ branch relies on having been judged
_hostile_fields = st.one_of(
    st.integers(0, 255).filter(lambda b: b != BIN_MAGIC[0]).map(lambda b: (slice(0, 1), bytes([b]), "magic")),
    st.integers(0, 255).filter(lambda b: b != BIN_VERSION).map(lambda b: (slice(2, 3), bytes([b]), "version")),
    st.integers(3, 255).map(lambda b: (slice(3, 4), bytes([b]), "frame kind")),
    st.integers(_MAX_EXT + 1, 0xFFFF).map(lambda n: (slice(8, 10), n.to_bytes(2, "big"), "ext length")),
    st.integers(_MAX_PAYLOAD + 1, 2**32 - 1).map(lambda n: (slice(18, 22), n.to_bytes(4, "big"), "payload length")),
)


class TestReadBranchRefusals:
    """A frame shaped for the READ branch is judged on its fixed header like
    any other: a hostile field is refused the moment the header is in —
    never with a body byte asked for — and so is a reply sent to a server."""

    @settings(max_examples=120, deadline=None)
    @given(frame=_read_frames, hostile=_hostile_fields)
    def test_hostile_header_refused_on_arrival(self, frame, hostile):
        (head, body), (field, value, verdict) = frame, hostile
        head = bytearray(head)
        head[field] = value
        verdict_at = 1 if verdict == "magic" else 22
        assert parse_frame(head[: verdict_at - 1])[0] is None
        for buf in (head[:verdict_at], head + body):
            with pytest.raises(ProtocolError, match=verdict):
                parse_frame(buf)
        sock = _Segments(bytes(head), body)
        with pytest.raises(ProtocolError, match=verdict):
            FrameReader(sock).recv()
        assert sock.fed == len(head)  # the body was never asked for

    @settings(max_examples=40, deadline=None)
    @given(frame=_read_frames)
    def test_a_reply_sent_to_the_server_is_refused(self, frame):
        head, body = frame
        if head[3] == 0:  # a request: the server decodes it
            assert parse_frame(head + body, requests_only=True)[0].op == OP_READ
            return
        with pytest.raises(ProtocolError, match="not a request"):
            parse_frame(head, requests_only=True)


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
        (pfs.root / "linkdir").symlink_to(base / "pfs-evil", target_is_directory=True)
        (pfs.root / "dataset" / "link.bin").symlink_to(base / "outside.txt")
        (pfs.root / "dataset" / "inlink.bin").symlink_to(pfs.root / "dataset" / "a.bin")
        return pfs

    @pytest.mark.parametrize(
        "key",
        ["/linkdir/s.txt", "linkdir/new.bin", "/dataset/link.bin", "/dataset/sub/../link.bin"],
        ids=["dir_link", "dir_link_new_file", "final_link", "final_link_dotdot"],
    )
    def test_symlinks_out_of_the_root_are_refused(self, pfs, key):
        """A directory symlink inside the root pointing out of it, and a
        final-component symlink pointing out: refused by every entry point,
        and again on the second call, when a verified key would be memoised."""
        for op in (pfs.read, pfs.exists, pfs.resolve, lambda k: pfs.write(k, b"x")):
            for _ in range(2):
                with pytest.raises(PermissionError, match="path escape"):
                    op(key)
        assert (pfs.root.parent / "outside.txt").read_bytes() == b"secret"
        assert not (pfs.root.parent / "pfs-evil" / "new.bin").exists()

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

    def test_leaf_symlink_inside_the_root_is_followed(self, pfs):
        key = "/dataset/inlink.bin"
        assert pfs.read(key) == b"inside"
        assert pfs.exists(key)
        assert pfs.resolve(key) == pfs.resolve("/dataset/a.bin")

    def test_directory_memo_is_bounded(self, tmp_path, monkeypatch):
        monkeypatch.setattr(storage, "_DIR_MEMO", 8)
        pfs = PFSDir(tmp_path / "pfs")
        for i in range(3 * 8):
            (pfs.root / f"d{i}").mkdir()
            (pfs.root / f"d{i}" / "k.bin").write_bytes(b"k")
            assert pfs.read(f"/d{i}/k.bin") == b"k"
            assert len(pfs._dirs) <= 8
        assert len(pfs._dirs) == 8

    def test_a_verified_directory_costs_no_path_walk(self, tmp_path, monkeypatch):
        """Once one read has verified a directory, a fresh key in it is one
        ``open``: neither ``lstat`` nor ``realpath`` runs."""
        train = tmp_path / "pfs" / "dataset" / "train"
        train.mkdir(parents=True)
        (train / "a.bin").write_bytes(b"a")
        (train / "b.bin").write_bytes(b"b")
        pfs = PFSDir(tmp_path / "pfs")
        assert pfs.read("/dataset/train/a.bin") == b"a"

        def walk(*args, **kwargs):
            raise AssertionError("path walk in a verified directory")

        monkeypatch.setattr(os, "lstat", walk)
        monkeypatch.setattr(os.path, "realpath", walk)
        assert pfs.read("/dataset/train/b.bin") == b"b"

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
            with pytest.raises(PermissionError):
                pfs.resolve(key)  # refused again: only verified keys are memoised
            return
        assert pfs.resolve(key) == path  # the memoised answer is the same
        assert path == pfs.root.resolve() or pfs.root.resolve() in path.parents
