"""Wire protocol for the FT-Cache runtime: one fixed-header frame for every op.

A frame is a fixed 22-byte header — magic + version + kind + op + flags +
key-len + ext-len + seq + aux + payload-len — followed by the key (a
path, or the reason of an error), an extension blob (the trace context
rides here), and the payload.  Data and control ops share it: the fixed
header packs what the hot path reads (``op``/``path``, ``status``,
``source``, ``reason``/``code``, the PUT/TRANSFER counters, the trace
ids), so no JSON is parsed or produced anywhere on a READ, PUT or
TRANSFER.  Any other header field — STAT's counters, PING's ``node_id``,
JOIN_PLAN's plan — rides as one JSON object in the payload under
``_FLAG_FIELDS``, which is legal only on a message with no payload bytes
of its own.  That encoding lives in this module alone: callers build
``Message.request(OP_JOIN_PLAN, planned_keys=…)`` and read
``resp.header["node_id"]`` whichever way the field travelled.

``seq`` is a transport-level correlation id (:attr:`Message.seq`) echoed
by the server, which is what makes pipelining with out-of-order
completion safe — it never appears in the header vocabulary.

Every variable-length field is bounded (``_MAX_HEADER`` for a fields
payload, ``_MAX_EXT``, ``_MAX_PAYLOAD``) when the fixed header that
carries it is decoded, before anything is allocated or waited for, so a
corrupt or hostile length raises :class:`ProtocolError` instead of
driving the receiver into a multi-gigabyte read.  Sends are vectored
(``sendmsg``): the payload travels as its own iovec straight from the
caller's buffer — header and payload are never concatenated into a
doubled-up intermediate bytes object.

Requests may additionally carry ``trace_id``/``span_id`` correlation
fields (injected by :func:`repro.obs.context.inject` on traced
operations); they are packed into the header's extension field.

**One decoder, two blocking drivers.**  Only :func:`parse_frame` reads a
fixed header — on the server's buffer and under both receivers here.
:class:`FrameReader`, buffered (one ``recv_into`` yields every frame that
arrived), serves sockets that live across requests: the client's pooled
connections.  :func:`recv_message`, unbuffered (it never reads past its
frame), serves the rest: the replica push, tests, the bench ladder.  The
codec pays for what a frame carries — a key or ext is sliced only when
there is one, JSON only under ``_FLAG_FIELDS`` — so a READ request or
OK reply decodes to one dict and one :class:`Message`, and a READ's OK
reply header (every cache hit's) is one ``struct`` pack.
"""

from __future__ import annotations

import json
import socket
import struct
from dataclasses import dataclass, field
from typing import Any, Optional

from ..obs.context import SPAN_ID_FIELD, TRACE_ID_FIELD

__all__ = [
    "Message",
    "recv_message",
    "FrameReader",
    "send_binary_request",
    "encode_binary_request",
    "encode_binary_response_header",
    "parse_frame",
    "set_nodelay",
    "ProtocolError",
    "BIN_OPS",
    "BIN_MAGIC",
    "BIN_VERSION",
    "OP_READ",
    "OP_PING",
    "OP_STAT",
    "OP_PUT",
    "OP_JOIN_PLAN",
    "OP_TRANSFER",
    "OP_OBS",
]

OP_READ = "READ"
OP_PING = "PING"
OP_STAT = "STAT"
#: replica push: install payload bytes under a path (replication extension)
OP_PUT = "PUT"
#: announce an impending join's move plan to the joining node (rebalance)
OP_JOIN_PLAN = "JOIN_PLAN"
#: backfill one moved key into a joining node's cache (rebalance)
OP_TRANSFER = "TRANSFER"
#: observability export: unified telemetry snapshot + recent spans/events
#: as a JSON payload (bulk data is payload bytes, not header fields)
OP_OBS = "OBS"

STATUS_OK = "OK"
STATUS_ERROR = "ERROR"

#: sanity bound on a JSON fields payload — anything bigger is a corrupt stream
_MAX_HEADER = 1 << 20
#: hard bound on any payload — a corrupt/hostile ``payload_len`` must fail
#: the frame, not allocate gigabytes (256 MiB ≫ any cache entry)
_MAX_PAYLOAD = 1 << 28
#: bound on the extension blob (trace context today: 24 bytes)
_MAX_EXT = 1 << 12
#: :class:`FrameReader`'s window: four 16 KiB frames per ``recv``; at most 6 % of a 1 MiB one is copied
_WINDOW = 1 << 16

BIN_MAGIC = b"\xf7\xc5"
BIN_VERSION = 1

#: magic(2) version(1) kind(1) op(1) flags(1) key_len(2) ext_len(2)
#: seq(4) aux(4) payload_len(4) — 22 bytes, all big-endian
_BIN_HDR = struct.Struct(">2sBBBBHHIII")

_KIND_REQUEST = 0
_KIND_OK = 1
_KIND_ERROR = 2

#: the op table: every op and its 8-bit wire code.  The RPC conformance
#: checker (``repro.analysis.rpccheck``) parses this table and cross-checks
#: it against senders and handler branches, so it cannot drift silently.
BIN_OPS = {
    OP_READ: 1,
    OP_PUT: 2,
    OP_TRANSFER: 3,
    OP_PING: 4,
    OP_STAT: 5,
    OP_OBS: 6,
    OP_JOIN_PLAN: 7,
}
_BIN_OP_NAMES = {v: k for k, v in BIN_OPS.items()}

#: flag bits
_FLAG_SOURCE_PFS = 0x01  # READ ok: bytes came from the PFS, not the cache
_FLAG_ACCEPTED = 0x02  # TRANSFER ok: the mover accepted the entry
_FLAG_FIELDS = 0x04  # the payload is the JSON object of the unpacked header fields

#: header fields the fixed header packs; every other field is a fields payload
_REQUEST_PACKED = frozenset({"op", "path", TRACE_ID_FIELD, SPAN_ID_FIELD})
_ERROR_PACKED = frozenset({"status", "reason", "code"})
_OK_PACKED = {
    OP_READ: frozenset({"status", "source"}),
    OP_TRANSFER: frozenset({"status", "accepted", "queue_len"}),
    OP_PUT: frozenset({"status", "stored"}),
}
_OK_PACKED_DEFAULT = frozenset({"status"})
_READ_OK_PACKED = _OK_PACKED[OP_READ]
_READ_CODE = BIN_OPS[OP_READ]

#: error-code table for binary error responses (aux field)
_ERR_CODES = {"ENOENT": 1, "ENOSPC": 2}
_ERR_NAMES = {v: k for k, v in _ERR_CODES.items()}

#: trace context extension: 16 hex chars of trace_id + 8 of span_id
_TRACE_EXT_LEN = 24


class ProtocolError(RuntimeError):
    """Malformed frame on the wire."""


@dataclass
class Message:
    """One framed message: header + optional binary payload.

    ``seq`` is the transport-level pipelining correlation id: echoed
    verbatim by the server, never part of the header vocabulary.
    """

    header: dict = field(default_factory=dict)
    payload: bytes = b""
    seq: int = 0

    @property
    def op(self) -> Optional[str]:
        return self.header.get("op")

    @property
    def status(self) -> Optional[str]:
        return self.header.get("status")

    @property
    def ok(self) -> bool:
        return self.header.get("status") == STATUS_OK

    @staticmethod
    def request(op: str, **fields: Any) -> "Message":
        return Message(header={"op": op, **fields})

    @staticmethod
    def ok_response(payload: bytes = b"", **fields: Any) -> "Message":
        return Message(header={"status": STATUS_OK, **fields}, payload=payload)

    @staticmethod
    def error_response(reason: str, **fields: Any) -> "Message":
        return Message(header={"status": STATUS_ERROR, "reason": reason, **fields})


def set_nodelay(sock: socket.socket) -> None:
    """Disable Nagle on a TCP socket (no-op for non-TCP, e.g. socketpairs).

    Small frames — PING, STAT, READ headers — otherwise eat
    Nagle + delayed-ACK latency on every request/response turn.
    """
    try:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    except (OSError, ValueError):  # AF_UNIX socketpair, closed socket, ...
        pass


# -- low-level send/recv ------------------------------------------------------------
def _send_vectored(sock: socket.socket, *parts) -> None:
    """Send buffers scatter-gather, copy-free: each part is its own iovec,
    so the payload buffer goes to the kernel as-is."""
    bufs = [memoryview(p) for p in parts if len(p)]
    if not bufs:
        return
    sendmsg = getattr(sock, "sendmsg", None)
    if sendmsg is None:  # pragma: no cover - platforms without sendmsg
        for b in bufs:
            sock.sendall(b)
        return
    while bufs:
        sent = sendmsg(bufs)
        while bufs and sent >= len(bufs[0]):
            sent -= len(bufs[0])
            bufs.pop(0)
        if bufs and sent:
            bufs[0] = bufs[0][sent:]


def _recv_exact_into(sock: socket.socket, view: memoryview) -> None:
    """Fill ``view`` in place or raise ``ConnectionError`` on EOF."""
    while len(view):
        n = sock.recv_into(view)
        if n == 0:
            raise ConnectionError("peer closed mid-frame")
        view = view[n:]


# -- codec -------------------------------------------------------------------------
def _fields_payload(header: dict, packed: frozenset, own_payload: int) -> bytes:
    """The JSON object of the header fields ``packed`` does not cover, or
    ``b""`` when there are none (the READ/PUT/TRANSFER case: no JSON)."""
    if header.keys() <= packed:
        return b""
    if own_payload:
        raise ProtocolError(
            f"fields {sorted(header.keys() - packed)} need the payload, which carries "
            f"{own_payload} bytes of its own"
        )
    fields = {k: v for k, v in header.items() if k not in packed}
    raw = json.dumps(fields, separators=(",", ":")).encode("utf-8")
    if len(raw) > _MAX_HEADER:
        raise ProtocolError(f"fields length {len(raw)} exceeds bound {_MAX_HEADER}")
    return raw


def _parse_fields(raw) -> dict:
    try:
        fields = json.loads(bytes(raw).decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise ProtocolError(f"bad fields payload: {exc}") from exc
    if not isinstance(fields, dict):
        raise ProtocolError(f"fields payload is {type(fields).__name__}, not an object")
    return fields


def _trace_ext(header: dict) -> bytes:
    """Pack the trace context (if any) into the header extension field."""
    tid = header.get(TRACE_ID_FIELD)
    sid = header.get(SPAN_ID_FIELD)
    if isinstance(tid, str) and isinstance(sid, str) and len(tid) == 16 and len(sid) == 8:
        try:
            return (tid + sid).encode("ascii")
        except UnicodeEncodeError:  # pragma: no cover - ids are hex
            return b""
    return b""


def _unpack_trace_ext(ext, header: dict) -> None:
    """Unpack a trace-context extension blob into header fields."""
    if len(ext) != _TRACE_EXT_LEN:
        return
    try:
        text = bytes(ext).decode("ascii")
    except UnicodeDecodeError:
        return
    header[TRACE_ID_FIELD] = text[:16]
    header[SPAN_ID_FIELD] = text[16:]


def encode_binary_request(message: Message, seq: int = 0) -> bytes:
    """Fixed header + key + ext (+ fields payload) of one request; the
    message's own payload is sent separately."""
    h, plen = message.header, len(message.payload)
    code = BIN_OPS.get(h.get("op") or "")
    if code is None:
        raise ProtocolError(f"op {message.op!r} is not in the op table")
    key = str(h.get("path", "")).encode("utf-8")
    if len(key) > 0xFFFF:
        raise ProtocolError(f"key length {len(key)} exceeds field width")
    if plen > _MAX_PAYLOAD:
        raise ProtocolError(f"payload length {plen} exceeds bound {_MAX_PAYLOAD}")
    ext = _trace_ext(h) if len(h) > 2 else b""  # a trace context is two fields beside ``op``
    fields = b"" if h.keys() <= _REQUEST_PACKED else _fields_payload(h, _REQUEST_PACKED, plen)
    return _BIN_HDR.pack(BIN_MAGIC, BIN_VERSION, _KIND_REQUEST, code, _FLAG_FIELDS if fields else 0,
                         len(key), len(ext), seq & 0xFFFFFFFF, 0, len(fields) or plen) + key + ext + fields


def send_binary_request(sock: socket.socket, message: Message, seq: int = 0) -> None:
    _send_vectored(sock, encode_binary_request(message, seq), message.payload)


def encode_binary_response_header(
    op: str, message: Message, seq: int = 0, payload_len: Optional[int] = None
) -> bytes:
    """Fixed header (+ reason key on errors, + fields payload) of one response.

    ``payload_len`` overrides ``len(message.payload)`` for the zero-copy
    serve path, where the payload never enters Python (``sendfile`` moves
    it straight from the NVMe entry to the socket).
    """
    h = message.header
    plen = len(message.payload) if payload_len is None else payload_len
    if op == OP_READ and h.get("status") == STATUS_OK and h.keys() <= _READ_OK_PACKED and plen <= _MAX_PAYLOAD:
        # the READ branch (every cache hit): the source flag is all there is to pack
        flags = _FLAG_SOURCE_PFS if h.get("source") == "pfs" else 0
        return _BIN_HDR.pack(BIN_MAGIC, BIN_VERSION, _KIND_OK, _READ_CODE, flags, 0, 0, seq & 0xFFFFFFFF, 0, plen)
    code = BIN_OPS.get(op)
    if code is None:
        raise ProtocolError(f"op {op!r} is not in the op table")
    flags = 0
    aux = 0
    key = b""
    if h.get("status") == STATUS_OK:
        kind = _KIND_OK
        packed = _OK_PACKED.get(op, _OK_PACKED_DEFAULT)
        if op == OP_READ and h.get("source") == "pfs":
            flags |= _FLAG_SOURCE_PFS
        elif op == OP_TRANSFER:
            if h.get("accepted"):
                flags |= _FLAG_ACCEPTED
            aux = int(h.get("queue_len", 0)) & 0xFFFFFFFF
        elif op == OP_PUT:
            aux = int(h.get("stored", 0)) & 0xFFFFFFFF
    else:
        kind = _KIND_ERROR
        packed = _ERROR_PACKED
        key = str(h.get("reason", "")).encode("utf-8")[:0xFFFF]
        aux = _ERR_CODES.get(h.get("code") or "", 0)
    if plen > _MAX_PAYLOAD:
        raise ProtocolError(f"payload length {plen} exceeds bound {_MAX_PAYLOAD}")
    fields = _fields_payload(h, packed, plen)
    if fields:
        flags |= _FLAG_FIELDS
        plen = len(fields)
    return (
        _BIN_HDR.pack(
            BIN_MAGIC, BIN_VERSION, kind, code, flags, len(key), 0, seq & 0xFFFFFFFF, aux, plen
        )
        + key
        + fields
    )


def parse_frame(buf, pos: int = 0, requests_only: bool = False) -> tuple[Optional[Message], int]:
    """Decode the frame that starts at ``buf[pos]``, if all of it is there.

    Returns ``(message, end)``: ``end`` is the offset just past the frame.
    While the frame is incomplete ``message`` is None and ``end`` is the
    buffer length worth calling again at.  Everything the fixed header
    says is judged as soon as it is in — the magic byte by byte, every
    length bound and (``requests_only``: the server's side) the frame
    kind before any body byte is waited for — so a hostile header raises
    :class:`ProtocolError` on arrival.
    """
    body = pos + _BIN_HDR.size
    if len(buf) < body:
        if buf[pos : pos + 2] != BIN_MAGIC[: len(buf) - pos]:
            raise ProtocolError(f"bad magic {bytes(buf[pos : pos + 2])!r}")
        return None, body
    magic, version, kind, code, flags, key_len, ext_len, seq, aux, plen = _BIN_HDR.unpack_from(
        buf, pos
    )
    if magic != BIN_MAGIC:
        raise ProtocolError(f"bad magic {magic!r}")
    if version != BIN_VERSION:
        raise ProtocolError(f"unsupported version {version}")
    if kind not in (_KIND_REQUEST, _KIND_OK, _KIND_ERROR):
        raise ProtocolError(f"bad frame kind {kind}")
    if requests_only and kind != _KIND_REQUEST:
        raise ProtocolError(f"frame kind {kind} is not a request")
    op = _BIN_OP_NAMES.get(code)
    if op is None:
        raise ProtocolError(f"unknown op code {code}")
    if ext_len > _MAX_EXT:
        raise ProtocolError(f"ext length {ext_len} exceeds bound {_MAX_EXT}")
    bound = _MAX_HEADER if flags & _FLAG_FIELDS else _MAX_PAYLOAD
    if plen > bound:
        raise ProtocolError(f"payload length {plen} exceeds bound {bound}")
    end = body + key_len + ext_len + plen
    if len(buf) < end:
        return None, end
    at = end - plen  # the payload's offset: key and ext are sliced only when present
    try:
        key = str(buf[body : body + key_len], "utf-8") if key_len else ""
    except UnicodeDecodeError as exc:
        raise ProtocolError(f"bad key encoding: {exc}") from exc
    payload = bytes(memoryview(buf)[at:end]) if plen else b""
    header: dict = {}
    if flags & _FLAG_FIELDS:  # packed fields win over these: the header is what the peer routed on
        header, payload = _parse_fields(payload), b""
    if kind == _KIND_REQUEST:
        header["op"] = op
        header["path"] = key
        if ext_len:
            _unpack_trace_ext(buf[at - ext_len : at], header)
    elif kind == _KIND_OK:
        header["status"] = STATUS_OK
        if op == OP_READ:
            header["source"] = "pfs" if flags & _FLAG_SOURCE_PFS else "cache"
        elif op == OP_TRANSFER:
            header["accepted"] = bool(flags & _FLAG_ACCEPTED)
            header["queue_len"] = aux
        elif op == OP_PUT:
            header["stored"] = aux
    else:
        header["status"] = STATUS_ERROR
        header["reason"] = key
        if aux in _ERR_NAMES:
            header["code"] = _ERR_NAMES[aux]
    return Message(header, payload, seq), end


def recv_message(sock: socket.socket) -> Message:
    """Receive one frame: the blocking driver of :func:`parse_frame`.

    The fixed header is read first (and judged after every ``recv``, so a
    peer that is not speaking this protocol fails on its first bytes);
    the parser then names the frame's length, the whole frame is
    allocated once, and the rest is received straight into it.
    """
    head = bytearray(_BIN_HDR.size)
    have = 0
    while have < len(head):
        n = sock.recv_into(memoryview(head)[have:])
        if n == 0:
            raise ConnectionError("peer closed mid-frame")
        have += n
        msg, end = parse_frame(memoryview(head)[:have])
    if msg is not None:
        return msg
    frame = bytearray(end)
    frame[:have] = head
    _recv_exact_into(sock, memoryview(frame)[have:])
    return parse_frame(frame)[0]


class FrameReader:
    """Buffered blocking driver of :func:`parse_frame` for one long-lived socket.

    One ``recv_into`` the window may bring in several frames (32 × 16 KiB
    pipelined replies: a handful of ``recv`` calls, not 64).  An incomplete
    frame moves to the window's front; one larger than the window is
    received straight into its one allocation, as in :func:`recv_message`.
    After an exception the caller retires the socket: half a frame may be left.
    """

    def __init__(self, sock: socket.socket):
        self.sock = sock
        self._view = memoryview(bytearray(_WINDOW))
        self._lo = self._hi = 0  # the unread bytes are window[lo:hi]

    def recv(self) -> Message:
        view, lo, hi = self._view, self._lo, self._hi
        while True:
            if lo < hi:
                msg, end = parse_frame(view[:hi], lo)
                if msg is not None:
                    self._lo, self._hi = end, hi
                    return msg
                if end - lo > _WINDOW:
                    frame = bytearray(end - lo)
                    frame[: hi - lo] = view[lo:hi]
                    self._lo = self._hi = 0
                    _recv_exact_into(self.sock, memoryview(frame)[hi - lo :])
                    return parse_frame(frame)[0]
                view[: hi - lo] = view[lo:hi]
            lo, hi = 0, hi - lo
            n = self.sock.recv_into(view[hi:])
            if n == 0:
                raise ConnectionError("peer closed mid-frame")
            hi += n
