"""Wire protocol for the FT-Cache runtime: one fixed-header frame for every op.

A frame is a fixed 22-byte header — magic + version + kind + op + flags +
key-len + ext-len + seq + aux + payload-len — followed by the key (a
path, or the reason of an error), an extension blob (the trace context
rides here), and the payload.

**One op table.**  :data:`BIN_OPS` declares each op once, as an
:class:`Op` row: its name and wire code, the fields its requests and OK
replies carry, which reply field rides the flag bit and which the aux
word, and the server method that answers it.  The encoder, the decoder
and the server's dispatch all read the row; none branches on the op.
The fixed header packs what the hot path reads — ``op``/``path``,
``status``, ``reason``/``code``, the trace ids and the row's flag and
aux fields — so no JSON is parsed or produced anywhere on a READ, PUT or
TRANSFER.  A row's other fields — STAT's counters, PING's ``node_id``,
JOIN_PLAN's plan — ride as one JSON object in the payload under
``_FLAG_FIELDS``, which is legal only on a message with no payload bytes
of its own.  The encoder refuses a message whose fields are not exactly
its row's (STAT's reply takes any), so a field the row declares is
always there for the peer to read.  Callers build
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
    "Op",
    "op_table",
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

#: flag bit: the payload is the JSON object of the fields the fixed header
#: does not pack (the rows' flag fields take the other bits)
_FLAG_FIELDS = 0x04


class Op:
    """One row of the op table: all the wire and the server know of an op.

    ``code`` is its 8-bit wire code and ``handler`` the
    :class:`~repro.runtime.server.FTCacheServer` method that answers it.
    Every request carries ``path`` (the frame's key, ``""`` when there is
    none) and may carry a trace context; ``request`` names the fields it
    carries besides, ``reply`` those of an OK reply (None: any, STAT's
    counters).  Those ride the JSON fields payload, all of them, every time.
    ``flag`` is the OK-reply field the flag word carries — ``(field, bit,
    value if set, value if clear)`` — and ``aux`` the one the aux word
    carries; the decoder sets both on every OK reply.  ``inline``: a
    request whose key is cached is answered within the server's loop turn.
    """

    __slots__ = ("name", "code", "handler", "request", "reply", "flag", "aux", "inline", "ok_fixed")

    def __init__(self, name: str, code: int, handler: str, *, request=(), reply=(),
                 flag: Optional[tuple] = None, aux: Optional[str] = None, inline: bool = False):
        self.name, self.code, self.handler, self.inline = name, code, handler, inline
        self.request = frozenset(request)
        self.reply = None if reply is None else frozenset(reply)
        self.flag, self.aux = flag, aux
        #: what an OK reply's fixed header packs
        self.ok_fixed = frozenset({"status", aux, flag and flag[0]} - {None})


def op_table(*rows: Op) -> dict:
    """The table of ``rows``, name → row, refused with :class:`ValueError`
    unless each row has its own name and its own code in the 8-bit op field."""
    table, by_code = {}, {}
    for op in rows:
        if type(op.code) is not int:
            raise ValueError(f"{op.name}: non-integer wire code {op.code!r}")
        if not 0 < op.code < 256:
            raise ValueError(f"{op.name}: wire code {op.code} does not fit the 8-bit op field")
        if op.code in by_code:
            raise ValueError(f"{op.name} and {by_code[op.code].name} share wire code {op.code}: "
                             "the decoder cannot tell the two ops apart")
        if op.name in table:
            raise ValueError(f"op {op.name} has two rows")
        table[op.name] = by_code[op.code] = op
    return table


#: the op table, name → row: encode, decode and the server's dispatch read it
BIN_OPS = op_table(
    Op(OP_READ, 1, "_read", flag=("source", 0x01, "pfs", "cache"), inline=True),
    Op(OP_PUT, 2, "_put", aux="stored"),
    Op(OP_TRANSFER, 3, "_transfer", flag=("accepted", 0x02, True, False), aux="queue_len"),
    Op(OP_PING, 4, "_ping", reply=("node_id",)),
    Op(OP_STAT, 5, "_stat", reply=None),
    Op(OP_OBS, 6, "_obs", request=("spans_limit", "events_limit")),
    Op(OP_JOIN_PLAN, 7, "_join_plan", request=("planned_keys", "planned_bytes", "epoch"),
       reply=("node_id", "accepted_keys")),
)
_BY_CODE = {op.code: op for op in BIN_OPS.values()}

#: what a request's and an error reply's fixed header packs, whatever the op
_REQUEST_FIXED = frozenset({"op", "path", TRACE_ID_FIELD, SPAN_ID_FIELD})
_ERROR_FIXED = frozenset({"status", "reason", "code"})
_NO_FIELDS = frozenset()

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
def _fields_payload(op: str, header: dict, fixed: frozenset, declared, own_payload: int) -> bytes:
    """The JSON object of the header fields ``fixed`` does not cover, or
    ``b""`` when there are none; refused unless they are exactly the row's
    ``declared`` fields (None: any)."""
    fields = {k: v for k, v in header.items() if k not in fixed}
    if fields and own_payload:
        raise ProtocolError(
            f"fields {sorted(fields)} need the payload, which carries {own_payload} bytes of its own"
        )
    if declared is not None and fields.keys() != declared:
        raise ProtocolError(f"{op} carries fields {sorted(fields)}; its row declares {sorted(declared)}")
    if not fields:
        return b""
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
    row = BIN_OPS.get(h.get("op") or "")
    if row is None:
        raise ProtocolError(f"op {message.op!r} is not in the op table")
    key = str(h.get("path", "")).encode("utf-8")
    if len(key) > 0xFFFF:
        raise ProtocolError(f"key length {len(key)} exceeds field width")
    if plen > _MAX_PAYLOAD:
        raise ProtocolError(f"payload length {plen} exceeds bound {_MAX_PAYLOAD}")
    ext = _trace_ext(h) if len(h) > 2 else b""  # a trace context is two fields beside ``op``
    fields = (_fields_payload(row.name, h, _REQUEST_FIXED, row.request, plen)
              if row.request or not h.keys() <= _REQUEST_FIXED else b"")
    return _BIN_HDR.pack(BIN_MAGIC, BIN_VERSION, _KIND_REQUEST, row.code, _FLAG_FIELDS if fields else 0,
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
    row = BIN_OPS.get(op)
    if row is None:
        raise ProtocolError(f"op {op!r} is not in the op table")
    if plen > _MAX_PAYLOAD:
        raise ProtocolError(f"payload length {plen} exceeds bound {_MAX_PAYLOAD}")
    if h.get("status") == STATUS_OK:
        flag = row.flag
        flags = flag[1] if flag and h.get(flag[0]) == flag[2] else 0
        aux = int(h.get(row.aux, 0)) & 0xFFFFFFFF if row.aux else 0
        if not row.reply and h.keys() <= row.ok_fixed:  # every cache hit: one pack
            return _BIN_HDR.pack(BIN_MAGIC, BIN_VERSION, _KIND_OK, row.code, flags, 0, 0, seq & 0xFFFFFFFF, aux, plen)
        kind, key = _KIND_OK, b""
        fields = _fields_payload(op, h, row.ok_fixed, row.reply, plen)
    else:
        flags, kind = 0, _KIND_ERROR
        # cut on a character boundary: the decoder refuses a split one
        key = str(h.get("reason", "")).encode("utf-8")[:0xFFFF].decode("utf-8", "ignore").encode("utf-8")
        aux = _ERR_CODES.get(h.get("code") or "", 0)
        fields = _fields_payload(op, h, _ERROR_FIXED, _NO_FIELDS, plen)
    if fields:
        flags |= _FLAG_FIELDS
        plen = len(fields)
    return (
        _BIN_HDR.pack(BIN_MAGIC, BIN_VERSION, kind, row.code, flags, len(key), 0, seq & 0xFFFFFFFF, aux, plen)
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
    row = _BY_CODE.get(code)
    if row is None:
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
        header["op"] = row.name
        header["path"] = key
        if ext_len:
            _unpack_trace_ext(buf[at - ext_len : at], header)
    elif kind == _KIND_OK:
        header["status"] = STATUS_OK
        if row.flag is not None:
            name, bit, on, off = row.flag
            header[name] = on if flags & bit else off
        if row.aux is not None:
            header[row.aux] = aux
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
