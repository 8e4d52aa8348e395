"""Wire protocol for the FT-Cache runtime: JSON control frames + a fixed
binary header for the READ hot path.

Two self-describing frame formats share every connection, discriminated
by the first byte on the wire:

* **JSON frames** (the original codec, kept for STAT/OBS/JOIN_PLAN/PING
  and any old client): a 4-byte big-endian length, a JSON header of that
  length, then ``header["payload_len"]`` raw bytes.  The JSON header
  length is bounded by ``_MAX_HEADER`` (1 MiB), so its first length byte
  is always ``0x00`` on a well-formed stream.
* **binary frames** (the hot path): a fixed 22-byte header —
  magic + version + kind + op + flags + key-len + ext-len + seq + aux +
  payload-len — followed by the key (a path), an extension blob (the
  trace context rides here), and the payload.  The magic's first byte is
  ``0xF7``, which can never open a JSON frame, so a receiver needs only
  one byte to pick the codec.  No JSON is parsed or produced anywhere on
  a binary READ.

Because every frame self-describes, "negotiation" is implicit and
per-message: an old client speaks JSON and is answered in JSON; a new
client sends binary READs and JSON STATs over the same pooled socket and
each gets a same-codec reply.  ``seq`` is a transport-level correlation
id (:attr:`Message.seq`) echoed by the server, which is what makes
pipelining with out-of-order completion safe — it never appears in the
JSON header vocabulary.

Both codecs bound every variable-length field (``_MAX_HEADER``,
``_MAX_EXT``, ``_MAX_PAYLOAD``) before allocating, so a corrupt or
hostile length field raises :class:`ProtocolError` instead of driving
the receiver into a multi-gigabyte read.  Sends are vectored
(``sendmsg``): the payload travels as its own iovec straight from the
caller's buffer — header and payload are never concatenated into a
doubled-up intermediate bytes object.

Requests may additionally carry ``trace_id``/``span_id`` correlation
fields (injected by :func:`repro.obs.context.inject` on traced
operations); JSON framing treats them as opaque header data, and the
binary codec packs them into the header's extension field.
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
    "send_message",
    "recv_message",
    "send_binary_request",
    "encode_binary_request",
    "encode_binary_response_header",
    "encode_json_frame",
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
#: backfill one moved key into a joining node's bounded mover (rebalance)
OP_TRANSFER = "TRANSFER"
#: observability export: unified telemetry snapshot + recent spans/events
#: as a JSON payload (headers stay small; the data rides the binary lane)
OP_OBS = "OBS"

STATUS_OK = "OK"
STATUS_ERROR = "ERROR"

_LEN = struct.Struct(">I")
#: sanity bound on JSON header size — anything bigger is a corrupt stream
_MAX_HEADER = 1 << 20
#: hard bound on any payload, both codecs — a corrupt/hostile ``payload_len``
#: must fail the frame, not allocate gigabytes (256 MiB ≫ any cache entry)
_MAX_PAYLOAD = 1 << 28
#: bound on the binary extension blob (trace context today: 24 bytes)
_MAX_EXT = 1 << 12

# -- binary codec ------------------------------------------------------------------
#: first byte 0xF7 can never alias a JSON frame: a JSON length prefix is
#: bounded by ``_MAX_HEADER`` (1 MiB), so its first byte is always 0x00
BIN_MAGIC = b"\xf7\xc5"
BIN_VERSION = 1

#: magic(2) version(1) kind(1) op(1) flags(1) key_len(2) ext_len(2)
#: seq(4) aux(4) payload_len(4) — 22 bytes, all big-endian
_BIN_HDR = struct.Struct(">2sBBBBHHIII")

_KIND_REQUEST = 0
_KIND_OK = 1
_KIND_ERROR = 2

#: the binary op table: ops eligible for binary framing (the payload-bearing
#: hot/bulk lane).  Everything else — STAT, OBS, PING, JOIN_PLAN — is
#: control-plane and stays on JSON frames.  The RPC conformance checker
#: (``repro.analysis.rpccheck``) parses this table and cross-checks it
#: against senders and handler branches, so it cannot drift silently.
BIN_OPS = {
    OP_READ: 1,
    OP_PUT: 2,
    OP_TRANSFER: 3,
}
_BIN_OP_NAMES = {v: k for k, v in BIN_OPS.items()}

#: response flag bits
_FLAG_SOURCE_PFS = 0x01  # READ ok: bytes came from the PFS, not the cache
_FLAG_ACCEPTED = 0x02  # TRANSFER ok: the mover accepted the entry

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

    ``seq`` is the transport-level pipelining correlation id: nonzero only
    on the binary wire, echoed verbatim by the server, never part of the
    header vocabulary (so the JSON wire contract is untouched by it).
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

    Small frames — PING, STAT, binary READ headers — otherwise eat
    Nagle + delayed-ACK latency on every request/response turn.
    """
    try:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    except (OSError, ValueError):  # AF_UNIX socketpair, closed socket, ...
        pass


# -- low-level send/recv ------------------------------------------------------------
def _send_vectored(sock: socket.socket, *parts) -> None:
    """Send buffers scatter-gather, copy-free: each part is its own iovec.

    The header/payload concatenation the old codec did (``len + header +
    payload`` in one bytes object) doubled peak memory for every large
    response; here the payload buffer goes to the kernel as-is.
    """
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


def _recv_exact(sock: socket.socket, n: int) -> bytes:
    """Read exactly ``n`` bytes into one buffer (no chunk-list joins)."""
    buf = bytearray(n)
    _recv_exact_into(sock, memoryview(buf))
    return bytes(buf)


# -- JSON codec ---------------------------------------------------------------------
def encode_json_frame(message: Message) -> bytes:
    """Length prefix + JSON header of one message (payload *not* included —
    callers send/write the payload buffer separately, uncopied)."""
    header = dict(message.header)
    header["payload_len"] = len(message.payload)
    raw = json.dumps(header, separators=(",", ":")).encode("utf-8")
    if len(raw) > _MAX_HEADER:
        raise ProtocolError(f"header length {len(raw)} exceeds bound {_MAX_HEADER}")
    if len(message.payload) > _MAX_PAYLOAD:
        raise ProtocolError(f"payload length {len(message.payload)} exceeds bound {_MAX_PAYLOAD}")
    return _LEN.pack(len(raw)) + raw


def send_message(sock: socket.socket, message: Message) -> None:
    _send_vectored(sock, encode_json_frame(message), message.payload)


def _parse_json_header(raw) -> tuple[dict, int]:
    """Decode header bytes; validate and return ``(header, payload_len)``."""
    try:
        header = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"bad header: {exc}") from exc
    if not isinstance(header, dict):
        raise ProtocolError(f"header is {type(header).__name__}, not an object")
    plen = header.get("payload_len", 0)
    if not isinstance(plen, int) or isinstance(plen, bool) or plen < 0:
        raise ProtocolError(f"bad payload_len {plen!r}")
    if plen > _MAX_PAYLOAD:
        raise ProtocolError(f"payload length {plen} exceeds bound {_MAX_PAYLOAD}")
    return header, plen


def _check_json_hlen(hlen: int) -> None:
    if hlen > _MAX_HEADER:
        raise ProtocolError(f"header length {hlen} exceeds bound")


# -- binary codec -------------------------------------------------------------------
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
    """Fixed header + key + ext of one request (payload sent separately)."""
    code = BIN_OPS.get(message.op or "")
    if code is None:
        raise ProtocolError(f"op {message.op!r} is not in the binary op table")
    key = str(message.header.get("path", "")).encode("utf-8")
    if len(key) > 0xFFFF:
        raise ProtocolError(f"key length {len(key)} exceeds field width")
    if len(message.payload) > _MAX_PAYLOAD:
        raise ProtocolError(f"payload length {len(message.payload)} exceeds bound {_MAX_PAYLOAD}")
    ext = _trace_ext(message.header)
    return (
        _BIN_HDR.pack(
            BIN_MAGIC,
            BIN_VERSION,
            _KIND_REQUEST,
            code,
            0,
            len(key),
            len(ext),
            seq & 0xFFFFFFFF,
            0,
            len(message.payload),
        )
        + key
        + ext
    )


def send_binary_request(sock: socket.socket, message: Message, seq: int = 0) -> None:
    _send_vectored(sock, encode_binary_request(message, seq), message.payload)


def encode_binary_response_header(
    op: str, message: Message, seq: int = 0, payload_len: Optional[int] = None
) -> bytes:
    """Fixed header (+ reason key on errors) of one response.

    ``payload_len`` overrides ``len(message.payload)`` for the zero-copy
    serve path, where the payload never enters Python (``sendfile`` moves
    it straight from the NVMe entry to the socket).
    """
    code = BIN_OPS.get(op)
    if code is None:
        raise ProtocolError(f"op {op!r} is not in the binary op table")
    h = message.header
    flags = 0
    aux = 0
    key = b""
    if h.get("status") == STATUS_OK:
        kind = _KIND_OK
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
        key = str(h.get("reason", "")).encode("utf-8")[:0xFFFF]
        aux = _ERR_CODES.get(h.get("code") or "", 0)
    plen = len(message.payload) if payload_len is None else payload_len
    if plen > _MAX_PAYLOAD:
        raise ProtocolError(f"payload length {plen} exceeds bound {_MAX_PAYLOAD}")
    return (
        _BIN_HDR.pack(
            BIN_MAGIC, BIN_VERSION, kind, code, flags, len(key), 0, seq & 0xFFFFFFFF, aux, plen
        )
        + key
    )


def _parse_bin_header(buf, pos: int = 0) -> tuple[int, str, int, int, int, int, int, int]:
    """Validate the packed 22-byte header at ``buf[pos]``; return
    ``(kind, op, flags, key_len, ext_len, seq, aux, payload_len)``."""
    magic, version, kind, code, flags, key_len, ext_len, seq, aux, plen = _BIN_HDR.unpack_from(
        buf, pos
    )
    if magic != BIN_MAGIC:
        raise ProtocolError(f"bad binary magic {magic!r}")
    if version != BIN_VERSION:
        raise ProtocolError(f"unsupported binary version {version}")
    if kind not in (_KIND_REQUEST, _KIND_OK, _KIND_ERROR):
        raise ProtocolError(f"bad frame kind {kind}")
    op = _BIN_OP_NAMES.get(code)
    if op is None:
        raise ProtocolError(f"unknown binary op code {code}")
    if ext_len > _MAX_EXT:
        raise ProtocolError(f"ext length {ext_len} exceeds bound {_MAX_EXT}")
    if plen > _MAX_PAYLOAD:
        raise ProtocolError(f"payload length {plen} exceeds bound {_MAX_PAYLOAD}")
    return kind, op, flags, key_len, ext_len, seq, aux, plen


def _build_bin_message(
    kind: int, op: str, flags: int, seq: int, aux: int, body: memoryview,
    key_len: int, ext_len: int,
) -> Message:
    """Assemble a Message from a validated header + body buffer.

    ``body`` is sliced with memoryviews — key, ext, and payload are never
    re-joined or copied twice.
    """
    key = body[:key_len]
    ext = body[key_len : key_len + ext_len]
    payload = body[key_len + ext_len :]
    try:
        key_text = bytes(key).decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ProtocolError(f"bad key encoding: {exc}") from exc
    if kind == _KIND_REQUEST:
        header: dict = {"op": op, "path": key_text}
        _unpack_trace_ext(ext, header)
        return Message(header=header, payload=bytes(payload), seq=seq)
    if kind == _KIND_OK:
        header = {"status": STATUS_OK}
        if op == OP_READ:
            header["source"] = "pfs" if flags & _FLAG_SOURCE_PFS else "cache"
        elif op == OP_TRANSFER:
            header["accepted"] = bool(flags & _FLAG_ACCEPTED)
            header["queue_len"] = aux
        elif op == OP_PUT:
            header["stored"] = aux
        return Message(header=header, payload=bytes(payload), seq=seq)
    header = {"status": STATUS_ERROR, "reason": key_text}
    code_name = _ERR_NAMES.get(aux)
    if code_name is not None:
        header["code"] = code_name
    return Message(header=header, payload=bytes(payload), seq=seq)


# -- blocking receive (client side, tests) ------------------------------------------
def recv_message(sock: socket.socket) -> Message:
    """Receive one frame, auto-detecting the codec from its first byte."""
    first = _recv_exact(sock, 1)
    if first[0] == BIN_MAGIC[0]:
        rest = _recv_exact(sock, _BIN_HDR.size - 1)
        kind, op, flags, key_len, ext_len, seq, aux, plen = _parse_bin_header(first + rest)
        body = bytearray(key_len + ext_len + plen)
        _recv_exact_into(sock, memoryview(body))
        return _build_bin_message(kind, op, flags, seq, aux, memoryview(body), key_len, ext_len)
    rest = _recv_exact(sock, _LEN.size - 1)
    (hlen,) = _LEN.unpack(first + rest)
    _check_json_hlen(hlen)
    header, plen = _parse_json_header(_recv_exact(sock, hlen))
    payload = _recv_exact(sock, plen) if plen else b""
    return Message(header=header, payload=payload)


# -- incremental decode (event-loop server core) ------------------------------------
def parse_frame(buf, pos: int = 0) -> tuple[Optional[Message], bool, int]:
    """Decode the frame that starts at ``buf[pos]``, if all of it is there.

    Returns ``(message, binary, end)``: ``binary`` names the codec the
    frame arrived on (the server answers in kind) and ``end`` is the
    offset just past the frame.  While the frame is incomplete
    ``message`` is None and ``end`` is the buffer length worth calling
    again at.  Every length field is bounded as soon as the fixed header
    that carries it is in — before any body byte is waited for — so a
    hostile length raises :class:`ProtocolError` on arrival.
    """
    if len(buf) > pos and buf[pos] == BIN_MAGIC[0]:
        body = pos + _BIN_HDR.size
        if len(buf) < body:
            return None, True, body
        kind, op, flags, key_len, ext_len, seq, aux, plen = _parse_bin_header(buf, pos)
        end = body + key_len + ext_len + plen
        if len(buf) < end:
            return None, True, end
        msg = _build_bin_message(
            kind, op, flags, seq, aux, memoryview(buf)[body:end], key_len, ext_len
        )
        return msg, True, end
    body = pos + _LEN.size
    if len(buf) < body:
        return None, False, body
    (hlen,) = _LEN.unpack_from(buf, pos)
    _check_json_hlen(hlen)
    if len(buf) < body + hlen:
        return None, False, body + hlen
    header, plen = _parse_json_header(buf[body : body + hlen])
    end = body + hlen + plen
    if len(buf) < end:
        return None, False, end
    return Message(header=header, payload=bytes(buf[body + hlen : end])), False, end
