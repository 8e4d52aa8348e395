"""Threaded FT-Cache client: real sockets, the *same* fault-tolerance core.

This client and the simulated one (:mod:`repro.hvac.client`) share the
placement policies, fault policies, and failure detector from
:mod:`repro.core` — the detection/re-routing logic is written once and
exercised in both worlds.  The flow is the paper's Figure 3:

1. hash the path → owning server (or PFS, per policy);
2. RPC with a socket timeout of ``ttl``;
3. timeout/refused connection feeds the detector; at threshold the node
   is declared failed, the policy reacts (abort / redirect / re-ring);
4. unserved reads re-route and retry.

Every request travels one path, an **exchange**: one node's frames in
one send, its replies drained by seq.  :meth:`FTCacheClient.read` is a
one-key :meth:`FTCacheClient.read_many`, and cache installs, replica
pushes and the explicit-node RPCs are exchanges too.

Detector evidence — one rule, for every read, install and ``ping``
(the other RPCs never feed the detector): an exchange that fails is
evidence unless a **pooled** socket was reset or hit EOF.  A timeout is
evidence (the node accepted bytes and went silent: the hang the TTL
exists to catch); a refusal, reset or EOF on a **fresh** socket is
evidence (nothing is listening).  A reset or EOF on a pooled socket is
not: a server restart or an idle-connection reap kills established
sockets without the node being unhealthy *now*, so the exchange is
resent once on a fresh socket and only that attempt can count.  A
request the codec refuses (a key over 64 KiB) is never evidence: it
raises :class:`ReadError` before anything is sent.

Thread safety: a client may be shared by loader workers; the connection
pool is per-thread, and policy/detector mutations take a lock.  Pool
entries carry a per-node **epoch**: :meth:`admit_node` (and a failure
declaration) bump the node's epoch, so every thread's pooled socket to a
restarted node is lazily discarded instead of being replayed into the
detector as false evidence.
"""

from __future__ import annotations

import json
import socket
import threading
from contextlib import contextmanager
from typing import Hashable, Optional

from ..analysis import lockwitness
from ..core.failure_detector import TimeoutFailureDetector
from ..core.fault_policy import FaultPolicy
from ..obs import Counters, Tracer, get_event_log, inject, node_logger
from .protocol import (
    OP_JOIN_PLAN,
    OP_OBS,
    OP_PING,
    OP_PUT,
    OP_READ,
    OP_STAT,
    OP_TRANSFER,
    Message,
    FrameReader,
    ProtocolError,
    encode_binary_request,
    send_vectored,
    set_nodelay,
)
from .storage import PFSDir

__all__ = ["FTCacheClient", "ReadError", "CLIENT_COUNTER_KEYS", "MAX_REROUTE_ROUNDS"]

NodeId = Hashable

#: every monotone client-side counter: the keys of ``FTCacheClient.stats``
CLIENT_COUNTER_KEYS = (
    "server_cache_reads",
    "server_pfs_reads",
    "pfs_direct_reads",
    "timeouts",
    "declared",
    "failovers",
    "replica_pushes",
    "writes",
    "cache_installs",
    "reconnects",
    "join_plans_sent",
    "transfers_sent",
    "pipelined_reads",
)

#: routing rounds a read batch takes before it gives up on a key: each
#: round re-routes the keys none of their candidates served
MAX_REROUTE_ROUNDS = 32


class ReadError(RuntimeError):
    """A read failed for a non-failure reason (e.g. missing file)."""


class _PooledConn:
    """One pooled socket, its reply reader, and the node epoch/address it was created for."""

    __slots__ = ("sock", "epoch", "addr", "reader")

    def __init__(self, sock: socket.socket, epoch: int, addr: tuple[str, int]):
        self.sock = sock
        self.epoch = epoch
        self.addr = addr
        self.reader = FrameReader(sock)


class _ConnectionPool(threading.local):
    """Per-thread socket cache keyed by node id."""

    def __init__(self) -> None:
        self.conns: dict[NodeId, _PooledConn] = {}


class _Exchange:
    """One node's requests: encoded as one send's parts, drained by seq.

    ``replies`` maps seq → reply once drained; it stays None when the
    exchange failed, and ``span``'s status says how (``timeout`` or
    ``conn_error``).  ``conn`` is the socket the parts went out on and
    ``fresh`` whether it was opened for them.
    """

    conn: Optional[_PooledConn] = None
    fresh = True
    replies: Optional[dict] = None

    def __init__(self, node: NodeId, parts: list, n: int, span) -> None:
        self.node = node
        self.parts = parts
        self.n = n
        self.span = span


class FTCacheClient:
    """Fault-tolerant cache client over TCP."""

    def __init__(
        self,
        servers: dict,
        policy: FaultPolicy,
        pfs: PFSDir,
        ttl: float = 1.0,
        timeout_threshold: int = 3,
        tracer: Optional[Tracer] = None,
    ):
        """``servers`` maps node id → ``(host, port)``.

        ``tracer`` — when given — roots a distributed trace per top-level
        operation (subject to the tracer's sample rate) and injects its
        context into every RPC header, so servers continue the trace.
        Without one, tracing is off and costs nothing.
        """
        self.servers = dict(servers)
        self.policy = policy
        self.pfs = pfs
        self.detector = TimeoutFailureDetector(ttl=ttl, threshold=timeout_threshold)
        self.tracer = tracer if tracer is not None else Tracer(node="client", enabled=False)
        self.log = node_logger(__name__, getattr(self.tracer, "node", "client"))
        #: per thread, ``span``: the root span of the explicit-node operation in
        #: flight (see :meth:`trace_op`), its RPC spans' parent
        self._op_ctx = threading.local()
        self._pool = _ConnectionPool()
        #: every live pooled socket, across *all* threads — the pool is
        #: thread-local, so close() could otherwise never reach sockets
        #: owned by worker threads that have already exited
        self._live_socks: set = set()
        self._socks_lock = lockwitness.named_lock("client-socks")
        self._policy_lock = lockwitness.named_lock("client-policy")
        #: node → connection epoch; bumped on admit_node and on failure
        #: declaration so every thread's pool drops stale sockets lazily
        self._node_epoch: dict[NodeId, int] = {}
        self._epoch_lock = lockwitness.named_lock("client-epoch")
        self._counters = Counters(CLIENT_COUNTER_KEYS)

    @property
    def stats(self) -> dict:
        """Counter snapshot: every key of :data:`CLIENT_COUNTER_KEYS`."""
        return self._counters.snapshot()

    # -- public API --------------------------------------------------------------
    def read(self, path: str) -> bytes:
        """Read one file through the cache layer (blocking, thread-safe):
        ``read_many([path])[0]`` under a ``client.read`` trace.

        Returns bytes-like data: ``bytes``, or the ``bytearray`` a payload
        larger than the reader's window (68 KiB) was received into.
        """
        with self.tracer.start_trace("client.read", path=path) as span:
            return self._read_batch([path], span)[0]

    def read_many(self, paths: list[str]) -> list[bytes]:
        """Read a batch of files, bytes-like; order of results matches ``paths``.

        **Rounds.** Each round routes the pending keys once — one
        :meth:`FaultPolicy.candidates_for` call under one policy-lock
        acquisition — into each key's ordered candidates: one node, none
        (the PFS), or the surviving replicas, warm ones first.
        **Scatter–gather.** Every owner's READs go out — pipelined on its
        pooled socket, a ``seq`` each — before the round's PFS-routed keys
        are read in this thread, and only then are the owners drained:
        the servers work in parallel and the batch waits for the slowest
        of them, not their sum; replies, which a server may complete out
        of order, are matched by the echoed seq.  **Drain all before
        judging any**: every reply is off its socket before one is looked
        at, so a missing file's error leaves no pooled socket holding
        unread frames.  **Failover.** A failed owner is detector evidence
        (see the module docstring), and its keys go to their next
        candidate within the round (``failovers``); a key with no
        candidate left is re-routed in the next round, up to
        :data:`MAX_REROUTE_ROUNDS`.  **Write-through.** Keys a replica
        read from the PFS are pushed to their other live replica owners
        as one pipelined PUT batch per owner, drained before this returns.
        **Books** — served keys, their sources, and ``pipelined_reads``
        (keys whose READ shared a send with another READ) — are in
        before an error is raised.
        """
        with self.tracer.start_trace("client.read_many", batch=len(paths)) as span:
            return self._read_batch(paths, span)

    def write(self, path: str, data: bytes) -> None:
        """Write one file: durable to the PFS, write-through to the cache.

        The PFS is the source of truth, so the durable write can never be
        lost to a node failure; the cache install on the owning server is
        best-effort (a failed install is detector evidence exactly like a
        read, so sustained write traffic also detects dead nodes, but the
        write itself still succeeds — the next read misses to the PFS).
        """
        with self.trace_op("client.write", path=path) as span:
            with self.tracer.start_span("client.pfs_write", span, path=path):
                self.pfs.write(path, data)
            self._counters.bump(writes=1)
            with self._policy_lock:
                route = self.policy.candidates_for([path])[0]
            if not route:
                return
            node = route[0]
            msg = Message.request(OP_PUT, path=path)
            msg.payload = data
            resp = self._call(node, msg)
            if resp is None:
                self._strike(node)
            elif resp.ok:
                self.detector.record_success(node)
                self._counters.bump(cache_installs=1)
                span.set(node_id=node)

    def admit_node(self, node: NodeId, addr: tuple, weight: Optional[float] = None) -> None:
        """(Re-)admit a server: elastic scale-up / rejoin after repair.

        Updates the address book, bumps the node's connection epoch (every
        thread's pooled socket to the old instance is lazily discarded —
        a restarted node starts with a clean slate instead of its first
        request landing on a dead socket), clears the node's detector
        history, and re-adds it to the placement — keys that lived there
        before the failure flow back, and (for a rejoining node) its
        cache directory still holds them, so the rejoin is warm.

        ``weight`` is the node's relative capacity, honoured by
        capacity-aware placements (a weighted ring gives the node a
        ``weight/total_weight`` share) and ignored by the rest.
        """
        self.servers[node] = tuple(addr)
        get_event_log().emit("node_admitted", node=node, weight=weight)
        self.log.info("admitted node %s at %s", node, tuple(addr))
        self._bump_epoch(node)
        self._drop_conn(node)
        self.detector.reset(node)
        with self._policy_lock:
            self.policy.on_node_joined(node, weight=weight)

    def register_address(self, node: NodeId, addr: tuple) -> None:
        """Address-book-only registration: explicit-node RPCs (``ping``,
        ``transfer``, ``join_plan``, ``read_from``) can reach ``node``, but
        no placement learns of it — routing is untouched.  This is how the
        join coordinator talks to a node *before* cutover makes it an
        owner of anything.
        """
        self.servers[node] = tuple(addr)

    def read_from(self, node: NodeId, paths: list[str]) -> Optional[list]:
        """Explicit-node READs, pipelined on one socket: per path
        ``(data, source)``, data bytes-like, or None where the node answered
        with an error (a missing file); None for the whole batch on timeout/refusal.

        Bypasses placement entirely — the rebalance coordinator uses this
        to pull moved keys from their *current* owner regardless of what
        any policy would route.  Outcomes deliberately do not feed the
        failure detector: warmup traffic must not declare nodes.
        """
        replies = self._exchange(node, Message.request(OP_READ), [(p, b"") for p in paths])
        if replies is None:
            return None
        outcomes = [(r.payload, r.header["source"]) if r is not None and r.ok else None for r in replies]
        sources = [o[1] for o in outcomes if o is not None]
        self._counters.bump(server_cache_reads=sources.count("cache"), server_pfs_reads=sources.count("pfs"))
        return outcomes

    def transfer(self, node: NodeId, items: list[tuple[str, bytes]]) -> Optional[list]:
        """Push moved keys into ``node``'s cache: ``(path, data)`` items as
        pipelined TRANSFERs in one send, each payload its own iovec.

        Per item ``{"accepted": bool, "queue_len": int}`` from the node's
        reply, or None where it answered with an error; None for the whole
        batch on timeout/refusal.  A live node accepts every key (a
        duplicate of one it is installing is coalesced); ``queue_len`` is
        its claimed-but-unwritten installs, for the caller's throttle.
        Like :meth:`read_from`, never detector evidence.
        """
        replies = self._exchange(node, Message.request(OP_TRANSFER), items)
        if replies is None:
            return None
        out = [{"accepted": r.header["accepted"], "queue_len": r.header["queue_len"]}
               if r is not None and r.ok else None for r in replies]
        self._counters.bump(transfers_sent=len(out) - out.count(None))
        return out

    def join_plan(
        self, node: NodeId, planned_keys: int, planned_bytes: int, epoch: int
    ) -> bool:
        """Announce a move plan to the joining ``node``; True iff it
        acknowledged (doubles as the pre-warmup liveness check)."""
        resp = self._call(
            node,
            Message.request(
                OP_JOIN_PLAN,
                planned_keys=int(planned_keys),
                planned_bytes=int(planned_bytes),
                epoch=int(epoch),
            ),
        )
        if resp is None or not resp.ok:
            return False
        self._counters.bump(join_plans_sent=1)
        return True

    @contextmanager
    def trace_op(self, name: str, **attrs):
        """Root a trace around a block of explicit-node RPCs.

        The join coordinator wraps each warmup batch in one of these so the
        ``read_from`` + ``transfer`` pair (and their server-side stages)
        stitch into a single cross-node trace.  Nesting restores the
        previous active span on exit.
        """
        span = self.tracer.start_trace(name, **attrs)
        octx = self._op_ctx
        prev = getattr(octx, "span", None)
        octx.span = span
        try:
            yield span
        except Exception:
            span.end(status="error")
            raise
        finally:
            octx.span = prev
            span.end()

    def obs_snapshot(self, node: NodeId, spans_limit: int = 512,
                     events_limit: int = 512) -> Optional[dict]:
        """One node's observability export (``OP_OBS``): the unified
        telemetry snapshot plus its recent spans and events, or None on
        timeout/refusal.  Outcomes do not feed the failure detector —
        monitoring must not declare nodes."""
        resp = self._call(
            node,
            Message.request(OP_OBS, spans_limit=int(spans_limit),
                            events_limit=int(events_limit)),
        )
        if resp is None or not resp.ok:
            return None
        try:
            return json.loads(resp.payload.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError):
            return None

    def server_stat(self, node: NodeId) -> Optional[dict]:
        """STAT one server (None on timeout); for tests and monitoring."""
        resp = self._call(node, Message.request(OP_STAT))
        if resp is None or not resp.ok:
            return None
        return dict(resp.header)

    def ping(self, node: NodeId) -> bool:
        """Liveness probe: one PING round-trip against ``node``.

        Outcomes feed the failure detector exactly like a data request —
        a failed exchange counts toward the declaration threshold, an
        answer clears the node's strike history.  True only when the node
        answered with its *own* identity: a listener that replies as a
        different node (port reused by another instance after a crash)
        is not alive for our purposes.
        """
        resp = self._call(node, Message.request(OP_PING))
        if resp is None:
            self._strike(node)
            return False
        if not resp.ok:
            return False
        self.detector.record_success(node)
        return resp.header["node_id"] == node

    # -- the read loop -------------------------------------------------------------
    def _read_batch(self, paths: list[str], span) -> list:
        """:meth:`read_many`'s rounds under the root ``span``; each round
        sends its keys out in waves, a failed owner's keys making the next."""
        results: list = [None] * len(paths)
        pushes: dict[NodeId, list] = {}
        pending, keys = range(len(paths)), paths
        for _ in range(MAX_REROUTE_ROUNDS):
            with self.tracer.start_span("client.route", span):
                with self._policy_lock:
                    routes = self.policy.candidates_for(keys)
                groups: dict[NodeId, list] = {}  # first candidate → its (index, candidates) keys
                direct: list = []  # PFS-routed indices
                for key in zip(pending, routes):
                    route = key[1]
                    if not route:
                        direct.append(key[0])
                    elif route[0] in groups:
                        groups[route[0]].append(key)
                    else:
                        groups[route[0]] = [key]
            failed: set = set()
            pending = []
            while True:
                exchanges: list[_Exchange] = []
                try:  # every frame is encoded before any is sent: a key the codec refuses raises here
                    for node, batch in groups.items():
                        exchanges.append(self._prepare(node, Message.request(OP_READ),
                                                       [(paths[i], b"") for i, _ in batch], span))
                except ReadError:
                    for ex in exchanges:
                        ex.span.end(status="error")
                    raise
                for ex in exchanges:
                    self._scatter(ex)
                error: Optional[Exception] = None
                for i in direct:
                    try:
                        results[i] = self.pfs.read(paths[i])
                    except (OSError, ValueError) as exc:  # raised once the owners are drained
                        error = error or exc
                if direct:
                    self._counters.bump(pfs_direct_reads=sum(results[i] is not None for i in direct))
                for ex in exchanges:
                    self._gather(ex)
                lost: list = []
                cache = pfs = pipelined = 0
                for ex, batch in zip(exchanges, groups.values()):
                    if ex.replies is None:
                        failed.add(ex.node)
                        lost += batch
                        continue
                    self.detector.record_success(ex.node)
                    served = 0
                    for seq, (i, route) in enumerate(batch, start=1):
                        resp = ex.replies.get(seq)
                        if resp is None:  # a seq the node never answered
                            pending.append(i)
                        elif not resp.ok:
                            error = error or self._read_error(paths[i], resp)
                        else:
                            results[i] = resp.payload
                            served += 1
                            if resp.header["source"] == "cache":
                                cache += 1
                            else:
                                pfs += 1
                                for n in route:  # write-through to the other replicas
                                    if n != ex.node:
                                        pushes.setdefault(n, []).append((paths[i], resp.payload))
                    if len(batch) > 1:
                        pipelined += served
                    ex.span.end()
                self._counters.bump(server_cache_reads=cache, server_pfs_reads=pfs, pipelined_reads=pipelined)
                if lost:
                    for ex in exchanges:
                        if ex.replies is None:
                            self._strike(ex.node)
                if error is not None:
                    raise error
                if not lost:
                    break
                groups, direct = {}, []
                for i, route in lost:
                    node = next((n for n in route if n not in failed), None)
                    if node is None:
                        pending.append(i)
                    else:
                        groups.setdefault(node, []).append((i, route))
                if groups:  # every key of this wave goes to a candidate after a failed one
                    self._counters.bump(failovers=sum(map(len, groups.values())))
            if not pending:
                break
            keys = [paths[i] for i in pending]
        else:
            raise ReadError(f"could not read {paths[pending[0]]!r} after {MAX_REROUTE_ROUNDS} attempts")
        if pushes:
            self._push(pushes, span)
        return results

    def _push(self, pushes: dict, span) -> None:
        """Replica write-through: one pipelined PUT batch per replica owner
        the detector holds no strike against, drained here.  Never
        detector evidence."""
        detector = self.detector
        exchanges = [self._prepare(node, Message.request(OP_PUT), items, span)
                     for node, items in pushes.items()
                     if not detector.pending_count(node) and not detector.is_declared(node)]
        for ex in exchanges:
            self._scatter(ex)
        pushed = 0
        for ex in exchanges:
            if self._gather(ex) is not None:
                pushed += sum(resp.ok for resp in ex.replies.values())
                ex.span.end()
        self._counters.bump(replica_pushes=pushed)

    @staticmethod
    def _read_error(path: str, resp: Message) -> ReadError:
        """The :class:`ReadError` a READ's error reply stands for."""
        if resp.header.get("code") == "ENOENT":
            return ReadError(f"no such file: {path}")
        return ReadError(f"server error for {path!r}: {resp.header.get('reason')}")

    def _strike(self, node: NodeId) -> None:
        """One piece of detector evidence against ``node``; at the
        threshold the node is declared failed."""
        self._counters.bump(timeouts=1)
        if self.detector.record_timeout(node):
            self._counters.bump(declared=1)
            self._declare_failed(node)

    # -- the exchange ----------------------------------------------------------------
    def _call(self, node: NodeId, msg: Message) -> Optional[Message]:
        """``msg`` alone: its reply, or None when the exchange failed."""
        replies = self._exchange(node, msg, [(None, msg.payload)])
        return replies and replies[0]

    def _exchange(self, node: NodeId, msg: Message, items: list) -> Optional[list]:
        """``msg`` once per ``(path, payload)`` item, under the active op's
        span: the replies in item order (None for a seq never answered),
        or None when the exchange failed."""
        ex = self._prepare(node, msg, items, getattr(self._op_ctx, "span", None))
        self._scatter(ex)
        replies = self._gather(ex)
        if replies is None:
            return None
        ex.span.end()
        return [replies.get(seq) for seq in range(1, len(items) + 1)]

    def _prepare(self, node: NodeId, msg: Message, items: list, parent) -> _Exchange:
        """``msg`` once per ``(path, payload)`` item (a None path keeps
        ``msg``'s), seq 1…n, as one send's parts — each payload its own
        part, never concatenated, the frames between payloads joined into
        one — under a ``client.rpc_<op>`` child span of ``parent``.  A
        request the codec refuses (a key over 64 KiB) is the caller's
        mistake, raised as :class:`ReadError` before anything is sent."""
        span = self.tracer.start_span(f"client.rpc_{msg.op.lower()}", parent, node_id=node)
        if span.ctx is not None:
            inject(msg.header, span.ctx)
        frames, parts = [], []
        try:
            for seq, (path, payload) in enumerate(items, start=1):
                if path is not None:
                    msg.header["path"] = path
                msg.payload = payload
                frames.append(encode_binary_request(msg, seq))
                if payload:
                    parts += (b"".join(frames), payload)
                    frames.clear()
        except ProtocolError as exc:
            span.end(status="error")
            raise ReadError(f"cannot send {msg.op}: {exc}") from None
        return _Exchange(node, [*parts, b"".join(frames)], len(items), span)

    def _scatter(self, ex: _Exchange) -> None:
        """Send half: ``ex``'s parts in one send on this thread's socket to its node."""
        ex.fresh = True
        try:
            ex.conn, ex.fresh = self._checkout(ex.node)
            send_vectored(ex.conn.sock, *ex.parts)
        except OSError as exc:
            self._failed(ex, exc)

    def _gather(self, ex: _Exchange) -> Optional[dict]:
        """Drain half: ``ex``'s replies by seq, none judged; None once the
        exchange failed.  A drained exchange's span is left for the caller
        to end once the replies are judged."""
        while ex.conn is not None:
            replies = {}
            recv = ex.conn.reader.recv
            try:
                for _ in range(ex.n):
                    resp = recv()
                    replies[resp.seq] = resp
            except (OSError, ProtocolError) as exc:  # a desynced reader may hold half a frame
                self._failed(ex, exc)
            else:
                ex.replies = replies
                break
        return ex.replies

    def _failed(self, ex: _Exchange, exc: Exception) -> None:
        """Retire ``ex``'s socket (it may hold half a frame).  A reset or
        EOF on a pooled socket resends once on a fresh one; anything else
        ends the exchange."""
        self._drop_conn(ex.node)
        ex.conn = None
        if isinstance(exc, TimeoutError):
            ex.span.end(status="timeout")
        elif ex.fresh:
            ex.span.end(status="conn_error")
        else:
            self._counters.bump(reconnects=1)
            self._scatter(ex)

    # -- internals -----------------------------------------------------------------
    def _addr(self, node: NodeId) -> tuple[str, int]:
        try:
            return self.servers[node]
        except KeyError:
            raise ReadError(f"unknown server node {node!r}") from None

    def _epoch(self, node: NodeId) -> int:
        with self._epoch_lock:
            return self._node_epoch.get(node, 0)

    def _bump_epoch(self, node: NodeId) -> None:
        with self._epoch_lock:
            self._node_epoch[node] = self._node_epoch.get(node, 0) + 1

    def _declare_failed(self, node: NodeId) -> None:
        """Detector reached threshold: retire the node's sockets everywhere
        and let the fault policy react (NoFT raises out of here)."""
        get_event_log().emit("death_declared", node=node)
        self.log.warning("declared node %s failed", node)
        self._bump_epoch(node)
        self._drop_conn(node)
        with self._policy_lock:
            self.policy.on_node_failed(node)

    def _checkout(self, node: NodeId) -> tuple[_PooledConn, bool]:
        """This thread's connection to ``node`` plus whether it is fresh.

        A pooled socket from an older epoch (node restarted/redeclared) or
        a changed address is discarded, never reused.
        """
        addr = self._addr(node)
        epoch = self._epoch(node)
        pooled = self._pool.conns.get(node)
        if pooled is not None:
            if pooled.epoch == epoch and pooled.addr == addr:
                return pooled, False
            self._pool.conns.pop(node, None)
            self._discard_sock(pooled.sock)
        sock = socket.create_connection(addr, timeout=self.detector.ttl)
        sock.settimeout(self.detector.ttl)
        set_nodelay(sock)
        with self._socks_lock:
            self._live_socks.add(sock)
        pooled = self._pool.conns[node] = _PooledConn(sock, epoch, addr)
        return pooled, True

    def _discard_sock(self, sock: socket.socket) -> None:
        with self._socks_lock:
            self._live_socks.discard(sock)
        try:
            sock.close()
        except OSError:  # pragma: no cover
            pass

    def _drop_conn(self, node: NodeId) -> None:
        pooled = self._pool.conns.pop(node, None)
        if pooled is not None:
            self._discard_sock(pooled.sock)

    def close(self) -> None:
        """Close every pooled socket this client ever opened, including
        those pooled by worker threads that are long gone."""
        self._pool.conns.clear()
        with self._socks_lock:
            socks = list(self._live_socks)
        for sock in socks:
            self._discard_sock(sock)
