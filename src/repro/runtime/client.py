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

Detector evidence rules (what counts toward declaration):

* a **socket timeout** on any connection — the node accepted bytes and
  went silent; that is exactly the hang the TTL exists to catch;
* a **refused/reset on a fresh connection** — nothing is listening;
* a reset/EOF on a **pooled, previously-idle** connection is *not*
  evidence by itself: a server restart (or idle-connection reap) kills
  established sockets without the node being unhealthy *now*.  The
  client transparently reconnects and retries once; only the fresh
  attempt's outcome feeds the detector;
* a failed ``read_many`` batch (scatter–gather: every owner's READs are
  sent before any reply is read) is never evidence by itself: that
  owner's socket is retired, its keys are re-read one by one, and *those*
  attempts feed the detector by the rules above;
* a request the codec refuses (a key over 64 KiB) is never evidence: it
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
from ..core.replication import ReplicatedRecache
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
    recv_message,
    send_binary_request,
    send_vectored,
    set_nodelay,
)
from .storage import PFSDir

__all__ = ["FTCacheClient", "ReadError", "CLIENT_COUNTER_KEYS"]

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


class _OpContext(threading.local):
    """Per-thread state of the top-level operation in flight.

    ``span`` is the active root span (RPC spans parent to it and inject
    its trace context on the wire); ``node_id`` is the node that finally
    served the request, recorded on the root span.
    """

    def __init__(self) -> None:
        self.span = None
        self.node_id: Optional[NodeId] = None


class FTCacheClient:
    """Fault-tolerant cache client over TCP."""

    def __init__(
        self,
        servers: dict,
        policy: FaultPolicy,
        pfs: PFSDir,
        ttl: float = 1.0,
        timeout_threshold: int = 3,
        max_reroute_rounds: int = 32,
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
        self.max_reroute_rounds = max_reroute_rounds
        self.tracer = tracer if tracer is not None else Tracer(node="client", enabled=False)
        self.log = node_logger(__name__, getattr(self.tracer, "node", "client"))
        self._op_ctx = _OpContext()
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
        """Read one file through the cache layer (blocking, thread-safe).

        Returns bytes-like data: ``bytes``, or the ``bytearray`` a payload
        larger than the reader's window (68 KiB) was received into.
        Under a :class:`~repro.core.replication.ReplicatedRecache` policy a
        timed-out primary fails over to the next surviving replica *within
        the same read* (the detector still counts the timeout toward
        declaration), and any bytes that had to come from the PFS are
        pushed to the remaining replicas in the background.
        """
        octx = self._op_ctx
        octx.node_id = None
        span = self.tracer.start_trace("client.read", path=path)
        octx.span = span
        try:
            data, source = self._read_routed(path)
        except Exception:
            octx.span = None
            span.end(status="error")
            raise
        octx.span = None
        span.set(source=source, node_id=octx.node_id).end()
        return data

    def _read_routed(self, path: str) -> tuple[bytes, str]:
        for _ in range(self.max_reroute_rounds):
            with self.tracer.start_span("client.route", self._op_ctx.span):
                candidates = self._candidates(path)
            if candidates is None:  # policy says PFS
                self._counters.bump(pfs_direct_reads=1)
                return self.pfs.read(path), "pfs_direct"
            for i, node in enumerate(candidates):
                if i > 0:
                    self._counters.bump(failovers=1)
                outcome = self._rpc_read(node, path)
                if outcome is not None:
                    data, source = outcome
                    if source == "pfs":
                        self._push_replicas(path, data, served_by=node)
                    return data, source
                # timeout / refused: feed the detector and maybe declare.
                self._counters.bump(timeouts=1)
                if self.detector.record_timeout(node):
                    self._counters.bump(declared=1)
                    self._declare_failed(node)
        raise ReadError(f"could not read {path!r} after {self.max_reroute_rounds} attempts")

    def write(self, path: str, data: bytes) -> None:
        """Write one file: durable to the PFS, write-through to the cache.

        The PFS is the source of truth, so the durable write can never be
        lost to a node failure; the cache install on the owning server is
        best-effort (a timeout feeds the failure detector exactly like a
        read, so sustained write traffic also detects dead nodes, but the
        write itself still succeeds — the next read misses to the PFS).
        """
        octx = self._op_ctx
        octx.node_id = None
        span = self.tracer.start_trace("client.write", path=path)
        octx.span = span
        try:
            with self.tracer.start_span("client.pfs_write", span, path=path):
                self.pfs.write(path, data)
            self._counters.bump(writes=1)
            self._install_in_cache(path, data)
        except Exception:
            octx.span = None
            span.end(status="error")
            raise
        octx.span = None
        span.set(node_id=octx.node_id).end()

    def _install_in_cache(self, path: str, data: bytes) -> None:
        """Best-effort synchronous OP_PUT of fresh bytes to the owner node."""
        candidates = self._candidates(path)
        if not candidates:
            return
        node = candidates[0]
        msg = Message.request(OP_PUT, path=path)
        msg.payload = data
        resp = self._rpc(node, msg)
        if resp is None:
            self._counters.bump(timeouts=1)
            if self.detector.record_timeout(node):
                self._counters.bump(declared=1)
                self._declare_failed(node)
            return
        if resp.ok:
            self.detector.record_success(node)
            self._counters.bump(cache_installs=1)

    def _candidates(self, path: str) -> Optional[list]:
        """Ordered server targets for this read, or None for direct PFS."""
        with self._policy_lock:
            if isinstance(self.policy, ReplicatedRecache):
                return self.policy.read_candidates(path)
            target = self.policy.target_for(path)
        if target.kind == "pfs":
            return None
        return [target.node]

    def _push_replicas(self, path: str, data: bytes, served_by) -> None:
        """Background write-through of a PFS-sourced read to the other replicas."""
        if not isinstance(self.policy, ReplicatedRecache) or self.policy.replicas < 2:
            return
        with self._policy_lock:
            targets = [
                n
                for n in set(self.policy.replica_targets(path))
                if n != served_by and n not in self.policy.failed_nodes
            ]
        if not targets:
            return

        def _push() -> None:
            for node in targets:
                try:
                    with socket.create_connection(self._addr(node), timeout=self.detector.ttl) as sock:
                        sock.settimeout(self.detector.ttl)
                        set_nodelay(sock)
                        msg = Message.request(OP_PUT, path=path)
                        msg.payload = data
                        send_binary_request(sock, msg)
                        resp = recv_message(sock)
                        if resp.ok:
                            self._counters.bump(replica_pushes=1)
                except OSError:
                    continue

        threading.Thread(target=_push, name="replica-push", daemon=True).start()

    def read_many(self, paths: list[str]) -> list[bytes]:
        """Read a batch of files, bytes-like; order of results matches ``paths``.

        **Scatter–gather**: every owner's READs go out — pipelined on its
        pooled socket, a ``seq`` each — before the first reply is read, so
        the owners work in parallel and the batch waits for the slowest of
        them, not their sum; replies, which a server may complete out of
        order, are matched by the echoed seq.  **Drain all before judging
        any** spans owners: every reply is off its socket before one is
        looked at, so a missing file's :class:`ReadError` leaves no pooled
        socket holding unread frames.  **Fallback is per owner**: a socket
        error or timeout in one owner's send or drain retires that socket
        (a half-drained pipeline is never reused) and sends only that
        owner's keys down the sequential :meth:`read` path with its full
        detection/re-route semantics — where PFS-direct routes and
        replicated reads go from the start.  **Once per batch**: the whole
        batch is routed in one :meth:`FaultPolicy.targets_for` call under
        one policy-lock acquisition, and booked in one counter bump plus one
        detector success per owner that answered — the books of every
        pipelined reply are in before a missing file's error is raised.
        """
        if len(paths) < 2 or isinstance(self.policy, ReplicatedRecache):
            return [self.read(p) for p in paths]
        with self._policy_lock:
            targets = self.policy.targets_for(paths)
        groups: dict[NodeId, list[tuple[int, str]]] = {}
        for i, (path, target) in enumerate(zip(paths, targets)):
            if target.kind == "node":
                groups.setdefault(target.node, []).append((i, path))
        results: dict[int, bytes] = {}
        sources = {"cache": 0, "pfs": 0}
        error: Optional[ReadError] = None
        with self.tracer.start_trace("client.read_many", owners=len(groups), batch=len(paths)) as span:
            # every frame is encoded before any is sent: a key the codec refuses raises here
            frames = {node: self._encode_batch(OP_READ, [(p, b"") for _, p in batch], span)
                      for node, batch in groups.items()}
            sent = [(node, batch, self._send_batch(node, frames[node])) for node, batch in groups.items()]
            drained = [(node, batch, conn and self._drain_batch(node, conn, len(batch)))
                       for node, batch, conn in sent]
            for node, batch, replies in drained:
                if not replies:
                    continue  # socket retired: this owner's keys go the sequential way
                self.detector.record_success(node)
                for seq, (i, path) in enumerate(batch, start=1):
                    if seq in replies:
                        try:
                            results[i], source = self._verdict(path, replies[seq])
                        except ReadError as exc:
                            error = error or exc
                        else:
                            sources[source] += 1
            self._counters.bump(server_cache_reads=sources["cache"], server_pfs_reads=sources["pfs"],
                                pipelined_reads=len(results))
            if error is not None:
                raise error
        # the rest (PFS routes, retired owners, unmatched seqs): sequential path
        return [results[i] if i in results else self.read(p) for i, p in enumerate(paths)]

    def _encode_batch(self, op: str, items: list[tuple[str, bytes]], span) -> list:
        """``op`` requests for ``(path, payload)`` items, seq 1…n, as one
        send's parts: each payload its own part, never concatenated, and
        the frames between payloads joined into one."""
        msg = Message.request(op)
        if span.ctx is not None:
            inject(msg.header, span.ctx)
        frames, parts = [], []
        for seq, (path, payload) in enumerate(items, start=1):
            msg.header["path"] = path
            msg.payload = payload
            frames.append(self._encode(msg, seq))
            if payload:
                parts += (b"".join(frames), payload)
                frames.clear()
        return [*parts, b"".join(frames)]

    def _send_batch(self, node: NodeId, parts: list) -> Optional[_PooledConn]:
        """Scatter half: one node's encoded requests in one send; None — socket retired — if it fails."""
        try:
            conn, _ = self._checkout(node)
            send_vectored(conn.sock, *parts)
            return conn
        except (OSError, ReadError):  # an unknown node's ReadError the sequential path re-raises
            self._drop_conn(node)
            return None

    def _drain_batch(self, node: NodeId, conn: _PooledConn, n: int) -> Optional[dict]:
        """Gather half: ``n`` replies off ``conn`` by seq, none judged; None — socket retired — on failure."""
        try:
            return {resp.seq: resp for resp in (conn.reader.recv() for _ in range(n))}
        except (OSError, ProtocolError):  # timeout, EOF, reset, desync
            self._drop_conn(node)
            return None

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
        replies = self._pipeline(node, OP_READ, [(p, b"") for p in paths])
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
        replies = self._pipeline(node, OP_TRANSFER, items)
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
        resp = self._rpc(
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
        prev = octx.span
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
        resp = self._rpc(
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
        try:
            resp = self._rpc(node, Message.request(OP_STAT))
        except OSError:  # pragma: no cover - unexpected transport error
            return None
        if resp is None or not resp.ok:
            return None
        return dict(resp.header)

    def ping(self, node: NodeId) -> bool:
        """Liveness probe: one PING round-trip against ``node``.

        Outcomes feed the failure detector exactly like a data request —
        a timeout counts toward the declaration threshold, an answer
        clears the node's strike history.  True only when the node
        answered with its *own* identity: a listener that replies as a
        different node (port reused by another instance after a crash)
        is not alive for our purposes.
        """
        resp = self._rpc(node, Message.request(OP_PING))
        if resp is None:
            self._counters.bump(timeouts=1)
            if self.detector.record_timeout(node):
                self._counters.bump(declared=1)
                self._declare_failed(node)
            return False
        if not resp.ok:
            return False
        self.detector.record_success(node)
        return resp.header["node_id"] == node

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

    def _rpc(self, node: NodeId, msg: Message) -> Optional[Message]:
        """One request/response against ``node``; None means *detector
        evidence* (timeout, or connection failure on a fresh socket).

        A reset/EOF on a pooled socket gets one transparent
        reconnect-and-retry first — a restarted server kills established
        connections without being unhealthy now, so only the fresh
        attempt's outcome may count against the node.
        """
        octx = self._op_ctx
        span = self.tracer.start_span(
            f"client.rpc_{(msg.op or 'op').lower()}", octx.span, node_id=node
        )
        if span.ctx is not None:
            inject(msg.header, span.ctx)
        try:
            frame = self._encode(msg)
        except ReadError:
            span.end(status="error")
            raise
        for _ in range(2):
            fresh = True
            try:
                conn, fresh = self._checkout(node)
                send_vectored(conn.sock, frame, msg.payload)
                resp = conn.reader.recv()
                octx.node_id = node
                span.end()
                return resp
            except (socket.timeout, TimeoutError):
                # The node accepted the connection and went silent: the
                # very hang the TTL exists to catch.  Always evidence.
                self._drop_conn(node)
                span.end(status="timeout")
                return None
            except (OSError, ProtocolError):  # a desynced reader may hold half a frame
                self._drop_conn(node)
                if fresh:
                    # Nothing listening / reset on a brand-new socket.
                    span.end(status="conn_error")
                    return None
                self._counters.bump(reconnects=1)  # stale pooled socket: retry once
        span.end(status="error")
        return None  # pragma: no cover - loop always returns

    def _rpc_read(self, node: NodeId, path: str) -> Optional[tuple[bytes, str]]:
        """One READ attempt: ``(data, source)``, or None on timeout/refusal."""
        resp = self._rpc(node, Message.request(OP_READ, path=path))
        if resp is None:
            return None
        data, source = self._verdict(path, resp)
        self.detector.record_success(node)
        if source == "pfs":
            self._counters.bump(server_pfs_reads=1)
        else:
            self._counters.bump(server_cache_reads=1)
        return data, source

    def _pipeline(self, node: NodeId, op: str, items: list[tuple[str, bytes]]) -> Optional[list]:
        """``op`` requests for ``(path, payload)`` items, seq 1…n in one
        send, drained by seq under one child span of the active op: the
        replies in item order (None for a seq never answered), or None when
        the socket failed and was retired.  Never detector evidence."""
        span = self.tracer.start_span(f"client.rpc_{op.lower()}", self._op_ctx.span,
                                      node_id=node, batch=len(items))
        try:
            parts = self._encode_batch(op, items, span)
        except ReadError:
            span.end(status="error")
            raise
        conn = self._send_batch(node, parts)
        replies = conn and self._drain_batch(node, conn, len(items))
        span.end(status="error" if replies is None else None)
        return None if replies is None else [replies.get(seq) for seq in range(1, len(items) + 1)]

    @staticmethod
    def _encode(msg: Message, seq: int = 0) -> bytes:
        """``msg``'s request frame.  A request the codec refuses (a key over
        64 KiB) is the caller's mistake, raised as :class:`ReadError`: it
        is no detector evidence and retires no socket."""
        try:
            return encode_binary_request(msg, seq)
        except ProtocolError as exc:
            raise ReadError(f"cannot send {msg.op}: {exc}") from None

    @staticmethod
    def _verdict(path: str, resp: Message) -> tuple[bytes, str]:
        """One READ reply's ``(data, source)`` — ``source`` is ``cache`` or
        ``pfs`` — or the :class:`ReadError` its error reply stands for."""
        if not resp.ok:
            if resp.header.get("code") == "ENOENT":
                raise ReadError(f"no such file: {path}")
            raise ReadError(f"server error for {path!r}: {resp.header.get('reason')}")
        return resp.payload, resp.header["source"]

    def close(self) -> None:
        """Close every pooled socket this client ever opened, including
        those pooled by worker threads that are long gone."""
        self._pool.conns.clear()
        with self._socks_lock:
            socks, self._live_socks = list(self._live_socks), set()
        for sock in socks:
            try:
                sock.close()
            except OSError:  # pragma: no cover
                pass
