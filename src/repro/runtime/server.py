"""Event-loop FT-Cache server: one per (simulated) node, real sockets.

Serves the same protocol as the paper's HVAC server daemon: a READ either
hits the node-local cache directory or falls through to the shared PFS
directory, serves the bytes, and then recaches them — the Sec IV-B
retrieve → serve → cache sequence, now with actual files over an asyncio
data plane.

The core is **one event loop per server** and **one
``asyncio.BufferedProtocol`` per connection** (:class:`_Conn`), not a
thread or a reader coroutine per socket.  Each connection receives into
one fixed window (``protocol.RecvWindow``, the client's ``FrameReader``
drives the same one): the kernel writes straight into it, and every
complete frame is decoded in place (``protocol.parse_frame``; every
length bound is checked the moment a fixed header is in), so a request
costs no receive buffer of its own — asyncio's plain ``Protocol`` would
allocate 256 KiB per read, above glibc's mmap threshold.  A pipelined
``read_many`` batch costs one ``recv`` and one loop turn, and is booked
once: the turn decodes the frames, opens each READ's cache entry
(``NVMeDir.open_read``), books them all in one counter bump, and only then
replies.  A hit is answered **in that same turn, with no task and no
await**: a header of one ``struct`` pack, corked (``MSG_MORE``) onto one
non-blocking ``os.sendfile`` from the entry's NVMe slot: one segment.  A
miss, decoded once, goes to a job.  Whatever the socket did not take
(large entries, slow readers) is finished by ``loop.sendfile`` from the
offset reached, so payload
bytes never enter Python at any entry size.  Anything that may block
(a miss, PUT, TRANSFER, STAT/OBS/PING/JOIN_PLAN) becomes one job on the
small bounded dispatch executor, which **sends its own reply**: it
claims the connection's write token and hands header and payload to
the kernel in one ``sendmsg`` from the dispatch thread — or, for a READ
whose entry was installed since decode, the hit's corked ``sendfile`` —
and wakes the loop only for what the socket did not take, a reply that
found the token taken, or a loop waiting on the pipeline.  Every
request carries a ``seq`` correlation id and completes out of order,
control ops included; ``_PIPELINE_DEPTH`` requests in flight pause reading.
:class:`_Conn` states the two rules every reply path keeps: *write
ordering* and *books before reply*.

The data mover is **the dispatch thread that served the miss**, not a
pool of its own: a READ miss or a TRANSFER *claims* its install before
its reply is sent (a key claimed and not yet written is coalesced) and
*installs* it on the same thread right after — the paper's serve → cache
order, with the claim on the books before the reply.  Installs in flight
are bounded by the dispatch threads; no thread, queue or buffer is added
per miss, and nothing is shed.

Failure injection mirrors a drained node: :meth:`FTCacheServer.kill` with
``mode="hang"`` keeps the port open but never answers (clients see socket
timeouts, exactly the paper's detection path); ``mode="drop"`` closes the
listener outright (connection refused).
"""

from __future__ import annotations

import asyncio
import json
import os
import socket
import threading
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from functools import partial
from typing import Optional

from ..analysis import lockwitness
from ..obs import Counters, Telemetry, Tracer, extract, get_event_log, node_logger
from ..obs.context import TraceContext
from .protocol import (
    BIN_OPS,
    OP_READ,
    Message,
    ProtocolError,
    RecvWindow,
    encode_binary_response_header,
    set_nodelay,
)
from .storage import NVMeDir, PFSDir

__all__ = ["FTCacheServer"]

#: max dispatch jobs + reply tasks in flight per connection before it stops
#: decoding frames and pauses reading (pipelining backpressure, not an error)
_PIPELINE_DEPTH = 64

#: the reply header of every cache hit is encoded from this one message
_HIT_REPLY = Message.ok_response(source="cache")
#: ops whose cached keys are answered within the loop turn (the table's ``inline`` rows)
_INLINE_OPS = frozenset(op.name for op in BIN_OPS.values() if op.inline)

#: every monotone per-server counter: the keys of ``FTCacheServer.stats``,
#: reported by STAT, OBS and every cluster aggregate
STAT_COUNTER_KEYS = (
    "hits",
    "misses",
    "pfs_reads",
    "recached",
    "errors",
    #: recache accounting (see FTCacheServer._claim): installs claimed,
    #: duplicates of a claimed key, installs the device refused
    "mover_enqueued",
    "mover_coalesced",
    "mover_dropped",
    #: elastic-join warmup accounting (repro.rebalance): plans announced
    #: to this node, transfer requests it accepted, and their bytes
    "join_plans",
    "transfers_in",
    "transfer_bytes",
    #: requests decoded, and cache hits served kernel-side via sendfile
    "binary_reqs",
    "sendfile_serves",
)


class _WriteLock:
    """One connection's write side: an ownership token any thread may claim
    without blocking, and the dup'd socket it guards.

    ``try_acquire`` is one C-level ``threading.Lock.acquire(False)``: the
    one-turn hit on the loop and a job replying from its dispatch thread
    claim the token so.  Loop tasks :meth:`acquire` it in FIFO order;
    :meth:`release`, from any thread, hands it to the oldest waiter
    through one loop callback — it never reads free in between — so a hit
    cannot overtake a reply already queued.  The token moves between
    threads (a job claims it, the task finishing its reply releases it),
    so it is a plain lock, not a witnessed ``named_lock``: the witness
    keeps a per-thread stack of held locks.

    The socket is closed only by a holder of the token, once the
    connection is retired (:meth:`retire`), and the token is then never
    freed: a sender's descriptor number is never closed under it, where
    the next ``accept`` could reuse it and take the reply.
    """

    def __init__(self, loop: asyncio.AbstractEventLoop, sock: socket.socket):
        self._lock = threading.Lock()
        self._loop, self._sock = loop, sock
        self._waiters: deque = deque()
        self._retired = False
        self.try_acquire = partial(self._lock.acquire, False)

    async def acquire(self) -> None:
        """On the loop: wait for the token, behind every earlier waiter."""
        if self.try_acquire():
            return
        fut = self._loop.create_future()
        self._waiters.append(fut)
        if self.try_acquire():  # freed before we queued: no releaser saw us
            self._hand_off()
        try:
            await fut
        except asyncio.CancelledError:
            if fut.done() and not fut.cancelled():
                self.release()  # ownership had already been handed to us
            raise

    def release(self) -> None:
        """From any thread: free the token, or hand it to the oldest waiter."""
        if not (self._waiters or self._retired):
            self._lock.release()
            # check after set: a waiter queued, or the connection retired, while we held it
            if not (self._waiters or self._retired) or not self.try_acquire():
                return
        if self._retired:
            return self._sock.close()
        try:
            self._loop.call_soon_threadsafe(self._hand_off)
        except RuntimeError:  # loop closed: no waiter is left, and nothing sends here again
            self._sock.close()

    def _hand_off(self) -> None:  # on the loop, the token held
        while self._waiters:
            fut = self._waiters.popleft()
            if not fut.done():
                return fut.set_result(None)
        self.release()

    def retire(self) -> None:
        """On the loop, once the connection is lost: close the socket now if
        the token is free, else when its holder releases it."""
        self._retired = True
        if self.try_acquire():
            self._sock.close()


class _Conn(asyncio.BufferedProtocol):
    """One client connection: frame decoding, the one-turn hit, dispatch jobs.

    The transport receives into ``window``: :meth:`get_buffer` hands it
    the window's free tail (or the rest of a payload larger than the
    window), and :meth:`buffer_updated` decodes once the frame at the
    window's front can be judged.  Every message decoded owns its bytes,
    so a job never holds a view into the window the next read overwrites.
    Decoding, tasks and the pipeline's state live on the loop; a job
    replies from its dispatch thread and leaves the pipeline there
    (``jobs``, under ``jobs_lock``).  Two rules hold on every reply path,
    on either thread:

    * **write ordering** — whoever writes holds ``wlock``.  A sender on
      the loop (a hit) or on a dispatch thread (a job's reply) claims it
      without blocking and sends on ``sock`` directly only while the
      transport's write buffer is empty and writing is not paused — a
      direct send must not overtake buffered bytes.  What the socket did
      not take, and a reply that found the token taken, is finished by one
      loop task, :meth:`_send_tail`, which releases the token only after
      its write.
    * **books before reply** — counters are bumped, the latency observed,
      the request's spans ended and its install claimed *before* the call
      that hands the reply's last bytes to the kernel, on whichever thread
      makes it, so a client holding a reply never reads server-side books
      that are behind it.
    """

    def __init__(self, server: "FTCacheServer"):
        self.server = server
        self.transport: Optional[asyncio.Transport] = None
        self.sock: Optional[socket.socket] = None  # the transport's, dup'd; closed by ``wlock``
        self.wlock: Optional[_WriteLock] = None
        self.window = RecvWindow(requests_only=True)
        self.tasks: set[asyncio.Task] = set()
        self.jobs = 0  # dispatched, reply neither sent nor handed to a task
        self.jobs_lock = lockwitness.named_lock("server-conn-jobs")
        #: read by dispatch threads: set before the loop re-checks ``jobs``
        self.paused = self.eof = False
        #: pending while the transport is above its write high-water mark
        self.drain: Optional[asyncio.Future] = None

    # -- transport callbacks -----------------------------------------------------------
    def connection_made(self, transport) -> None:
        self.transport = transport
        sock = transport.get_extra_info("socket")
        set_nodelay(sock)
        self.sock = sock.dup()
        self.wlock = _WriteLock(self.server._loop, self.sock)
        self.server._conns.add(self)

    def connection_lost(self, exc) -> None:
        self.wlock.retire()
        self.server._conns.discard(self)
        for task in self.tasks:
            task.cancel()  # no reply can be delivered: leave no task behind

    def sever(self) -> None:
        """Abort the connection once its tasks have unwound: asyncio cannot
        abort a transport under a ``loop.sendfile`` in flight (it resolves
        the sendfile's waiter a second time), so cancel now, abort a callback
        later."""
        for task in self.tasks:
            task.cancel()
        self.server._loop.call_soon(self.transport.abort)

    def pause_writing(self) -> None:
        self.drain = self.server._loop.create_future()

    def resume_writing(self) -> None:
        if not self.drain.done():  # a cancelled waiter cancels the future it awaits
            self.drain.set_result(None)
        self.drain = None

    def eof_received(self) -> bool:
        self.eof = True
        return bool(self.jobs + len(self.tasks))  # keep the write side open for replies still owed

    def get_buffer(self, sizehint: int) -> memoryview:
        return self.window.get_buffer()

    def buffer_updated(self, nbytes: int) -> None:
        if self.window.buffer_updated(nbytes):
            self._parse()

    # -- decode + one-turn hit ---------------------------------------------------------
    def _parse(self) -> None:
        """Serve every complete frame in the window, up to the pipeline depth:
        in rounds of as many frames as the pipeline has room for, each round
        booked in one counter bump before its first reply."""
        srv, window, transport = self.server, self.window, self.transport
        if srv.dropped.is_set():
            return self.sever()  # hard failure: the connection dies mid-conversation
        if srv.hung.is_set():
            # Drained node: swallow requests until shutdown; the client's TTL
            # is the only way it learns anything (Sec IV-A).
            window.clear()
            return
        error = None
        full = incomplete = False
        while window.lo < window.hi and not (error or incomplete or transport.is_closing()):
            room = _PIPELINE_DEPTH - self.jobs - len(self.tasks)
            if room <= 0:
                full = True
                break
            frames = []
            hits = 0
            try:
                while len(frames) < room:
                    msg = window.next()
                    if msg is None:
                        incomplete = True
                        break
                    path = msg.header["path"] if msg.op in _INLINE_OPS else ""
                    t0 = time.perf_counter()
                    entry = srv.nvme.open_read(path) if path else None
                    hits += entry is not None
                    frames.append((msg, entry, t0))
            except ProtocolError as exc:
                error = exc  # the frames before it are still answered
            srv.stats.bump(binary_reqs=len(frames), hits=hits, sendfile_serves=hits)
            # Replies complete out of order, matched by seq.
            for msg, entry, t0 in frames:
                if transport.is_closing():  # a hit's peer went away mid-reply
                    if entry is not None:
                        entry[0].close()
                elif entry is not None:
                    rest = self._send(self._hit_head(msg, entry[1], t0), b"", entry[0])
                    if rest:
                        self._tail(*rest)
                else:  # a miss, a READ without a path, or not inline
                    ctx = extract(msg.header)
                    qspan = srv.tracer.start_span("server.exec_queue", ctx)
                    with self.jobs_lock:
                        self.jobs += 1
                    srv._executor.submit(self._job, msg, ctx, qspan)
        if error is not None:
            srv.stats.bump(errors=1)
            srv.log.warning("protocol error from %s: %s", transport.get_extra_info("peername"), error)
            window.clear()
            return self.sever()
        if full:  # frames wait for room: read no more until a job or a task leaves
            self.paused = True
            transport.pause_reading()
            if self.jobs + len(self.tasks) < _PIPELINE_DEPTH:  # one left before it saw the pause
                srv._loop.call_soon(self._done)
        elif self.paused:
            transport.resume_reading()
            self.paused = False

    def _hit_head(self, msg: Message, size: int, t0: float) -> bytes:
        """The reply header of a booked READ hit, on the loop or a dispatch
        thread, its latency observed and span ended; its open entry pins
        its slot, so an eviction after ``open_read`` is harmless."""
        srv = self.server
        span = srv.tracer.start_span(
            "server.read", extract(msg.header), path=msg.header["path"], mode="sendfile", nbytes=size
        )
        head = encode_binary_response_header(OP_READ, _HIT_REPLY, seq=msg.seq, payload_len=size)
        srv.telemetry.observe("op_read_s", time.perf_counter() - t0)
        span.end()
        return head

    def _send(self, head: bytes, payload, entry):
        """The one reply rule, on the loop or a dispatch thread: claim the
        write token and hand the reply to the kernel on ``sock`` — ``head``
        and ``payload`` in one ``sendmsg``, or ``head`` corked onto an
        ``os.sendfile`` of the open ``entry``.  Returns None once the reply
        is sent (or its peer is gone), else what :meth:`_send_tail` must
        finish: ``(head, payload, entry, bytes sent, token held)``."""
        transport = self.transport
        if transport.is_closing():  # the peer went first
            if entry is not None:
                entry.close()
            return None
        size = len(payload) if entry is None else entry.size
        sent, owned = 0, self.wlock.try_acquire()
        if owned and self.drain is None and not transport.get_write_buffer_size():
            sock = self.sock
            try:
                if entry is None:
                    sent = sock.sendmsg((head, payload))
                else:
                    # corked onto the payload; an empty entry's header is not: nothing would flush it
                    sent = sock.send(head, socket.MSG_MORE if size else 0)
                    if sent == len(head):
                        sent += os.sendfile(sock.fileno(), entry.fileno(), entry.offset, size)
            except OSError:
                pass  # what is left goes to the tail, whose transport meets a dead peer
            if sent == len(head) + size:
                self.wlock.release()
                if entry is not None:
                    entry.close()
                return None
        return head, payload, entry, sent, owned

    def _tail(self, head: bytes, payload, entry, sent: int, owned: bool) -> None:
        """On the loop: finish a reply :meth:`_send` could not, in one task."""
        if self.transport.is_closing():  # connection_lost cancels tasks: spawn none after it
            return self._drop(head, payload, entry, sent, owned)
        held = [owned]  # the reply holds the token until _send_tail releases it
        task = self._spawn(self._send_tail(head, payload, entry, sent, held))
        # runs even if the task is cancelled before its first step, when
        # neither its body nor its ``finally`` does: a token held from
        # birth is freed here, so ``retire`` can still close the socket
        task.add_done_callback(lambda _task: self._drop(head, payload, entry, sent, held[0]))

    def _drop(self, head: bytes, payload, entry, sent: int, owned: bool) -> None:
        """A reply finished, or one nobody is left to receive: free what it
        still holds."""
        if owned:
            self.wlock.release()
        if entry is not None:
            entry.close()

    async def _send_tail(self, head: bytes, payload, entry, sent: int, held: list) -> None:
        """Under the write token, once writing is not paused: the header if
        it is still owed, then the payload from where ``sent`` left it —
        bytes by ``transport.write``, an entry by ``loop.sendfile``.
        ``held[0]`` says whether the reply holds the token."""
        if not held[0]:
            await self.wlock.acquire()
            held[0] = True
        transport = self.transport
        try:
            if self.drain is not None:
                await self.drain
            if transport.is_closing():
                return
            if sent < len(head):
                transport.write(head[sent:])
            done = max(sent - len(head), 0)  # payload bytes already sent
            if entry is None:
                if done < len(payload):
                    transport.write(memoryview(payload)[done:])
            elif done < entry.size:
                # asyncio lseeks the shared slab descriptor when it is done:
                # harmless, every storage I/O is positional
                await self.server._loop.sendfile(transport, entry, entry.offset + done, entry.size - done)
        except (OSError, RuntimeError):
            transport.abort()  # part of a payload is on the wire: the stream is unusable
        finally:
            held[0] = False
            self.wlock.release()

    # -- everything that may block -----------------------------------------------------
    def _spawn(self, coro) -> asyncio.Task:
        task = self.server._loop.create_task(coro)
        self.tasks.add(task)
        task.add_done_callback(self._done)
        return task

    def _done(self, task: Optional[asyncio.Task] = None) -> None:  # a task, or a job, left the pipeline
        self.tasks.discard(task)
        if not self.transport.is_closing():
            self._parse()  # frames the pipeline depth held back
            if self.eof and not self.jobs + len(self.tasks):
                self.transport.close()

    def _post(self, callback, *args) -> bool:
        """From a dispatch thread: run ``callback`` on the loop; False once
        the loop is closed."""
        try:
            self.server._loop.call_soon_threadsafe(callback, *args)
            return True
        except RuntimeError:  # loop closed (shutdown): nobody is left to answer
            return False

    def _job(self, msg: Message, ctx, qspan) -> None:
        """On a dispatch thread: serve one request and send its reply from
        here, then install what it claimed for the cache — serve → cache.
        A READ whose entry was installed since decode is a hit after all."""
        srv = self.server
        t0 = time.perf_counter()
        qspan.end()  # duration == decode→executor-pickup wait
        installs: list = []
        path = msg.header["path"] if msg.op in _INLINE_OPS else ""
        entry = srv.nvme.open_read(path) if path else None
        try:
            if entry is not None:
                f, size = entry
                srv.stats.bump(hits=1, sendfile_serves=1)
                head, payload = self._hit_head(msg, size, t0), b""
            else:
                f = None
                response = srv.dispatch(msg, installs)
                sspan = srv.tracer.start_span("server.serialize", ctx, nbytes=len(response.payload))
                head, payload = encode_binary_response_header(msg.op, response, seq=msg.seq), response.payload
                sspan.end()  # encode: closed before the send
        except Exception:  # a dispatch or encode bug: sever, leave no client waiting
            if not srv._closed:
                srv.log.exception("unhandled error serving %s", msg.op)
                srv.stats.bump(errors=1)
            self._post(self._job_failed)
        else:
            rest = self._send(head, payload, f)
            if rest is None:
                self._job_left()
            elif not self._post(self._job_tail, *rest):
                self._drop(*rest)
        for install in installs:
            srv._install(*install)

    def _job_left(self) -> None:
        """On a dispatch thread: the job's reply is sent.  The loop is woken
        only if it waits on jobs — reading paused at the pipeline depth, or
        EOF in with replies owed; it sets either before it re-checks
        ``jobs``, and this checks them after it decrements."""
        with self.jobs_lock:
            self.jobs -= 1
        if self.paused or self.eof:
            self._post(self._done)

    def _job_tail(self, head: bytes, payload, entry, sent: int, owned: bool) -> None:
        """On the loop: a job's reply its thread could not finish goes to a
        task, which joins the pipeline before the job leaves it."""
        self._tail(head, payload, entry, sent, owned)
        with self.jobs_lock:
            self.jobs -= 1

    def _job_failed(self) -> None:
        with self.jobs_lock:
            self.jobs -= 1
        self.sever()


class FTCacheServer:
    """One node's cache daemon: an asyncio event loop over a real TCP socket.

    The listening socket is bound synchronously in ``__init__`` (so
    :attr:`address` is valid before :meth:`start`); :meth:`start` spawns
    one thread running the event loop, which accepts connections (one
    :class:`_Conn` each), decodes requests, and either answers a READ
    cache hit within the loop turn via ``sendfile`` or hands the request
    to a bounded dispatch executor.
    """

    def __init__(
        self,
        node_id: int,
        nvme: NVMeDir,
        pfs: PFSDir,
        host: str = "127.0.0.1",
        port: int = 0,
        tracer: Optional[Tracer] = None,
        dispatch_workers: int = 8,
    ):
        self.node_id = node_id
        self.nvme = nvme
        self.pfs = pfs
        self.stats = Counters(STAT_COUNTER_KEYS)
        #: server-side spans are always created *from* an incoming trace
        #: context — no context, no span — so an always-enabled tracer
        #: costs nothing until a client opts into tracing
        self.tracer = tracer if tracer is not None else Tracer(node=node_id)
        self.events = get_event_log()
        self.log = node_logger(__name__, node_id)
        self.telemetry = Telemetry(node=node_id)
        self.telemetry.adopt_counters("server", self.stats)
        self.telemetry.gauge("mover_queue_len", lambda: self.mover_queue_len)
        self.telemetry.gauge("cached_bytes", lambda: self.nvme.used_bytes)
        self.telemetry.gauge("cached_entries", lambda: self.nvme.entry_count())
        self.telemetry.gauge("evictions", lambda: self.nvme.evictions)
        self.hung = threading.Event()
        self.dropped = threading.Event()
        if dispatch_workers < 1:
            raise ValueError(f"dispatch_workers must be >= 1, got {dispatch_workers}")
        # Bound before start() so callers can learn the ephemeral port —
        # and so two servers can never race for it.  create_server sets
        # SO_REUSEADDR, matching the old allow_reuse_address.
        self._listen_sock = socket.create_server((host, port), backlog=256)
        self._addr: tuple[str, int] = self._listen_sock.getsockname()
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._ready = threading.Event()
        #: loop-confined state (touched only from the loop thread, or via
        #: call_soon_threadsafe): live connections and the shutdown event
        self._conns: set[_Conn] = set()
        self._aio_server: Optional[asyncio.base_events.Server] = None
        self._stop_event: Optional[asyncio.Event] = None
        self._closed = False
        #: blocking work (PFS reads, NVMe installs, STAT aggregation) runs
        #: here, never on the event loop; the name prefix keeps these
        #: threads inside the suite's leaked-thread allowance
        self._executor = ThreadPoolExecutor(
            max_workers=dispatch_workers,
            thread_name_prefix=f"ftcache-server-{node_id}-exec",
        )
        #: keys whose install is claimed and not yet written
        self._installing: set[str] = set()
        self._installing_lock = lockwitness.named_lock("server-installs")
        self._alive = False
        #: last OP_JOIN_PLAN announcement (None until this node is the
        #: target of an elastic join); single dict assignment, read-only
        #: for observers, so no lock is needed
        self.join_plan: Optional[dict] = None

    # -- lifecycle -----------------------------------------------------------------
    @property
    def address(self) -> tuple[str, int]:
        return self._addr

    @property
    def mover_queue_len(self) -> int:
        """Installs claimed and not yet written: 0 when idle, at most one
        per dispatch thread."""
        return len(self._installing)

    def counters(self) -> dict:
        """Every counter of this node: :attr:`stats` plus the device's
        ``evictions`` — what STAT reports and every cluster total sums."""
        return {**self.stats.snapshot(), "evictions": self.nvme.evictions}

    @property
    def alive(self) -> bool:
        return self._alive and not self.hung.is_set() and not self.dropped.is_set()

    def start(self) -> "FTCacheServer":
        if self._thread is not None:
            raise RuntimeError("server already started")
        self._loop = asyncio.new_event_loop()
        self._thread = threading.Thread(
            target=self._run_loop, name=f"ftcache-server-{self.node_id}", daemon=True
        )
        self._thread.start()
        if not self._ready.wait(timeout=10):  # pragma: no cover - startup wedge
            raise RuntimeError("server event loop failed to start")
        self._alive = True
        self.log.info("serving on %s:%d", *self.address)
        return self

    def _run_loop(self) -> None:
        loop = self._loop
        assert loop is not None
        asyncio.set_event_loop(loop)
        try:
            loop.run_until_complete(self._serve_main())
        finally:
            # Mirror asyncio.run()'s teardown: cancel stragglers (request
            # tasks severed mid-write), then close the loop for real.
            pending = asyncio.all_tasks(loop)
            for task in pending:
                task.cancel()
            if pending:
                loop.run_until_complete(asyncio.gather(*pending, return_exceptions=True))
            loop.run_until_complete(loop.shutdown_asyncgens())
            asyncio.set_event_loop(None)
            loop.close()
            self._ready.set()  # unblock start() even if setup itself failed

    async def _serve_main(self) -> None:
        self._stop_event = asyncio.Event()
        try:
            self._aio_server = await self._loop.create_server(
                lambda: _Conn(self), sock=self._listen_sock
            )
        finally:
            self._ready.set()
        await self._stop_event.wait()
        # Shutdown sequence: stop accepting, then sever live connections so
        # pooled client sockets observe the restart instead of silently
        # talking to a dead instance.
        server = self._aio_server
        if server is not None:
            server.close()
            await server.wait_closed()
        for conn in list(self._conns):
            conn.sever()
        # Every connection cancels its request tasks and is gone within a
        # few callbacks; turning the loop until then means close() returns
        # with no task, transport or socket left behind.
        deadline = self._loop.time() + 2.0
        while self._conns and self._loop.time() < deadline:
            await asyncio.sleep(0)

    def kill(self, mode: str = "hang") -> None:
        """Simulate node failure.

        ``hang``: stop answering (clients block until their TTL).
        ``drop``: close the listening socket (connections refused).
        """
        if mode not in ("hang", "drop"):
            raise ValueError(f"mode must be 'hang' or 'drop', got {mode!r}")
        self.log.warning("killed (mode=%s)", mode)
        self._alive = False
        if mode == "hang":
            self.hung.set()
        else:
            self.dropped.set()  # live connections reset on next request
            self._close_listener()

    def _close_listener(self) -> None:
        """Close the accept socket, from whichever side owns it right now."""
        loop = self._loop

        def _do() -> None:
            if self._aio_server is not None:
                self._aio_server.close()  # closes the listen socket it wraps
            else:  # pragma: no cover - loop up but server not yet created
                self._listen_sock.close()

        if loop is not None and loop.is_running():
            try:
                loop.call_soon_threadsafe(_do)
                return
            except RuntimeError:  # pragma: no cover - loop raced to a close
                pass
        try:
            self._listen_sock.close()
        except OSError:  # pragma: no cover - already closed
            pass

    def close(self) -> None:
        """Clean shutdown (not a failure simulation): stop the listener, sever
        accepted connections, let the dispatch threads finish — claimed
        installs included — then close the NVMe dir."""
        if self._closed:
            return
        self._closed = True
        self._alive = False
        loop, thread = self._loop, self._thread
        if loop is not None and thread is not None and thread.is_alive():
            try:
                loop.call_soon_threadsafe(self._stop_event.set)
            except RuntimeError:  # pragma: no cover - loop raced to a close
                pass
            thread.join(timeout=10)
        else:
            # Never started: the pre-bound listener is ours to close.
            try:
                self._listen_sock.close()
            except OSError:  # pragma: no cover
                pass
        self._executor.shutdown(wait=True)
        self.nvme.close()

    # -- request handling -----------------------------------------------------------
    def dispatch(self, msg: Message, installs: list) -> Message:
        """Route one request; every op gets a span (when the request carries
        a trace context) and a latency observation in the telemetry registry.
        What the request claimed for the cache is appended to ``installs``,
        for :meth:`_install` once the reply is sent."""
        op = msg.op.lower()
        span = self.tracer.start_span(f"server.{op}", extract(msg.header))
        t0 = time.perf_counter()
        try:
            response = self._dispatch(msg, span, installs)
        except Exception:
            span.end(status="error")
            raise
        self.telemetry.observe(f"op_{op}_s", time.perf_counter() - t0)
        span.end(status="ok" if response.ok else "error")
        return response

    def _dispatch(self, msg: Message, span, installs: list) -> Message:
        return _HANDLERS[msg.op](self, msg, span, installs)

    # -- handlers, one per op-table row: (msg, span, installs) -> reply ---------------
    def _ping(self, msg: Message, span, installs: list) -> Message:
        return Message.ok_response(node_id=self.node_id)

    def _stat(self, msg: Message, span, installs: list) -> Message:
        return Message.ok_response(
            node_id=self.node_id,
            cached_entries=self.nvme.entry_count(),
            cached_bytes=self.nvme.used_bytes,
            capacity_bytes=self.nvme.capacity_bytes,
            mover_queue_len=self.mover_queue_len,
            **self.counters(),
        )

    def _read(self, msg: Message, span, installs: list) -> Message:
        """A READ that found no entry — its connection ran ``open_read`` at
        decode and again in its job, and serves an entry it finds itself:
        fetch from the PFS and claim the install."""
        path = msg.header["path"]
        if not path:
            self.stats.bump(errors=1)
            return Message.error_response("missing path")
        pspan = self.tracer.start_span("server.pfs_read", span, path=path)
        try:
            data = self.pfs.read(path)
        except FileNotFoundError:
            pspan.end(status="enoent")
            self.stats.bump(errors=1)
            return Message.error_response(f"no such file: {path}", code="ENOENT")
        except OSError as exc:  # a directory, a key through a file, a leaf too long, an escape from the root
            pspan.end(status="error")
            self.stats.bump(errors=1)
            return Message.error_response(f"{exc.strerror}: {path}" if exc.strerror else str(exc))
        pspan.end()
        self.stats.bump(misses=1, pfs_reads=1)
        self._claim(installs, path, data, span.ctx)
        return Message.ok_response(payload=data, source="pfs")

    def _claim(self, installs: list, path: str, data: bytes, ctx: Optional[TraceContext]) -> None:
        """Book one install before the reply that promises it: counted in
        ``mover_enqueued`` and appended to ``installs``, or — ``path`` is
        claimed and not yet written, with the same PFS bytes — coalesced."""
        with self._installing_lock:
            claimed = path not in self._installing
            self._installing.add(path)
        self.stats.bump(mover_enqueued=int(claimed), mover_coalesced=int(not claimed))
        if claimed:
            installs.append((path, data, ctx))

    def _install(self, path: str, data: bytes, ctx: Optional[TraceContext]) -> None:
        """Write one claimed entry, on the dispatch thread that claimed it,
        after its reply is sent: it ends in ``recached``, or — larger than
        the whole device — in ``mover_dropped``."""
        span = self.tracer.start_span("mover.nvme_write", ctx, path=path)
        ok = True
        try:
            self.nvme.write(path, data)
            self.stats.bump(recached=1)
        except OSError:
            ok = False  # serveable, not cacheable
            self.stats.bump(mover_dropped=1)
        finally:
            with self._installing_lock:
                self._installing.discard(path)
        span.end(status="ok" if ok else "error")

    def _obs(self, msg: Message, span, installs: list) -> Message:
        """Observability export: one JSON payload with the unified telemetry
        snapshot, tracer accounting, recent spans, and recent events.  The
        response header stays empty on purpose — bulk data is payload bytes."""
        snap = self.telemetry.snapshot()
        snap["tracer"] = self.tracer.counters()
        snap["spans"] = self.tracer.buffer.snapshot(limit=int(msg.header["spans_limit"]))
        snap["events"] = self.events.snapshot(limit=int(msg.header["events_limit"]))
        return Message.ok_response(payload=json.dumps(snap, default=str).encode("utf-8"))

    def _join_plan(self, msg: Message, span, installs: list) -> Message:
        """Record an impending join's move plan (this node is the joiner).

        Purely informational — warmup arrives as OP_TRANSFERs — but it
        doubles as the coordinator's liveness check and makes the plan
        visible in this node's state for debugging an aborted join.
        """
        h = msg.header
        self.join_plan = {f: int(h[f]) for f in ("planned_keys", "planned_bytes", "epoch")}
        self.stats.bump(join_plans=1)
        return Message.ok_response(node_id=self.node_id, accepted_keys=self.join_plan["planned_keys"])

    def _transfer(self, msg: Message, span, installs: list) -> Message:
        """Warmup backfill: one moved key takes the miss's claim → reply →
        install path, coalescing included, so a join cannot stampede this
        node.  The reply reports :attr:`mover_queue_len` for the
        coordinator's throttle."""
        path, data = msg.header["path"], msg.payload
        if not path:
            self.stats.bump(errors=1)
            return Message.error_response("missing path")
        self._claim(installs, path, data, span.ctx)
        self.stats.bump(transfers_in=1, transfer_bytes=len(data))
        return Message.ok_response(accepted=True, queue_len=self.mover_queue_len)

    def _put(self, msg: Message, span, installs: list) -> Message:
        """Replica push (replication extension): install an entry directly."""
        path, data = msg.header["path"], msg.payload
        if not path:
            self.stats.bump(errors=1)
            return Message.error_response("missing path")
        try:
            self.nvme.write(path, data)
        except OSError as exc:
            # With LRU eviction this only fires for an entry larger than the
            # whole device — capacity pressure evicts instead of refusing.
            self.stats.bump(errors=1)
            return Message.error_response(f"cache full: {exc}", code="ENOSPC")
        self.stats.bump(recached=1)
        return Message.ok_response(stored=len(data))


def handlers_for(table: dict) -> dict:
    """Op name → the :class:`FTCacheServer` method that answers it, one per
    row of ``table``; a row that names no method raises :class:`AttributeError`."""
    return {op.name: getattr(FTCacheServer, op.handler) for op in table.values()}


#: the live table's handlers: a row that names no method fails when the module is imported
_HANDLERS = handlers_for(BIN_OPS)
