"""The five workloads: sizing, set-up, the closed-loop drivers, the checks.

Closed loop throughout: the cache's callers are dataloader workers that wait
for each reply.  Load is issued by at most ``LOAD_THREADS`` threads of this
one process; servers are separate processes (see :mod:`procs`).

The program is touched only through the measured surface named in
``bench/README.md``.
"""

from __future__ import annotations

import collections
import os
import shutil
import statistics
import threading
import time
import zlib
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

import gen
import ladder
from probe import REFERENCE_PROBE_US, SpeedProbe
from procs import ProcessSet
from spans import StatSampler, Tracer

from repro.core import HashRing, make_policy
from repro.rebalance import JoinCoordinator, RingDiff
from repro.runtime import CachedDataLoader, FTCacheClient, PFSDir

__all__ = ["WORKLOADS", "Config", "Run", "resolve", "run_workload"]

LOAD_THREADS = min(os.cpu_count() or 1, 2)
VNODES = 100
TTL = 0.5
TIMEOUT_THRESHOLD = 3
KIB = 1024

WORKLOADS = ("hit_small", "hit_large", "miss_churn", "train_kill", "join_live")


@dataclass(frozen=True)
class Config:
    """Everything that sizes one workload run, resolved from ``--seconds``."""

    name: str
    seconds: float
    n_files: int
    size: int
    n_servers: int = 3
    dist: str = "uniform"
    zipf_s: float = 1.1
    write_ratio: float = 0.0
    capacity: int = 0
    pfs_delay: float = 0.0
    warm: bool = True
    load_threads: int = LOAD_THREADS
    setup_reps: int = 3
    ladder_iters: int = 2000
    # train_kill
    batch_size: int = 32
    epochs: int = 7
    kill_epoch: int = 3
    kill_after_batch: int = 8
    kill_node: int = 1
    #: untimed closed-loop load before the measured window (join_live: before
    #: the trigger); the box needs it to reach its steady speed
    ramp_s: float = 0.0


def resolve(name: str, seconds: float, smoke: bool = False, threads: int | None = None) -> Config:
    """The workload table of ``bench/README.md`` as code.  Fixed-work
    workloads scale their file count with ``seconds`` so one run measures
    for about that long; ``smoke`` pins the small sizes of the sanity pass."""
    threads = threads or LOAD_THREADS
    if not 1 <= threads <= LOAD_THREADS:
        raise ValueError(f"load threads must be 1..{LOAD_THREADS} (min(nproc, 2)), got {threads}")
    common = dict(name=name, seconds=seconds, ramp_s=4.0, load_threads=threads)
    if smoke:
        common.update(setup_reps=1, ramp_s=1.0, ladder_iters=200)
    if name == "hit_small":
        return Config(n_files=512, size=4 * KIB, dist="zipf", **common)
    if name == "hit_large":
        return Config(n_files=64, size=1024 * KIB, **common)
    if name == "miss_churn":
        n, size = 2048, 16 * KIB
        return Config(n_files=n, size=size, write_ratio=0.1, capacity=n * size // 12, **common)
    if name == "train_kill":
        n = 1024 if smoke else int(512 * seconds) // 32 * 32
        return Config(n_files=n, size=16 * KIB, pfs_delay=0.002, warm=False, **{**common, "ramp_s": 0.0})
    if name == "join_live":
        n = 1024 if smoke else int(384 * seconds)
        return Config(n_files=n, size=16 * KIB, n_servers=2, **common)
    raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")


@dataclass
class Run:
    """What one workload run measured.  ``metrics`` maps a metric name to
    ``(value, samples)``; units live in ``BENCHMARK.json``."""

    config: Config
    probe: SpeedProbe
    metrics: dict = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)
    #: exact counts that must repeat across runs of one seed
    op_digest: int = 0

    def fail(self, why: str, n: int = 1) -> None:
        self.failed += n
        if len(self.errors) < 10:
            self.errors.append(why)

    def put(self, name: str, value, n: int = 1) -> None:
        self.metrics[name] = (value, n)

    def speed(self, t_lo: float, t_hi: float) -> float:
        """Box speed over the measured interval (see :mod:`probe`); the raw
        probe reading goes on record, so a reported duration can be undone."""
        probe_us, n = self.probe.probe_us(t_lo, t_hi)
        self.put("loadgen.cpu_probe_us", probe_us, n)
        return REFERENCE_PROBE_US / probe_us


# -- cluster ------------------------------------------------------------------------
class Cluster:
    """Corpus on disk + one server process per node, in a scratch dir."""

    def __init__(self, cfg: Config, seed: int, procs: ProcessSet):
        self.cfg = cfg
        self.procs = procs
        self.work = procs.make_workdir(cfg.name)
        self.corpus = gen.write_corpus(self.work / "pfs", seed, cfg.n_files, cfg.size,
                                       keep_bytes=cfg.write_ratio > 0)
        self.servers = procs.spawn_servers(range(cfg.n_servers), self.work,
                                           cfg.capacity, cfg.pfs_delay)
        self.ring = HashRing(nodes=sorted(self.servers), vnodes_per_node=VNODES)
        #: the node the start-of-run ring maps each corpus index to
        self.owners = [self.ring.lookup(k) for k in self.corpus.keys]
        self.client = FTCacheClient(
            servers={n: p.address for n, p in self.servers.items()},
            policy=make_policy("nvme", self.ring),
            pfs=PFSDir(self.work / "pfs"),
            ttl=TTL,
            timeout_threshold=TIMEOUT_THRESHOLD,
        )

    def live_nodes(self) -> list[int]:
        return [n for n, p in self.servers.items() if p.popen.poll() is None]

    def stat(self) -> dict[int, dict]:
        """STAT of every live server; a silent live server is an error."""
        out = {}
        for node in self.live_nodes():
            reply = self.client.server_stat(node)
            if reply is None:
                raise RuntimeError(f"server {node} did not answer STAT")
            out[node] = reply
        return out

    def stat_sum(self, key: str, stats: dict[int, dict] | None = None) -> int:
        return sum(int(s.get(key) or 0) for s in (stats or self.stat()).values())

    def cpu_seconds(self) -> float:
        return sum(p.cpu_seconds() for p in self.servers.values())

    def wait_quiescent(self, timeout: float = 30.0) -> dict[int, dict]:
        """Block until every mover has written or dropped all it accepted."""
        deadline = time.monotonic() + timeout
        while True:
            stats = self.stat()
            if all(s["mover_queue_len"] == 0
                   and s["mover_enqueued"] - s["mover_dropped"] == s["recached"]
                   for s in stats.values()):
                return stats
            if time.monotonic() > deadline:
                raise RuntimeError(f"movers still busy after {timeout}s: {stats}")
            time.sleep(0.02)

    def warm(self) -> None:
        """Read the corpus once (twice if a mover dropped something) and wait
        for the movers; with unbounded caches every key must end up cached."""
        corpus = self.corpus
        for _ in range(3):
            for lo in range(0, len(corpus.keys), 32):
                for i, data in enumerate(self.client.read_many(corpus.keys[lo:lo + 32]), start=lo):
                    if not corpus.check(i, data):
                        raise RuntimeError(f"warm-up read of {corpus.keys[i]} returned wrong bytes")
            stats = self.wait_quiescent()
            if self.cfg.capacity or self.stat_sum("cached_entries", stats) >= len(corpus.keys):
                return
        raise RuntimeError("warm-up left keys uncached")

    def close(self) -> None:
        self.client.close()
        for proc in self.servers.values():
            proc.kill()
        shutil.rmtree(self.work, ignore_errors=True)


def set_up(cfg: Config, seed: int, procs: ProcessSet, probe: SpeedProbe) -> tuple[Cluster, float, int]:
    """Build the cluster ``cfg.setup_reps`` times, keep the last; the
    reported set-up time is the median of the repetitions."""
    times = []
    for rep in range(cfg.setup_reps):
        t0 = time.perf_counter()
        cluster = Cluster(cfg, seed, procs)
        try:
            if cfg.warm:
                cluster.warm()
            # Part of materialising the corpus: left dirty, its pages are
            # written back during the measured window, and how much of that
            # lands there decides the servers' CPU per op (miss_churn:
            # 853-1 275 ms/kop over ten runs without, 968-1 036 with).
            os.sync()
        except BaseException:
            cluster.close()
            raise
        t1 = time.perf_counter()
        times.append((t1 - t0) * probe.speed(t0, t1))
        if rep < cfg.setup_reps - 1:
            cluster.close()
    return cluster, statistics.median(times), len(times)


# -- shared measurement helpers --------------------------------------------------------
def _us(lat, q: float) -> float:
    return float(np.percentile(np.asarray(lat), q)) * 1e6


def _latency_metrics(run: Run, reads, writes, speed: float) -> None:
    """Latency percentiles at reference speed (``speed`` from :meth:`Run.speed`)."""
    reads, writes = np.asarray(reads) * speed, np.asarray(writes) * speed
    run.put("read_p50_us", _us(reads, 50), len(reads))
    run.put("read_p90_us", _us(reads, 90), len(reads))
    run.put("loadgen.read_p95_us", _us(reads, 95), len(reads))
    run.put("loadgen.read_p99_us", _us(reads, 99), len(reads))
    run.put("loadgen.read_p999_us", _us(reads, 99.9), len(reads))
    run.put("loadgen.read_max_us", float(np.max(reads)) * 1e6, len(reads))
    if len(writes):
        run.put("write_p50_us", _us(writes, 50), len(writes))
        run.put("loadgen.write_p99_us", _us(writes, 99), len(writes))


def _cost_metrics(run: Run, ops: int, wall: float, server_cpu: float, client_cpu: float,
                  speed: float) -> None:
    run.put("loadgen.raw_ops_per_s", ops / wall, ops)
    run.put("ops_per_s", ops / (wall * speed), ops)
    run.put("server_cpu_ms_per_kop", server_cpu * speed * 1e3 / (ops / 1e3), ops)
    run.put("client_cpu_ms_per_kop", client_cpu * speed * 1e3 / (ops / 1e3), ops)


_SERVER_COUNTERS = ("hits", "misses", "sendfile_serves", "pfs_reads", "recached",
                    "race_fallthroughs", "errors", "binary_reqs", "json_reqs")
_CLIENT_COUNTERS = ("server_cache_reads", "server_pfs_reads", "pfs_direct_reads", "timeouts",
                    "declared", "failovers", "reconnects", "pipelined_reads", "writes",
                    "cache_installs")


class Counters:
    """Server STAT sums and client counters at one instant; ``since`` gives
    the deltas as per-layer metrics.  A killed server's counters leave the
    sum with it, so deltas across a kill count survivors only."""

    def __init__(self, cluster: Cluster, nodes: list[int] | None = None):
        stats = cluster.stat()
        if nodes is not None:
            stats = {n: s for n, s in stats.items() if n in nodes}
        self.server = {k: cluster.stat_sum(k, stats) for k in
                       _SERVER_COUNTERS + ("evictions", "mover_dropped", "mover_coalesced")}
        self.client = cluster.client.stats

    def since(self, before: "Counters", run: Run) -> None:
        d = {k: self.server[k] - before.server[k] for k in self.server}
        for k in _SERVER_COUNTERS:
            run.put(f"server.{k}", d[k])
        run.put("storage.evictions", d["evictions"])
        run.put("mover.dropped", d["mover_dropped"])
        run.put("mover.coalesced", d["mover_coalesced"])
        c = {k: self.client[k] - before.client[k] for k in _CLIENT_COUNTERS}
        for k, v in c.items():
            run.put(f"client.{k}", v)
        served = c["server_cache_reads"] + c["server_pfs_reads"] + c["pfs_direct_reads"]
        if served:
            run.put("storage.hit_ratio", c["server_cache_reads"] / served, served)


@dataclass
class _Lane:
    """One load thread's log: op ``j`` of its stream took ``lats[j]`` seconds
    and was answered at ``ends[j]``."""

    stream: gen.OpStream
    lats: list = field(default_factory=list)
    ends: list = field(default_factory=list)
    errors: list = field(default_factory=list)


def _load_loop(cluster: Cluster, lane: _Lane, go: threading.Barrier, seconds: float,
               tracer: Tracer, parent: int) -> None:
    """Closed loop: issue the stream's next op when the previous one has been
    answered and checked, until ``seconds`` have passed."""
    client, corpus, stream, owners = cluster.client, cluster.corpus, lane.stream, cluster.owners
    keys, blobs, check = corpus.keys, corpus.blobs, corpus.check
    skeys, swrites = stream.keys, stream.writes
    lats, ends = lane.lats, lane.ends
    traced, clock = tracer.enabled, time.perf_counter
    j = 0
    go.wait()
    deadline = clock() + seconds
    while True:
        if j == len(skeys):
            stream.extend()
        i, is_write = skeys[j], swrites[j]
        t0 = clock()
        try:
            if is_write:
                client.write(keys[i], blobs[i])
                t1 = clock()
                ok = True
            else:
                data = client.read(keys[i])
                t1 = clock()
                ok = check(i, data, j)
        except Exception as exc:  # boundary: any raised op is a failed op
            t1, ok = clock(), False
            lane.errors.append(f"{keys[i]}: {type(exc).__name__}: {exc}")
        else:
            if not ok:
                lane.errors.append(f"{keys[i]}: wrong length or crc32")
        lats.append(t1 - t0)
        ends.append(t1)
        if traced:
            tracer.op("client.write" if is_write else "client.read", parent, t0, t1,
                      "ok" if ok else "fail", owners[i])
        j += 1
        if t1 >= deadline:
            break


def _start_lanes(cluster: Cluster, streams: list, seconds: float, tracer: Tracer,
                 parent: int) -> tuple[list[_Lane], list[threading.Thread], threading.Barrier]:
    lanes = [_Lane(stream) for stream in streams]
    go = threading.Barrier(len(streams) + 1)
    threads = [threading.Thread(target=_load_loop, name=f"bench-load-{t}", daemon=True,
                                args=(cluster, lane, go, seconds, tracer, parent))
               for t, lane in enumerate(lanes)]
    for th in threads:
        th.start()
    return lanes, threads, go


def _join_lanes(run: Run, lanes: list[_Lane], threads: list[threading.Thread], timeout: float) -> None:
    for th in threads:
        th.join(timeout)
        if th.is_alive():
            raise RuntimeError(f"load thread {th.name} did not finish within {timeout}s")
    for lane in lanes:
        run.attempted += len(lane.ends)
        for err in lane.errors:
            run.fail(err)
        run.op_digest = zlib.crc32(np.asarray(lane.stream.keys[:1024]).tobytes(), run.op_digest)


def _window(lanes: list[_Lane], t_lo: float, t_hi: float = float("inf")) -> tuple[list, list, int]:
    """Read latencies, write latencies and op count of the ops answered in
    ``[t_lo, t_hi)``."""
    reads, writes = [], []
    for lane in lanes:
        ends = np.asarray(lane.ends)
        lats = np.asarray(lane.lats)
        inside = (ends >= t_lo) & (ends < t_hi)
        is_write = np.asarray(lane.stream.writes[:len(ends)], dtype=bool)
        reads.append(lats[inside & ~is_write])
        writes.append(lats[inside & is_write])
    reads, writes = np.concatenate(reads), np.concatenate(writes)
    return reads, writes, len(reads) + len(writes)


# -- hit_small / hit_large / miss_churn ---------------------------------------------------
def run_steady(cluster: Cluster, run: Run, seed: int, tracer: Tracer, root: int) -> list[int]:
    cfg = cluster.cfg
    # With writes in the mix each thread keeps to its own files: PFSDir.write
    # truncates in place, so a read racing another thread's rewrite of the
    # same file could see a short file, and the workload must not fail.
    stride = cfg.load_threads if cfg.write_ratio else 1
    streams = [gen.OpStream(seed, t, cfg.n_files, cfg.dist, cfg.zipf_s, cfg.write_ratio,
                            stride=stride, offset=t % stride, owners=cluster.owners)
               for t in range(cfg.load_threads)]
    ramp = tracer.begin("ramp", root)
    lanes, threads, go = _start_lanes(cluster, streams, cfg.ramp_s + cfg.seconds, tracer, root)
    go.wait()
    # The first seconds of sustained load on an idle box run up to 25 % slow,
    # so the loop runs untimed for ramp_s first.
    time.sleep(cfg.ramp_s)
    tracer.end(ramp)
    phase = tracer.begin("measure", root)
    before = Counters(cluster)
    t_lo, cpu0, srv0 = time.perf_counter(), time.process_time(), cluster.cpu_seconds()
    _join_lanes(run, lanes, threads, cfg.ramp_s + cfg.seconds + 60)
    cpu1, srv1 = time.process_time(), cluster.cpu_seconds()
    tracer.end(phase)
    Counters(cluster).since(before, run)

    reads, writes, ops = _window(lanes, t_lo)
    t_hi = max(lane.ends[-1] for lane in lanes)
    speed = run.speed(t_lo, t_hi)
    _cost_metrics(run, ops, t_hi - t_lo, srv1 - srv0, cpu1 - cpu0, speed)
    _latency_metrics(run, reads, writes, speed)
    return streams[0].keys[:4096]


# -- train_kill ---------------------------------------------------------------------------
class _TimedReads:
    """What ``CachedDataLoader`` sees as its client: ``read_many``, with a
    benchmark-side span around each call."""

    def __init__(self, client: FTCacheClient, tracer: Tracer):
        self._read_many = client.read_many
        self._tracer = tracer
        self.parent = 0
        self.batches: list[tuple[float, float]] = []

    def read_many(self, paths: list[str]) -> list[bytes]:
        t0 = time.perf_counter()
        try:
            out = self._read_many(paths)
        except BaseException:
            if self._tracer.enabled:
                self._tracer.op("loader.read_many", self.parent, t0, time.perf_counter(), "fail", None)
            raise
        t1 = time.perf_counter()
        self.batches.append((t0, t1))
        if self._tracer.enabled:
            self._tracer.op("loader.read_many", self.parent, t0, t1, "ok", None)
        return out


def _watch_declared(client: FTCacheClient, t_kill: float, out: dict) -> None:
    """1 ms watcher: SIGKILL → the client's detector declares the node."""
    deadline = t_kill + 10.0
    while time.perf_counter() < deadline:
        if client.stats["declared"] >= 1:
            out["detect_ms"] = (time.perf_counter() - t_kill) * 1e3
            return
        time.sleep(0.001)


def run_train_kill(cluster: Cluster, run: Run, seed: int, tracer: Tracer, root: int) -> list[int]:
    cfg, corpus, client = cluster.cfg, cluster.corpus, cluster.client
    n = cfg.n_files
    expected = collections.Counter(corpus.crcs)
    lost_keys = cluster.owners.count(cfg.kill_node)
    survivors = [node for node in cluster.servers if node != cfg.kill_node]
    timed = _TimedReads(client, tracer)
    loader = CachedDataLoader(corpus.keys, timed, batch_size=cfg.batch_size, shuffle=True,
                              seed=seed, num_workers=cfg.load_threads)
    epoch_s, batch_ranges, pfs_reads_at = [], [], [cluster.stat_sum("pfs_reads")]
    at_kill: dict = {}
    before = Counters(cluster, survivors)
    cpu0, srv0 = time.process_time(), cluster.cpu_seconds()
    t_lo = time.perf_counter()
    for epoch in range(cfg.epochs):
        loader.set_epoch(epoch)
        span = tracer.begin(f"epoch:{epoch}", root)
        timed.parent = span[0]
        first_batch = len(timed.batches)
        seen: collections.Counter = collections.Counter()
        t0 = time.perf_counter()
        try:
            for b, batch in enumerate(loader):
                seen.update(zlib.crc32(sample) for sample in batch)
                if epoch == cfg.kill_epoch and b == cfg.kill_after_batch:
                    at_kill["pfs_reads"] = sum(
                        int(s["pfs_reads"]) for node, s in cluster.stat().items() if node in survivors)
                    k0 = time.perf_counter()
                    cluster.servers[cfg.kill_node].kill()
                    at_kill["t"] = k0
                    if tracer.enabled:
                        tracer.op("chaos.sigkill", span[0], k0, time.perf_counter(), "ok", cfg.kill_node)
                        threading.Thread(target=_watch_declared, name="bench-detect-watch",
                                         args=(client, at_kill["t"], at_kill), daemon=True).start()
        except Exception as exc:  # boundary: a raised epoch fails its unread samples
            run.errors.append(f"epoch {epoch}: {type(exc).__name__}: {exc}")
        epoch_s.append(time.perf_counter() - t0)
        tracer.end(span)
        batch_ranges.append((first_batch, len(timed.batches)))
        run.attempted += n
        delivered = sum((seen & expected).values())
        if delivered != n or sum(seen.values()) != n:
            run.fail(f"epoch {epoch}: {delivered} of {n} samples delivered intact", n - delivered or 1)
        pfs_reads_at.append(cluster.stat_sum("pfs_reads"))
    cpu1, srv1 = time.process_time(), cluster.cpu_seconds()
    after = Counters(cluster, survivors)
    after.since(before, run)
    if after.client["declared"] != 1:
        run.fail(f"declared == {after.client['declared']}, expected 1")

    speed = run.speed(t_lo, time.perf_counter())
    _cost_metrics(run, n * cfg.epochs, sum(epoch_s), srv1 - srv0, cpu1 - cpu0, speed)
    epoch_s = [s * speed for s in epoch_s]
    lat = [(t1 - t0) * speed for t0, t1 in timed.batches]
    _latency_metrics(run, lat, [], 1.0)
    k = cfg.kill_epoch
    run.put("epoch_cold_s", epoch_s[0])
    run.put("epoch_warm_s", statistics.median(epoch_s[1:k]), k - 1)
    run.put("epoch_victim_s", epoch_s[k])
    run.put("epoch_recovered_s", statistics.median(epoch_s[k + 2:]), cfg.epochs - k - 2)
    if "pfs_reads" in at_kill:
        run.put("pfs_reads_per_lost_key",
                (after.server["pfs_reads"] - at_kill["pfs_reads"]) / lost_keys, lost_keys)
    else:
        run.fail("the kill trigger was never reached")
    run.put("mover.warm_epoch_pfs_reads", pfs_reads_at[k] - pfs_reads_at[1])
    run.put("loader.samples_per_s", n / statistics.median(epoch_s[1:k]), n)
    run.put("loader.batch_p50_ms", _us(lat, 50) / 1e3, len(lat))
    run.put("loader.batch_p99_ms", _us(lat, 99) / 1e3, len(lat))
    lo, hi = batch_ranges[k]
    run.put("loader.victim_stall_ms", max(lat[lo:hi]) * 1e3, hi - lo)
    run.put("detector.timeouts", after.client["timeouts"] - before.client["timeouts"])
    if "detect_ms" in at_kill:
        run.put("detector.detect_ms", at_kill["detect_ms"])
    run.op_digest = zlib.crc32(repr((lost_keys, sorted(expected)[:64])).encode())
    return list(range(min(n, 4096)))


# -- join_live ----------------------------------------------------------------------------
def _join(cluster: Cluster, tracer: Tracer, parent: int, at: float, out: dict) -> None:
    """Thread B: at ``at``, spawn server 2 and run plan → warm → cutover."""
    client, corpus = cluster.client, cluster.corpus
    node = max(cluster.servers) + 1
    time.sleep(max(0.0, at - time.perf_counter()))
    out["t_trigger"] = t_trig = time.perf_counter()
    out["cpu0"], out["srv0"] = time.process_time(), cluster.cpu_seconds()
    try:
        proc = cluster.procs.spawn_servers([node], cluster.work)[node]
        cluster.servers[node] = proc
        t_spawned = time.perf_counter()
        plan = RingDiff(cluster.ring).plan_join(node, corpus.keys,
                                                sizes=dict.fromkeys(corpus.keys, corpus.size))
        t_planned = time.perf_counter()
        control = FTCacheClient(
            servers={n: p.address for n, p in cluster.servers.items() if n != node},
            policy=make_policy("pfs", HashRing(nodes=sorted(cluster.ring.nodes), vnodes_per_node=VNODES)),
            pfs=PFSDir(cluster.work / "pfs"), ttl=TTL, timeout_threshold=TIMEOUT_THRESHOLD)
        control.register_address(node, proc.address)

        def cutover() -> int:
            out["pfs_reads_at_cutover"] = client.stats["server_pfs_reads"]
            client.admit_node(node, proc.address)
            return 1

        try:
            report = JoinCoordinator(plan, control, control.pfs, cutover).run()
        finally:
            control.close()
        t_done = time.perf_counter()
        out.update(report=report, plan=plan, join_s=t_done - t_trig,
                   plan_ms=(t_planned - t_spawned) * 1e3)
        if tracer.enabled:
            join = tracer.op("chaos.join", parent, t_trig, t_done, "ok", node)
            for name, a, b in (("chaos.join.spawn", t_trig, t_spawned),
                               ("chaos.join.plan", t_spawned, t_planned),
                               ("chaos.join.warm_cutover", t_planned, t_done)):
                tracer.op(name, join, a, b, "ok", node, trace=join)
    except Exception as exc:  # boundary: reported as a failed run by the caller
        out["error"] = f"{type(exc).__name__}: {exc}"


def run_join_live(cluster: Cluster, run: Run, seed: int, tracer: Tracer, root: int) -> list[int]:
    cfg, client = cluster.cfg, cluster.client
    stream = gen.OpStream(seed, 0, cfg.n_files)
    phase = tracer.begin("measure", root)
    # a little longer than ramp + window, so that the window, which starts
    # when thread B wakes up, is covered to its end
    total = cfg.ramp_s + cfg.seconds + 0.1
    lanes, threads, go = _start_lanes(cluster, [stream], total, tracer, phase[0])
    before = Counters(cluster)
    joined: dict = {}
    go.wait()
    joiner = threading.Thread(target=_join, name="bench-join", daemon=True,
                              args=(cluster, tracer, phase[0], time.perf_counter() + cfg.ramp_s, joined))
    joiner.start()
    _join_lanes(run, lanes, threads, total + 60)
    cpu1, srv1 = time.process_time(), cluster.cpu_seconds()
    joiner.join(60)
    tracer.end(phase)
    if joiner.is_alive() or "error" in joined or "report" not in joined:
        run.fail(f"join did not finish: {joined.get('error', 'still running')}")
        return stream.keys[:4096]
    report, plan = joined["report"], joined["plan"]
    if report.state != "SERVING":
        run.fail(f"coordinator ended in {report.state}, expected SERVING")
    stats = cluster.wait_quiescent()
    Counters(cluster).since(before, run)

    # the fixed window that starts at the trigger: a faster join leaves more
    # of it undisturbed, a gentler join disturbs it less
    t_lo, t_hi = joined["t_trigger"], joined["t_trigger"] + cfg.seconds
    reads, writes, ops = _window(lanes, t_lo, t_hi)
    speed = run.speed(t_lo, t_hi)
    _cost_metrics(run, ops, cfg.seconds, srv1 - joined["srv0"], cpu1 - joined["cpu0"], speed)
    _latency_metrics(run, reads, writes, speed)
    tail = cfg.seconds / 3
    run.put("loadgen.post_join_ops_per_s", _window(lanes, t_hi - tail, t_hi)[2] / (tail * speed))
    run.put("join_s", joined["join_s"] * speed)
    moved = plan.moved_keys
    run.put("rebalance.plan_ms", joined["plan_ms"] * speed)
    run.put("rebalance.moved_keys", moved)
    run.put("rebalance.moved_fraction", plan.predicted_fraction, plan.total_keys)
    run.put("rebalance.warm_key_us", report.warmup_seconds * speed / max(1, report.warmed_keys) * 1e6,
            report.warmed_keys)
    for name in ("throttle_pauses", "source_cache_reads", "source_pfs_reads",
                 "pfs_fallback_reads", "transfers_rejected"):
        run.put(f"rebalance.{name}", getattr(report, name))
    run.put("rebalance.installed_fraction", stats[plan.node]["cached_entries"] / max(1, moved), moved)
    run.put("rebalance.postjoin_pfs_reads",
            client.stats["server_pfs_reads"] - joined["pfs_reads_at_cutover"])
    run.op_digest = zlib.crc32(str(moved).encode(), run.op_digest)
    return stream.keys[:4096]


# -- entry point --------------------------------------------------------------------------
_DRIVERS = {"hit_small": run_steady, "hit_large": run_steady, "miss_churn": run_steady,
            "train_kill": run_train_kill, "join_live": run_join_live}


def run_workload(cfg: Config, seed: int, traced: bool, procs: ProcessSet, out_dir: Path) -> Run:
    """Set up, measure, check; when ``traced`` also sample the servers at
    1 Hz, write the trace file and climb the layer ladder."""
    probe = SpeedProbe().start()
    cluster = None
    try:
        run = Run(cfg, probe)
        tracer = Tracer(traced)
        root = tracer.begin(f"workload:{cfg.name}")
        cluster, setup_s, reps = set_up(cfg, seed, procs, probe)
        run.put("setup_s", setup_s, reps)
        sampler = StatSampler(cluster).start() if traced else None
        ladder_keys = _DRIVERS[cfg.name](cluster, run, seed, tracer, root[0])
        samples = sampler.stop() if sampler else []
        tracer.end(root)
        run.put("fail_ratio", run.failed / max(1, run.attempted), run.attempted)
        if traced:
            run.put("mover.queue_len_max", sampler.max_stat("mover_queue_len"), len(samples))
            run.put("server.rss_mb", max((s["rss_mb"] or 0.0 for s in samples), default=0.0), len(samples))
            tracer.dump(out_dir / f"{cfg.name}.trace.jsonl", samples)
            rungs = ladder.Ladder(cluster, ladder_keys, procs, probe, cfg.ladder_iters).climb()
            for name, value in rungs.items():
                run.put(name, *value)
    finally:
        probe.stop()
        if cluster is not None:
            cluster.close()
    return run


def config_dict(cfg: Config) -> dict:
    return {**asdict(cfg), "vnodes_per_node": VNODES, "ttl": TTL,
            "timeout_threshold": TIMEOUT_THRESHOLD, "policy": "nvme"}
