"""Unit tests for the JoinCoordinator state machine (fakes, no sockets).

Pins the transition discipline (PLANNED → WARMING → SERVING, abort from
anywhere pre-cutover), the warmup data paths (owner cache → owner PFS →
coordinator PFS fallback), the per-source batches, the throttle loop, and
the rollback contract.
"""

import contextlib
import math

import pytest

from repro.rebalance import JoinAborted, JoinCoordinator, JoinState, RingDiff
from repro.rebalance.coordinator import WARM_BATCH
from repro.rebalance.ringdiff import MovePlan


def make_plan(moves, node=9):
    return MovePlan(
        node=node,
        weight=1.0,
        moves=tuple(moves),
        total_keys=max(len(moves), 1),
        total_bytes=0,
        predicted_fraction=len(moves) / max(len(moves), 1),
        theoretical_fraction=0.25,
        planned_epoch=4,
    )


class FakeControl:
    """Scriptable stand-in for FTCacheClient's explicit-node RPC surface:
    list-shaped ``read_from``/``transfer``, one call per batch."""

    def __init__(
        self,
        ack_plan=True,
        reads=None,
        transfer_ok=True,
        queue_lens=None,
        stat_queue_lens=None,
        failing_sources=(),
    ):
        self.ack_plan = ack_plan
        self.reads = reads or {}  # path -> (data, source) | None
        self.transfer_ok = transfer_ok
        self.queue_lens = list(queue_lens or [])
        self.stat_queue_lens = list(stat_queue_lens or [])
        self.failing_sources = set(failing_sources)  # read_from → None for the whole batch
        self.transfers = []
        self.read_batches = []  # (node, paths) per read_from call
        self.transfer_batches = []  # paths per transfer call
        self.traces = []  # (name, attrs) per trace_op block
        self.plan_calls = []

    def join_plan(self, node, planned_keys, planned_bytes, epoch):
        self.plan_calls.append((node, planned_keys, planned_bytes, epoch))
        return self.ack_plan

    @contextlib.contextmanager
    def trace_op(self, name, **attrs):
        self.traces.append((name, attrs))
        yield

    def read_from(self, node, paths):
        self.read_batches.append((node, list(paths)))
        if node in self.failing_sources:
            return None
        return [self.reads.get(p, (b"x" * 8, "cache")) for p in paths]

    def transfer(self, node, items):
        if self.transfer_ok is None:
            return None  # unreachable
        self.transfer_batches.append([p for p, _ in items])
        replies = []
        for path, data in items:
            self.transfers.append((node, path, data))
            q = self.queue_lens.pop(0) if self.queue_lens else 0
            replies.append({"accepted": bool(self.transfer_ok), "queue_len": q})
        return replies

    def server_stat(self, node):
        if not self.stat_queue_lens:
            return None
        return {"mover_queue_len": self.stat_queue_lens.pop(0)}


class FakePFS:
    def __init__(self, files=None):
        self.files = files or {}
        self.reads = []

    def read(self, path):
        self.reads.append(path)
        try:
            return self.files[path]
        except KeyError:
            raise FileNotFoundError(path) from None


def make_coord(plan, control, pfs=None, **kw):
    events = []
    coord = JoinCoordinator(
        plan=plan,
        control=control,
        pfs=pfs if pfs is not None else FakePFS(),
        cutover=lambda: events.append("cutover") or 5,
        rollback=lambda: events.append("rollback"),
        queue_depth=kw.pop("queue_depth", 8),
        **kw,
    )
    return coord, events


class TestStateMachine:
    def test_happy_path(self):
        plan = make_plan([("/a", 0), ("/b", 1)])
        control = FakeControl()
        coord, events = make_coord(plan, control)
        assert coord.state is JoinState.PLANNED
        report = coord.run()
        assert coord.state is JoinState.SERVING
        assert events == ["cutover"]
        assert report.warmed_keys == 2
        assert report.cutover_epoch == 5 and report.planned_epoch == 4
        assert control.plan_calls == [(9, 2, 0, 4)]
        assert [p for _, p, _ in control.transfers] == ["/a", "/b"]

    def test_unacknowledged_plan_aborts_before_any_transfer(self):
        plan = make_plan([("/a", 0)])
        control = FakeControl(ack_plan=False)
        coord, events = make_coord(plan, control)
        with pytest.raises(JoinAborted):
            coord.run()
        assert coord.state is JoinState.ABORTED
        assert events == ["rollback"]
        assert control.transfers == []

    def test_unreachable_during_warmup_aborts_and_rolls_back(self):
        plan = make_plan([("/a", 0)])
        control = FakeControl(transfer_ok=None)
        coord, events = make_coord(plan, control)
        with pytest.raises(JoinAborted):
            coord.run()
        assert coord.state is JoinState.ABORTED
        assert events == ["rollback"]
        assert coord.report.abort_reason

    def test_no_transitions_out_of_terminal_states(self):
        plan = make_plan([])
        coord, _ = make_coord(plan, FakeControl())
        coord.run()
        with pytest.raises(RuntimeError):
            coord._transition(JoinState.WARMING)


class TestWarmupDataPaths:
    def test_source_accounting(self):
        plan = make_plan([("/cache", 0), ("/srv-pfs", 1), ("/fallback", 2)])
        control = FakeControl(
            reads={
                "/cache": (b"c", "cache"),
                "/srv-pfs": (b"p", "pfs"),
                "/fallback": None,  # owner timed out: coordinator goes to PFS
            }
        )
        pfs = FakePFS(files={"/fallback": b"f"})
        coord, _ = make_coord(plan, control, pfs=pfs)
        report = coord.run()
        assert report.source_cache_reads == 1
        assert report.source_pfs_reads == 1
        assert report.pfs_fallback_reads == 1
        assert report.warmed_keys == 3
        assert pfs.reads == ["/fallback"]

    def test_vanished_key_is_skipped_not_fatal(self):
        plan = make_plan([("/gone", 0), ("/ok", 1)])
        control = FakeControl(reads={"/gone": None, "/ok": (b"k", "cache")})
        coord, _ = make_coord(plan, control, pfs=FakePFS())
        report = coord.run()
        assert report.warmed_keys == 1
        assert report.extras["missing_keys"] == 1
        assert coord.state is JoinState.SERVING

    def test_rejected_transfer_counted(self):
        plan = make_plan([("/a", 0)])
        control = FakeControl(transfer_ok=False)
        coord, _ = make_coord(plan, control)
        report = coord.run()
        assert report.transfers_rejected == 1 and report.warmed_keys == 0


class TestBatches:
    def test_batch_is_the_server_pipeline_depth(self):
        from repro.runtime.server import _PIPELINE_DEPTH

        assert WARM_BATCH == _PIPELINE_DEPTH == 64

    def test_source_with_65_keys_gives_batches_of_64_and_1_in_plan_order(self):
        moves = [(f"/k{i}", 1 if i % 3 == 2 else 0) for i in range(97)]
        plan = make_plan(moves)
        control = FakeControl()
        coord, _ = make_coord(plan, control)
        report = coord.run()
        from_0 = [p for p, s in moves if s == 0]
        from_1 = [p for p, s in moves if s == 1]
        assert len(from_0) == 65
        assert control.read_batches == [(0, from_0[:64]), (0, from_0[64:]), (1, from_1)]
        assert control.transfer_batches == [from_0[:64], from_0[64:], from_1]
        assert [attrs for name, attrs in control.traces] == [
            {"source": 0, "keys": 64}, {"source": 0, "keys": 1}, {"source": 1, "keys": 32}
        ]
        assert {name for name, _ in control.traces} == {"join.warm_batch"}
        assert report.warmed_keys == report.source_cache_reads == 97

    def test_key_missing_at_its_owner_alone_falls_back_to_the_pfs(self):
        plan = make_plan([("/a", 0), ("/b", 0), ("/c", 0)])
        control = FakeControl(reads={"/b": None})
        pfs = FakePFS(files={"/b": b"pfs-b"})
        coord, _ = make_coord(plan, control, pfs=pfs)
        report = coord.run()
        assert pfs.reads == ["/b"]
        assert report.source_cache_reads == 2 and report.pfs_fallback_reads == 1
        assert report.source_failures == 0
        assert [(p, d) for _, p, d in control.transfers] == [
            ("/a", b"x" * 8), ("/b", b"pfs-b"), ("/c", b"x" * 8)
        ]

    def test_whole_batch_none_sends_that_batch_to_the_pfs(self):
        plan = make_plan([("/a", 0), ("/b", 1), ("/c", 0)])
        control = FakeControl(failing_sources={0})
        pfs = FakePFS(files={"/a": b"a", "/c": b"c"})
        coord, _ = make_coord(plan, control, pfs=pfs)
        report = coord.run()
        assert pfs.reads == ["/a", "/c"]
        assert report.pfs_fallback_reads == 2 and report.source_cache_reads == 1
        assert report.source_failures == 1
        assert report.warmed_keys == 3 and coord.state is JoinState.SERVING

    def test_failing_source_is_asked_once_per_join(self):
        """A hung source costs one TTL per join, not one per key or batch."""
        paths = [f"/k{i}" for i in range(130)]
        plan = make_plan([(p, 0) for p in paths])
        control = FakeControl(failing_sources={0})
        pfs = FakePFS(files=dict.fromkeys(paths, b"p"))
        coord, _ = make_coord(plan, control, pfs=pfs)
        report = coord.run()
        assert control.read_batches == [(0, paths[:64])]
        assert report.pfs_fallback_reads == 130
        assert report.source_failures == 1
        assert report.warmed_keys == 130
        assert control.transfer_batches == [paths[:64], paths[64:128], paths[128:]]

    def test_none_transfer_batch_aborts_and_rolls_back(self):
        plan = make_plan([("/a", 0), ("/b", 0), ("/c", 1)])
        control = FakeControl(transfer_ok=None)
        coord, events = make_coord(plan, control)
        with pytest.raises(JoinAborted):
            coord.run()
        assert coord.state is JoinState.ABORTED
        assert events == ["rollback"]
        assert coord.report.warmed_keys == 0
        assert len(control.read_batches) == 1  # aborted on the first batch


class TestThrottle:
    def test_fires_on_the_batch_largest_queue_len(self):
        plan = make_plan([("/a", 0), ("/b", 0), ("/c", 0)])
        # the last reply is below the watermark (6); the middle one is not
        control = FakeControl(queue_lens=[1, 8, 2], stat_queue_lens=[0])
        coord, _ = make_coord(plan, control, throttle_sleep=0.001)
        report = coord.run()
        assert report.throttle_pauses == 1


    def test_pauses_until_queue_drains(self):
        plan = make_plan([("/a", 0)])
        # transfer reply reports a full queue; two stats polls later it drains
        control = FakeControl(queue_lens=[8], stat_queue_lens=[8, 0])
        coord, _ = make_coord(plan, control, throttle_sleep=0.001)
        report = coord.run()
        assert report.throttle_pauses == 2

    def test_no_pause_below_watermark(self):
        plan = make_plan([("/a", 0), ("/b", 1)])
        control = FakeControl(queue_lens=[1, 2])
        coord, _ = make_coord(plan, control)
        report = coord.run()
        assert report.throttle_pauses == 0

    def test_stat_timeout_breaks_the_loop(self):
        plan = make_plan([("/a", 0)])
        control = FakeControl(queue_lens=[8], stat_queue_lens=[])  # stat → None
        coord, _ = make_coord(plan, control, throttle_sleep=0.001)
        report = coord.run()
        assert report.throttle_pauses == 1
        assert coord.state is JoinState.SERVING


class TestValidation:
    def test_bad_params(self):
        plan = make_plan([])
        with pytest.raises(ValueError):
            JoinCoordinator(plan, FakeControl(), FakePFS(), cutover=lambda: 1, queue_depth=0)
        with pytest.raises(ValueError):
            JoinCoordinator(
                plan, FakeControl(), FakePFS(), cutover=lambda: 1, throttle_fraction=0.0
            )

    def test_ringdiff_integration_smoke(self):
        """Coordinator consumes a real plan object end-to-end."""
        from repro.core import HashRing

        ring = HashRing(nodes=range(3), vnodes_per_node=50)
        keys = [f"/k{i}" for i in range(1000)]
        plan = RingDiff(ring).plan_join(3, keys)
        control = FakeControl()
        coord, _ = make_coord(plan, control)
        report = coord.run()
        assert report.warmed_keys == plan.moved_keys == len(control.transfers)
        batches = sum(math.ceil(n / WARM_BATCH) for n in plan.keys_by_source.values())
        assert len(control.read_batches) == len(control.transfer_batches) == batches
        assert batches > len(plan.keys_by_source)  # some source needed more than one batch
