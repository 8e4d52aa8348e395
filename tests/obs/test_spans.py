"""Spans, the ring buffer, and the tracer: balance invariants included."""

import threading

import pytest

from repro.obs import NULL_SPAN, Span, SpanBuffer, Tracer
from repro.obs.context import TraceContext


class TestSpanBuffer:
    def test_capacity_validated(self):
        with pytest.raises(ValueError):
            SpanBuffer(capacity=0)

    def test_drop_oldest_with_accounting(self):
        buf = SpanBuffer(capacity=3)
        for i in range(5):
            buf.add({"i": i})
        assert len(buf) == 3
        assert buf.spans_recorded == 5
        assert buf.spans_dropped == 2
        assert [s["i"] for s in buf.snapshot()] == [2, 3, 4]  # oldest-first

    def test_snapshot_limit_takes_most_recent(self):
        buf = SpanBuffer(capacity=8)
        for i in range(6):
            buf.add({"i": i})
        assert [s["i"] for s in buf.snapshot(limit=2)] == [4, 5]

    def test_drain_clears_but_keeps_counters(self):
        buf = SpanBuffer(capacity=2)
        for i in range(3):
            buf.add({"i": i})
        assert len(buf.drain()) == 2
        assert len(buf) == 0
        assert buf.counters()["spans_recorded"] == 3
        assert buf.counters()["spans_dropped"] == 1


class TestSpan:
    def test_end_is_idempotent(self):
        tracer = Tracer(node="n")
        span = tracer.start_trace("op")
        span.end()
        span.end(status="error")  # second call must not re-record or mutate
        spans = tracer.buffer.snapshot()
        assert len(spans) == 1
        assert spans[0]["status"] == "ok"
        assert tracer.counters()["spans_closed"] == 1

    def test_context_manager_records_error_status(self):
        tracer = Tracer(node="n")
        with pytest.raises(RuntimeError):
            with tracer.start_trace("op"):
                raise RuntimeError("boom")
        assert tracer.buffer.snapshot()[0]["status"] == "error"

    def test_record_shape(self):
        tracer = Tracer(node="srv-3")
        span = tracer.start_trace("client.read", path="/a")
        child = tracer.start_span("rpc", span, node_id=0)
        child.end()
        span.end()
        child_rec, root_rec = tracer.buffer.snapshot()
        assert root_rec["name"] == "client.read"
        assert root_rec["parent_id"] is None
        assert root_rec["attrs"] == {"path": "/a"}
        assert child_rec["trace_id"] == root_rec["trace_id"]
        assert child_rec["parent_id"] == root_rec["span_id"]
        for rec in (child_rec, root_rec):
            assert rec["node"] == "srv-3"
            assert rec["duration_s"] >= 0.0
            assert "t_wall" in rec and "t_mono" in rec

    def test_cross_thread_end_is_safe(self):
        # The loop starts exec-queue spans and a dispatch thread ends them;
        # the contextvar token reset must not blow up.
        tracer = Tracer(node="n")
        span = tracer.start_trace("server.exec_queue")
        t = threading.Thread(target=span.end, name="obs-test-end", daemon=True)
        t.start()
        t.join()
        assert tracer.buffer.snapshot()[0]["name"] == "server.exec_queue"


class TestTracerSampling:
    def test_disabled_tracer_returns_null(self):
        tracer = Tracer(node="n", enabled=False)
        assert tracer.start_trace("op") is NULL_SPAN
        assert tracer.start_span("x", TraceContext.root()) is NULL_SPAN

    def test_zero_rate_samples_nothing(self):
        tracer = Tracer(node="n", sample_rate=0.0)
        assert all(tracer.start_trace("op") is NULL_SPAN for _ in range(20))

    def test_unsampled_trace_stays_dark_downstream(self):
        tracer = Tracer(node="n", sample_rate=0.0)
        root = tracer.start_trace("op")
        assert root.ctx is None  # nothing to inject into headers
        assert tracer.start_span("child", root) is NULL_SPAN

    def test_remote_context_always_records(self):
        # The upstream already paid the sampling coin toss: a server-side
        # tracer records every span parented under an extracted context.
        tracer = Tracer(node="srv", sample_rate=0.0)
        span = tracer.start_span("server.read", TraceContext.root())
        assert isinstance(span, Span)
        span.end()
        assert len(tracer.buffer) == 1

    def test_fractional_rate_is_seed_deterministic(self):
        picks = []
        for _ in range(2):
            tracer = Tracer(node="n", sample_rate=0.5, seed=42)
            row = []
            for _ in range(50):
                span = tracer.start_trace("op")
                row.append(span is not NULL_SPAN)
                span.end()
            picks.append(row)
        assert picks[0] == picks[1]
        assert any(picks[0]) and not all(picks[0])


class TestSpanBalance:
    """The property the whole design promises: starts == ends, parents exist."""

    def test_every_started_span_closes_exactly_once(self):
        tracer = Tracer(node="n")
        roots = [tracer.start_trace(f"op-{i}") for i in range(10)]
        children = [tracer.start_span("child", r, k=i) for i, r in enumerate(roots)]
        grandchildren = [tracer.start_span("grand", c) for c in children[:5]]
        for span in grandchildren + children + roots:
            span.end()
            span.end()  # double-close must stay a no-op
        counters = tracer.counters()
        assert counters["spans_started"] == counters["spans_closed"] == 25
        assert tracer.in_flight == 0
        assert counters["spans_recorded"] == 25
        assert counters["spans_dropped"] == 0

    def test_every_recorded_parent_exists_in_its_trace(self):
        tracer = Tracer(node="n")
        for i in range(8):
            with tracer.start_trace(f"op-{i}") as root:
                with tracer.start_span("mid", root) as mid:
                    tracer.start_span("leaf", mid).end()
        spans = tracer.buffer.snapshot()
        by_trace: dict[str, set] = {}
        for s in spans:
            by_trace.setdefault(s["trace_id"], set()).add(s["span_id"])
        for s in spans:
            if s["parent_id"] is not None:
                assert s["parent_id"] in by_trace[s["trace_id"]]

    def test_balance_holds_under_concurrency(self):
        tracer = Tracer(node="n")

        def _work():
            for i in range(50):
                with tracer.start_trace("op") as root:
                    tracer.start_span("child", root).end()

        threads = [
            threading.Thread(target=_work, name=f"obs-test-work-{i}", daemon=True)
            for i in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert tracer.in_flight == 0
        assert tracer.counters()["spans_started"] == 400
