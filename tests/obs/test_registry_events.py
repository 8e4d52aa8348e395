"""Telemetry registry and the structured event log."""

import json
import threading

import pytest

from repro.obs import Counters, EventLog, Telemetry, get_event_log, reset_event_log


class TestTelemetry:
    def test_adopted_group_reads_live_store(self):
        t = Telemetry(node=1)
        store = Counters(("hits",))
        t.adopt_counters("server", store)
        assert t.snapshot()["counter_groups"]["server"] == {"hits": 0}
        store.bump(hits=5)
        assert t.snapshot()["counter_groups"]["server"] == {"hits": 5}

    def test_gauges_sampled_at_snapshot_time(self):
        t = Telemetry()
        box = {"v": 1.0}
        t.gauge("queue_len", lambda: box["v"])
        assert t.snapshot()["gauges"]["queue_len"] == 1.0
        box["v"] = 7.0
        assert t.snapshot()["gauges"]["queue_len"] == 7.0

    def test_broken_provider_reports_error_not_raise(self):
        t = Telemetry()
        t.gauge("bad", lambda: 1 / 0)
        t.gauge("good", lambda: 2)
        snap = t.snapshot()
        assert snap["gauges"]["bad"].startswith("error:")
        assert snap["gauges"]["good"] == 2

    def test_histograms(self):
        t = Telemetry()
        assert t.histogram("op_read_s") is None
        for v in (0.001, 0.002, 0.003):
            t.observe("op_read_s", v)
        hist = t.histogram("op_read_s")
        assert hist.count == 3
        snap = t.snapshot()
        assert snap["histograms"]["op_read_s"]["count"] == 3

    def test_snapshot_is_json_safe(self):
        t = Telemetry(node=0)
        t.adopt_counters("c", Counters(("n",)))
        t.observe("h", 0.01)
        t.gauge("g", lambda: 2.5)
        json.dumps(t.snapshot())


class TestEventLog:
    def test_capacity_validated(self):
        with pytest.raises(ValueError):
            EventLog(capacity=0)

    def test_emit_records_both_clocks(self):
        log = EventLog(node=3)
        rec = log.emit("death_declared", node=1)
        assert rec["kind"] == "death_declared"
        assert rec["t_wall"] > 0 and rec["t_mono"] > 0
        assert log.snapshot() == [rec]

    def test_drop_oldest_accounting(self):
        log = EventLog(capacity=2)
        for i in range(4):
            log.emit("eviction", i=i)
        assert [e["i"] for e in log.snapshot()] == [2, 3]
        counters = log.counters()
        assert counters["events_emitted"] == 4
        assert counters["events_dropped"] == 2

    def test_kind_filter_and_limit(self):
        log = EventLog()
        log.emit("chaos", action="kill", node=0)
        log.emit("ring_epoch", epoch=1)
        log.emit("chaos", action="restart", node=0)
        assert [e["action"] for e in log.snapshot(kind="chaos")] == ["kill", "restart"]
        assert [e["action"] for e in log.snapshot(kind="chaos", limit=1)] == ["restart"]

    def test_jsonl_sink_appends_whole_lines(self, tmp_path):
        path = tmp_path / "events" / "log.jsonl"
        log = EventLog(path=path, node=0)
        try:
            log.emit("recache_begin", path="/a", nbytes=10)
            log.emit("recache_end", path="/a", ok=True)
        finally:
            log.close_sink()
        lines = [json.loads(l) for l in path.read_text().splitlines()]
        assert [l["kind"] for l in lines] == ["recache_begin", "recache_end"]
        assert all(l["node"] == 0 for l in lines)

    def test_concurrent_emitters_never_tear_lines(self, tmp_path):
        path = tmp_path / "log.jsonl"
        log = EventLog(path=path)

        def _emit(tid):
            for i in range(100):
                log.emit("eviction", tid=tid, i=i)

        threads = [
            threading.Thread(target=_emit, args=(t,), name=f"obs-test-emit-{t}", daemon=True)
            for t in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        log.close_sink()
        lines = path.read_text().splitlines()
        assert len(lines) == 400
        for line in lines:
            json.loads(line)  # every line is one complete record


class TestGlobalLog:
    def test_get_is_a_singleton_until_reset(self):
        a = get_event_log()
        assert get_event_log() is a
        b = reset_event_log()
        assert b is not a
        assert get_event_log() is b
