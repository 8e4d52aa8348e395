"""End-to-end tracing over real sockets: propagation, failover, warmup.

These are the trace-propagation invariants the tentpole promises:

* a traced ``client.read`` stitches into one tree spanning the client
  process-side and the owning server (cross-node exemplar);
* span balance holds for every component tracer after quiescence;
* a kill→restart failover keeps the trace intact — the timed-out RPC
  span and the successful re-route live under the same root;
* a live ``join_server`` warmup roots one trace per batch of moved keys
  that spans the control client, the source owner, and the joining node;
* ``OP_OBS`` exports the unified snapshot without disturbing RPC
  conformance; tracing disabled injects no headers and records nothing;
* ``dump_obs`` → ``python -m repro.obs`` accounts for where READ latency
  goes and renders a cross-node critical path.
"""

import json
import math
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.obs import build_traces, get_event_log
from repro.obs.__main__ import analyse, main as obs_main
from repro.rebalance.coordinator import WARM_BATCH
from repro.runtime import LocalCluster


@pytest.fixture
def traced_cluster():
    with LocalCluster(
        n_servers=3, policy="nvme", ttl=0.3, timeout_threshold=2,
        trace_sample_rate=1.0, trace_seed=9,
    ) as c:
        c.populate(n_files=18, file_bytes=1024, seed=5)
        yield c


def _quiesce(cluster, client, timeout: float = 10.0) -> None:
    """Condition wait: every install claimed before a reply is written, and
    every tracer has closed each span it started."""
    deadline = time.monotonic() + timeout
    for node in cluster.servers:
        while client.server_stat(node)["mover_queue_len"]:
            assert time.monotonic() < deadline, f"node {node}'s installs never landed"
    tracers = [client.tracer, *(s.tracer for s in cluster.servers.values())]
    while any(t.in_flight for t in tracers):
        assert time.monotonic() < deadline, "a span was started and never ended"


def _all_spans(cluster):
    spans = []
    for s in cluster.servers.values():
        spans.extend(s.tracer.buffer.snapshot())
    for c in cluster._clients:
        spans.extend(c.tracer.buffer.snapshot())
    spans.extend(cluster.control_spans.snapshot())
    return spans


class TestCrossNodeStitching:
    def test_read_trace_spans_client_and_server(self, traced_cluster):
        client = traced_cluster.client()
        for p in traced_cluster.paths[:6]:
            client.read(p)
        traces = build_traces(_all_spans(traced_cluster))
        stitched = 0
        for roots in traces.values():
            for root in roots:
                if root.name != "client.read":
                    continue
                nodes = set()

                def _walk(n):
                    nodes.add(str(n.node))
                    for c in n.children:
                        _walk(c)

                _walk(root)
                if len(nodes) >= 2:  # client-N plus a server id
                    stitched += 1
        assert stitched >= 6

    def test_span_balance_after_quiescence(self, traced_cluster):
        client = traced_cluster.client()
        for p in traced_cluster.paths:
            client.read(p)
        _quiesce(traced_cluster, client)  # the installs after the replies end their spans

    def test_recache_spans_reach_the_mover(self, traced_cluster):
        client = traced_cluster.client()
        for p in traced_cluster.paths[:4]:
            client.read(p)  # miss → PFS → mover recache
        _quiesce(traced_cluster, client)
        names = {s["name"] for s in _all_spans(traced_cluster)}
        assert {"mover.nvme_write", "server.pfs_read"} <= names


class TestFailoverTracing:
    def test_trace_survives_kill_and_restart(self, traced_cluster):
        client = traced_cluster.client()
        path = traced_cluster.paths[0]
        client.read(path)
        victim = traced_cluster.owner_of(path, client.policy)
        traced_cluster.kill_server(victim)
        client.read(path)  # timeout → declare → re-route, all in one trace
        spans = [s for s in client.tracer.buffer.snapshot() if s["name"] == "client.rpc_read"]
        assert any(s["status"] == "timeout" for s in spans)
        traces = build_traces(client.tracer.buffer.snapshot())
        # the failed RPC and the declaring read share a trace
        for roots in traces.values():
            for root in roots:
                if root.name == "client.read" and any(
                    c.span["status"] == "timeout" for c in root.children
                ):
                    assert root.span["status"] in ("ok", "error")
                    break
        traced_cluster.restart_server(victim, notify_clients=[client])
        client.read(path)
        restarted_spans = traced_cluster.servers[victim].tracer.buffer.snapshot()
        # the fresh server instance participates in post-restart traces
        assert any(s["name"].startswith("server.") for s in restarted_spans)
        kinds = {e["kind"] for e in get_event_log().snapshot()}
        assert {"node_killed", "death_declared", "node_restarted"} <= kinds


class TestJoinWarmupTracing:
    def test_warm_key_traces_span_three_processes(self, traced_cluster):
        """One ``join.warm_batch`` trace per batch, each crossing processes."""
        client = traced_cluster.client()
        for p in traced_cluster.paths:
            client.read(p)
        _quiesce(traced_cluster, client)
        report = traced_cluster.join_server(weight=1.0)
        assert report.warmed_keys > 0
        traces = build_traces(_all_spans(traced_cluster))
        warm_roots = [
            r for roots in traces.values() for r in roots if r.name == "join.warm_batch"
        ]
        assert warm_roots, "no warmup traces recorded"
        batches = sum(math.ceil(n / WARM_BATCH) for n in report.plan.keys_by_source.values())
        assert len(warm_roots) == batches
        crossed = 0
        for root in warm_roots:
            nodes = set()

            def _walk(n):
                nodes.add(str(n.node))
                for c in n.children:
                    _walk(c)

            _walk(root)
            if len(nodes) >= 2:  # control plus at least one server
                crossed += 1
        assert crossed > 0
        kinds = [e["to_state"] for e in get_event_log().snapshot(kind="join_state")]
        assert kinds == ["WARMING", "SERVING"]


class TestObsExport:
    def test_obs_snapshot_round_trip(self, traced_cluster):
        client = traced_cluster.client()
        client.read(traced_cluster.paths[0])
        node = traced_cluster.owner_of(traced_cluster.paths[0], client.policy)
        snap = client.obs_snapshot(node)
        assert snap is not None
        assert snap["node"] == node
        assert "hits" in snap["counter_groups"]["server"]
        assert "mover_queue_len" in snap["gauges"]
        assert snap["tracer"]["spans_started"] >= snap["tracer"]["spans_closed"] >= 1
        assert any(s["name"] == "server.read" for s in snap["spans"])
        assert "op_read_s" in snap["histograms"]

    def test_obs_snapshot_none_for_dead_node(self, traced_cluster):
        client = traced_cluster.client()
        traced_cluster.kill_server(0)
        assert client.obs_snapshot(0) is None

    def test_disabled_tracing_records_nothing_and_injects_nothing(self):
        with LocalCluster(n_servers=2, policy="nvme", ttl=0.5) as cluster:
            cluster.populate(n_files=4, file_bytes=512, seed=3)
            client = cluster.client()
            for p in cluster.paths:
                client.read(p)
            assert not client.tracer.enabled
            assert len(client.tracer.buffer) == 0
            # server tracers only record under an extracted remote context
            for s in cluster.servers.values():
                assert len(s.tracer.buffer) == 0


def _traced_reads_dumped(cluster, obs_dir):
    """Two closed-loop readers over the corpus (the first pass misses, the
    rest hit), then every process's spans dumped under ``obs_dir``."""
    client = cluster.client()
    with ThreadPoolExecutor(max_workers=2) as pool:
        assert all(pool.map(client.read, cluster.paths * 4))
    _quiesce(cluster, client)
    return cluster.dump_obs(obs_dir)


class TestScenarioObsBlock:
    def test_v4_artifact_carries_breakdown_and_exemplars(self, traced_cluster, tmp_path):
        obs_dir = tmp_path / "obs"
        _traced_reads_dumped(traced_cluster, obs_dir)
        report = analyse([str(obs_dir)], slowest=1, root_name="client.read")
        assert report["spans"] > 0 and report["traces"] > 0
        assert {"client.read", "server.read"} <= set(report["stage_breakdown"])
        # the acceptance bar: stages account for >= 90% of READ latency at p50
        assert report["coverage_p50"] >= 0.9
        assert report["slowest"], "no exemplar traces"
        hops = report["slowest"][0]["critical_path"]
        assert hops[0]["name"] == "client.read"
        assert len({h["node"] for h in hops}) >= 2, "the slowest read never left the client"

    def test_dump_obs_round_trips_through_the_cli(self, traced_cluster, tmp_path, capsys):
        obs_dir = tmp_path / "obs"
        files = _traced_reads_dumped(traced_cluster, obs_dir)
        assert any(f.name.startswith("spans-server-") for f in files)
        assert any(f.name.startswith("spans-client-") for f in files)

        out = tmp_path / "analysis.json"
        assert obs_main([str(obs_dir), "--slowest", "1", "--root-name", "client.read",
                         "--json", str(out)]) == 0
        text = capsys.readouterr().out
        assert "client.read" in text and "critical path:" in text
        report = analyse([str(obs_dir)], slowest=1, root_name="client.read")
        assert json.loads(out.read_text())["spans"] == report["spans"]
