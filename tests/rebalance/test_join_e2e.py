"""End-to-end elastic join against a real LocalCluster (sockets and all).

The contract under test is the tentpole: a live join is planned, warmed
through the joiner's install path, and cut over with zero client-visible errors —
and the MembershipView admission is observable *before* any placement can
route to the new node (the lookup-before-backfill window).
"""

import time

import pytest

from repro.rebalance import JoinState
from repro.rebalance.coordinator import WARM_BATCH
from repro.runtime.cluster import LocalCluster


def _wait_mover_drained(server, timeout=5.0):
    """Transfers are installed after their replies; wait for the flush."""
    deadline = time.monotonic() + timeout
    while server.mover_queue_len and time.monotonic() < deadline:
        time.sleep(0.01)


@pytest.fixture
def cluster(tmp_path):
    with LocalCluster(
        n_servers=3, workdir=tmp_path, policy="nvme", ttl=0.5, timeout_threshold=2
    ) as c:
        c.populate(n_files=96, file_bytes=2048)
        yield c


class TestJoinE2E:
    def test_join_moves_planned_keys_with_zero_errors(self, cluster):
        client = cluster.client()
        for p in cluster.paths:
            client.read(p)  # warm the source caches

        report = cluster.join_server(weight=1.5)
        assert report.state == JoinState.SERVING.value
        plan = report.plan
        assert report.warmed_keys == plan.moved_keys > 0
        assert plan.theoretical_fraction == pytest.approx(1.5 / 4.5)
        # warmup read from current owners' caches, never the PFS directly
        assert report.source_cache_reads == plan.moved_keys
        assert report.pfs_fallback_reads == 0

        # post-cutover: exactly the planned keys route to the new node...
        node = report.node
        _wait_mover_drained(cluster.servers[node])
        moved = {p for p, _ in plan.moves}
        routed = {p for p in cluster.paths if client.policy.placement.lookup(p) == node}
        assert routed == moved
        # ...and it serves them as cache hits (the backfill landed)
        for p in cluster.paths:
            client.read(p)
        stat = client.server_stat(node)
        assert stat["hits"] == len(moved)
        assert stat["transfers_in"] == report.warmed_keys
        assert stat["transfer_bytes"] == report.warmed_bytes
        assert stat["join_plans"] == 1
        assert client.stats["timeouts"] == 0 and client.stats["declared"] == 0

    def test_join_after_kill_and_restart(self, cluster):
        """A join composes with a repair: the rejoined node kept its cache,
        so the warmup still reads every moved key from a source cache."""
        client = cluster.client()
        for p in cluster.paths:
            client.read(p)
        for server in cluster.servers.values():
            _wait_mover_drained(server)
        cluster.kill_server(0)
        cluster.restart_server(0)
        report = cluster.join_server()
        assert report.state == JoinState.SERVING.value
        assert report.warmed_keys == report.source_cache_reads == report.plan.moved_keys > 0
        for p in cluster.paths:
            client.read(p)
        assert client.stats["timeouts"] == 0 and client.stats["declared"] == 0

    def test_membership_notified_before_any_placement_routes(self, cluster):
        """Regression: the lookup-before-backfill window.

        Subscribers observing the membership admission must see pre-join
        routing — no client placement may know the node yet when the
        version bump and notification land."""
        client = cluster.client()
        observed = []

        def listener(node, state):
            placements_knowing_node = [
                c for c in cluster._clients if node in c.policy.placement.nodes
            ]
            observed.append(
                (node, state.name, cluster.membership.version, placements_knowing_node)
            )

        cluster.membership.subscribe(listener)
        v0 = cluster.membership.version
        report = cluster.join_server()
        node = report.node

        joins = [o for o in observed if o[0] == node]
        assert len(joins) == 1
        _, state, version_at_notify, placements = joins[0]
        assert state == "ACTIVE"
        assert version_at_notify == v0 + 1  # bumped before notification
        assert placements == []  # no placement had the node yet
        # after cutover completes, every client placement knows it
        assert all(node in c.policy.placement.nodes for c in cluster._clients)
        assert client.policy.placement.weight_of(node) == 1.0

    def test_epoch_advances_and_connections_survive(self, cluster):
        client = cluster.client()
        for p in cluster.paths[:8]:
            client.read(p)
        e0 = cluster.ring_epoch.value
        report = cluster.join_server()
        assert report.cutover_epoch == cluster.ring_epoch.value == e0 + 1
        assert report.planned_epoch == e0
        # pooled sockets to old owners keep working (no reconnect storm,
        # no detector evidence) — only routing changed
        for p in cluster.paths[:8]:
            client.read(p)
        assert client.stats["timeouts"] == 0

    def test_weighted_join_visible_to_future_clients(self, cluster):
        cluster.join_server(weight=2.0)
        late = cluster.client()
        node = max(cluster.servers)
        assert late.policy.placement.weight_of(node) == 2.0
        # the heavy node owns roughly twice a unit node's share
        fr = late.policy.placement.arc_fractions()
        assert fr[node] == pytest.approx(2.0 / 5.0, abs=0.08)

    def test_sequential_joins(self, cluster):
        r1 = cluster.join_server()
        r2 = cluster.join_server()
        assert r1.node != r2.node
        assert len(cluster.join_reports) == 2
        assert cluster.membership.active_nodes == tuple(sorted(cluster.servers))
        client = cluster.client()
        for p in cluster.paths:
            client.read(p)
        assert client.stats["timeouts"] == 0

    def test_join_reads_fall_back_to_pfs_when_sources_cold(self, cluster):
        # no client ever read anything: source caches are cold, so warmup
        # bytes come via the owners' PFS fallthrough (still not direct PFS)
        report = cluster.join_server()
        assert report.state == JoinState.SERVING.value
        assert report.source_pfs_reads == report.plan.moved_keys
        assert report.source_cache_reads == 0

    def test_hung_source_is_asked_once_and_its_keys_come_from_the_pfs(self, tmp_path):
        """A source that hangs before the join costs one TTL, not one per
        moved key: its first READ batch times out, the rest of its keys are
        read from the PFS, and no foreground client sees a timeout."""
        with LocalCluster(
            n_servers=3, workdir=tmp_path, policy="nvme", ttl=0.5, timeout_threshold=2
        ) as c:
            c.populate(n_files=640, file_bytes=256)
            client = c.client()
            for p in c.paths:
                client.read(p)
            hung = 0
            c.servers[hung].kill(mode="hang")
            report = c.join_server(weight=3.0)
            plan = report.plan
            assert plan.keys_by_source[hung] > WARM_BATCH  # at least two batches
            assert report.state == JoinState.SERVING.value
            assert report.source_failures == 1
            assert report.pfs_fallback_reads == plan.keys_by_source[hung]
            assert report.warmed_keys == plan.moved_keys
            assert report.warmup_seconds < 10 * c.ttl  # one TTL per moved key would be ~40 s
            # the joiner serves every moved key from its cache, the hung source's included
            _wait_mover_drained(c.servers[report.node])
            for p, _ in plan.moves:
                client.read(p)
            assert client.server_stat(report.node)["hits"] == plan.moved_keys
            assert client.stats["timeouts"] == 0 and client.stats["declared"] == 0
