"""Tests for the three fault-tolerance policies (NoFT / PFS / NVMe)."""

import numpy as np
import pytest

from repro.core import (
    ElasticRecache,
    HashRing,
    NoFT,
    PFSRedirect,
    StaticHash,
    Target,
    UnrecoverableNodeFailure,
    bulk_hash64,
    make_policy,
)

KEYS = [f"/d/sample_{i:05d}" for i in range(300)]


def ring(n=8):
    return HashRing(nodes=range(n), vnodes_per_node=50)


class TestTarget:
    def test_constructors(self):
        assert Target.to_node(3) == Target("node", 3)
        assert Target.to_pfs() == Target("pfs")


class TestMakePolicy:
    @pytest.mark.parametrize(
        "name,cls",
        [("NoFT", NoFT), ("FT w/ PFS", PFSRedirect), ("pfs", PFSRedirect),
         ("FT w/ NVMe", ElasticRecache), ("nvme", ElasticRecache)],
    )
    def test_names(self, name, cls):
        assert isinstance(make_policy(name, ring()), cls)

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            make_policy("bogus", ring())

    @pytest.mark.parametrize("name", ["noft", "elastic"])
    def test_retired_aliases_refused(self, name):
        with pytest.raises(ValueError):
            make_policy(name, ring())


class TestBulkRouting:
    """``targets_for`` — one bulk ring lookup per batch — routes every key
    exactly as ``target_for`` does, through failure and join."""

    @pytest.mark.parametrize("seed", [1, 2])
    @pytest.mark.parametrize("probes", [1, 3])
    @pytest.mark.parametrize("cls", [NoFT, PFSRedirect, ElasticRecache])
    def test_agrees_with_target_for(self, cls, probes, seed):
        rng = np.random.default_rng(seed)
        keys = [f"/d/sample_{i:05d}" for i in rng.choice(100_000, size=400, replace=False)]
        policy = cls(HashRing(nodes=range(6), vnodes_per_node=40, probes=probes))

        def agree() -> None:
            assert policy.targets_for(keys) == [policy.target_for(k) for k in keys]

        agree()
        victim = int(rng.integers(6))
        try:
            policy.on_node_failed(victim)
        except UnrecoverableNodeFailure:
            assert cls is NoFT
        agree()
        if cls is PFSRedirect:
            assert Target.to_pfs() in policy.targets_for(keys)
        policy.on_node_joined(6, weight=2.0)
        agree()
        assert policy.targets_for([]) == []


class TestNoFT:
    def test_routes_to_owner(self):
        p = NoFT(ring())
        t = p.target_for(KEYS[0])
        assert t.kind == "node" and t.node in p.placement.nodes

    def test_failure_aborts(self):
        p = NoFT(ring())
        with pytest.raises(UnrecoverableNodeFailure) as exc:
            p.on_node_failed(3)
        assert exc.value.node == 3
        assert 3 in p.failed_nodes


class TestPFSRedirect:
    def test_failed_owner_keys_go_to_pfs(self):
        p = PFSRedirect(StaticHash(nodes=range(8)))
        victim_keys = [k for k in KEYS if p.placement.lookup(k) == 3]
        assert victim_keys, "test needs at least one key on node 3"
        p.on_node_failed(3)
        for k in victim_keys:
            assert p.target_for(k) == Target.to_pfs()

    def test_surviving_keys_unmoved(self):
        p = PFSRedirect(StaticHash(nodes=range(8)))
        before = {k: p.target_for(k) for k in KEYS}
        p.on_node_failed(3)
        for k, t in before.items():
            if t.node != 3:
                assert p.target_for(k) == t

    def test_placement_not_mutated(self):
        p = PFSRedirect(StaticHash(nodes=range(8)))
        p.on_node_failed(3)
        assert 3 in p.placement.nodes  # intentionally untouched
        assert p.active_nodes == tuple(n for n in range(8) if n != 3)

    def test_multiple_failures_accumulate(self):
        p = PFSRedirect(StaticHash(nodes=range(8)))
        p.on_node_failed(1)
        p.on_node_failed(5)
        assert p.failed_nodes == frozenset({1, 5})
        pfs_count = sum(1 for k in KEYS if p.target_for(k).kind == "pfs")
        assert pfs_count > 0


class TestElasticRecache:
    def test_failed_node_removed_from_ring(self):
        p = ElasticRecache(ring())
        p.on_node_failed(3)
        assert 3 not in p.placement.nodes
        for k in KEYS:
            t = p.target_for(k)
            assert t.kind == "node" and t.node != 3

    def test_never_routes_to_pfs(self):
        p = ElasticRecache(ring())
        p.on_node_failed(2)
        p.on_node_failed(6)
        assert all(p.target_for(k).kind == "node" for k in KEYS)

    def test_minimal_reroute(self):
        p = ElasticRecache(ring())
        before = {k: p.target_for(k).node for k in KEYS}
        p.on_node_failed(3)
        for k, owner in before.items():
            if owner != 3:
                assert p.target_for(k).node == owner

    def test_idempotent_failure_handling(self):
        # Several clients may independently declare the same node.
        p = ElasticRecache(ring())
        p.on_node_failed(3)
        owners = [p.target_for(k).node for k in KEYS]
        p.on_node_failed(3)  # second declaration: no-op
        assert [p.target_for(k).node for k in KEYS] == owners

    def test_rejoin_restores_routing(self):
        p = ElasticRecache(ring())
        before = {k: p.target_for(k).node for k in KEYS}
        p.on_node_failed(3)
        p.on_node_joined(3)
        assert {k: p.target_for(k).node for k in KEYS} == before
        assert 3 not in p.failed_nodes

    def test_cascading_failures(self):
        p = ElasticRecache(ring(8))
        for victim in (0, 1, 2, 3, 4, 5, 6):
            p.on_node_failed(victim)
        assert p.placement.nodes == (7,)
        assert all(p.target_for(k).node == 7 for k in KEYS[:20])

    def test_lost_keys_scatter_across_survivors(self):
        # The load-balancing claim: with vnodes, one node's keys spread
        # over many receivers rather than one neighbour.
        p = ElasticRecache(HashRing(nodes=range(16), vnodes_per_node=100))
        hashes = bulk_hash64(np.arange(20000))
        before = p.placement.lookup_hashes(hashes)
        victim = 5
        lost = hashes[before == victim]
        p.on_node_failed(victim)
        receivers = set(p.placement.lookup_hashes(lost).tolist())
        assert len(receivers) >= 10
