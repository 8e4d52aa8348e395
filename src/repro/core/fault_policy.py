"""Fault-tolerance policies: what a client does once a node is declared dead.

The paper evaluates three system configurations (Sec V-A); each maps to one
policy class here, shared verbatim between the simulated HVAC client and
the real threaded runtime client:

``NoFT`` (baseline HVAC)
    No recovery.  A declared node failure aborts the training job
    (:class:`UnrecoverableNodeFailure`), matching "immediate job
    termination upon failure" in Fig 5(b)'s dashed line.

``PFSRedirect`` (Sec IV-A, artifact A₁)
    Placement is left untouched; every key whose owner is failed is read
    from the PFS, on *every* subsequent access.  Cheap to implement, but
    each post-failure epoch pays full PFS latency for the lost shard.

``ElasticRecache`` (Sec IV-B, artifact A₂ — the contribution)
    The failed node is removed from the hash ring; lost keys re-home to
    the next clockwise virtual node.  The new owner misses once, fetches
    from the PFS, serves, and recaches — a single extra PFS access per
    lost file.

A policy owns a :class:`~repro.core.placement.PlacementPolicy` and exposes
one routing query, :meth:`FaultPolicy.target_for`, returning either a node
target or a PFS target; :meth:`FaultPolicy.targets_for` answers it for a
whole batch (one bulk ring lookup under the ring-backed policies).
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import AbstractSet, Hashable, Literal, Optional, Sequence

import numpy as np

from .placement import Key, PlacementPolicy

__all__ = [
    "Target",
    "FaultPolicy",
    "NoFT",
    "PFSRedirect",
    "ElasticRecache",
    "UnrecoverableNodeFailure",
    "make_policy",
    "POLICY_NAMES",
]

NodeId = Hashable


class UnrecoverableNodeFailure(RuntimeError):
    """A node failed under a policy with no recovery path (NoFT)."""

    def __init__(self, node: NodeId):
        super().__init__(f"node {node!r} failed and the NoFT policy cannot recover")
        self.node = node


@dataclass(frozen=True)
class Target:
    """Where to send an I/O request: a cache server or the PFS."""

    kind: Literal["node", "pfs"]
    node: Optional[NodeId] = None

    @staticmethod
    def to_node(node: NodeId) -> "Target":
        return Target("node", node)

    @staticmethod
    def to_pfs() -> "Target":
        return Target("pfs")


def _owner_targets(owners: np.ndarray, failed: AbstractSet[NodeId] = frozenset()) -> list[Target]:
    """The targets of a bulk lookup's owners — the PFS for a ``failed`` one —
    with one shared :class:`Target` per distinct owner."""
    owners = owners.tolist()
    targets = {o: Target.to_pfs() if o in failed else Target.to_node(o) for o in set(owners)}
    return [targets[o] for o in owners]


class FaultPolicy(abc.ABC):
    """Routing + failure-reaction strategy over a placement policy."""

    #: human-readable identifier used in experiment tables
    name: str = "abstract"

    def __init__(self, placement: PlacementPolicy):
        self.placement = placement
        self._failed: set[NodeId] = set()

    @property
    def failed_nodes(self) -> frozenset:
        return frozenset(self._failed)

    @property
    def active_nodes(self) -> tuple[NodeId, ...]:
        return tuple(n for n in self.placement.nodes if n not in self._failed)

    @abc.abstractmethod
    def target_for(self, key: Key) -> Target:
        """Routing decision for ``key`` under the current failure state."""

    def targets_for(self, keys: Sequence[Key]) -> list[Target]:
        """``[target_for(k) for k in keys]``: a batch's routing in one call."""
        return [self.target_for(k) for k in keys]

    @abc.abstractmethod
    def on_node_failed(self, node: NodeId) -> None:
        """React to a failure declaration from the detector."""

    def on_node_joined(self, node: NodeId, weight: "float | None" = None) -> None:
        """Default elastic-join handling: (re)admit into placement.

        ``weight`` is the joining node's relative capacity, forwarded to
        the placement (capacity-aware policies scale the node's share of
        the keyspace; others ignore it).
        """
        self._failed.discard(node)
        if node not in self.placement.nodes:
            self.placement.add_node(node, weight=weight)


class NoFT(FaultPolicy):
    """Baseline HVAC: no fault tolerance; failure aborts the job."""

    name = "NoFT"

    def target_for(self, key: Key) -> Target:
        return Target.to_node(self.placement.lookup(key))

    def targets_for(self, keys: Sequence[Key]) -> list[Target]:
        return _owner_targets(self.placement.lookup_many(keys))

    def on_node_failed(self, node: NodeId) -> None:
        self._failed.add(node)
        raise UnrecoverableNodeFailure(node)


class PFSRedirect(FaultPolicy):
    """FT w/ PFS: keys owned by failed nodes are read from the PFS forever.

    The placement is intentionally *not* updated: the original HVAC hash
    remains valid for surviving nodes, and requests for lost keys bypass
    the cache layer entirely (Fig 3a).
    """

    name = "FT w/ PFS"

    def target_for(self, key: Key) -> Target:
        owner = self.placement.lookup(key)
        if owner in self._failed:
            return Target.to_pfs()
        return Target.to_node(owner)

    def targets_for(self, keys: Sequence[Key]) -> list[Target]:
        return _owner_targets(self.placement.lookup_many(keys), self._failed)

    def on_node_failed(self, node: NodeId) -> None:
        self._failed.add(node)


class ElasticRecache(FaultPolicy):
    """FT w/ NVMe: remove the failed node from the ring and re-route.

    Requires a placement whose removal semantics are minimal-movement (the
    hash ring); with ``StaticHash`` this class would still function but
    would trigger the mass migration the paper's Sec IV-B warns about —
    the placement ablation measures exactly that.
    """

    name = "FT w/ NVMe"

    def target_for(self, key: Key) -> Target:
        return Target.to_node(self.placement.lookup(key))

    def targets_for(self, keys: Sequence[Key]) -> list[Target]:
        return _owner_targets(self.placement.lookup_many(keys))

    def on_node_failed(self, node: NodeId) -> None:
        if node in self._failed:
            return
        self._failed.add(node)
        if node in self.placement.nodes:
            self.placement.remove_node(node)


POLICY_NAMES = ("NoFT", "FT w/ PFS", "FT w/ NVMe")


def make_policy(name: str, placement: PlacementPolicy) -> FaultPolicy:
    """Factory from an experiment-table name to a policy instance."""
    table = {
        "NoFT": NoFT,
        "FT w/ PFS": PFSRedirect,
        "pfs": PFSRedirect,
        "FT w/ NVMe": ElasticRecache,
        "nvme": ElasticRecache,
    }
    try:
        cls = table[name]
    except KeyError:
        raise ValueError(f"unknown policy {name!r}; choose from {POLICY_NAMES}") from None
    return cls(placement)
