"""FT-Cache: fault-tolerant deep-learning cache with hash-ring load balancing.

Reproduction of Lee et al., "Fault-Tolerant Deep Learning Cache with Hash
Ring for Load Balancing in HPC Systems" (SC 2024).  See DESIGN.md for the
system inventory and EXPERIMENTS.md for paper-vs-measured results.

Package map
-----------
``repro.core``
    The contribution: consistent-hash ring with virtual nodes, placement
    baselines, failure detector, fault-tolerance policies, load analysis.
``repro.sim``
    Discrete-event simulation kernel (engine, resources, seeded RNG).
``repro.cluster``
    Frontier-calibrated substrate: nodes, NVMe, network, PFS, SLURM.
``repro.hvac``
    HVAC cache client/server over simulated Mercury-style RPC.
``repro.dl``
    CosmoFlow-style data-parallel training: sampler, elastic rollback,
    event-level :class:`~repro.dl.training.TrainingJob` and the
    fluid-flow :class:`~repro.dl.fastsim.FluidTrainingModel`.
``repro.failures``
    Synthetic Frontier SLURM log + Section III analysis + injection.
``repro.runtime``
    Real threaded FT-Cache over TCP/files, sharing the same core
    (timed end to end by ``bench/run.py``).
``repro.metrics``
    Counters, timelines, traces, and the mergeable log-bucketed
    :class:`~repro.metrics.LatencyHistogram`.
``repro.experiments``
    One module per paper table/figure (+ ablations); also a CLI.

Quickstart
----------
>>> from repro import HashRing
>>> ring = HashRing(nodes=range(8), vnodes_per_node=100)
>>> owner = ring.lookup("/data/train/sample_000042.tfrecord")
>>> ring.remove_node(owner)              # a node fails...
>>> ring.lookup("/data/train/sample_000042.tfrecord") in ring.nodes
True
"""

from .core import (
    ElasticRecache,
    FaultPolicy,
    HashRing,
    MembershipView,
    NoFT,
    PFSRedirect,
    PlacementPolicy,
    RangePartition,
    RendezvousHash,
    StaticHash,
    Target,
    TimeoutFailureDetector,
    TreeHashRing,
    UnrecoverableNodeFailure,
    make_policy,
)

__version__ = "1.0.0"

__all__ = [
    "ElasticRecache",
    "FaultPolicy",
    "HashRing",
    "MembershipView",
    "NoFT",
    "PFSRedirect",
    "PlacementPolicy",
    "RangePartition",
    "RendezvousHash",
    "StaticHash",
    "Target",
    "TimeoutFailureDetector",
    "TreeHashRing",
    "UnrecoverableNodeFailure",
    "make_policy",
    "__version__",
]
