"""repro — space-efficient online order statistics of large datasets.

A faithful, production-quality reproduction of

    Gurmeet Singh Manku, Sridhar Rajagopalan, Bruce G. Lindsay.
    *Random Sampling Techniques for Space Efficient Online Computation of
    Order Statistics of Large Datasets.* SIGMOD 1999.

Main entry points:

* :class:`UnknownNQuantiles` — the paper's contribution: single-pass
  eps-approximate quantiles with **no advance knowledge of the stream
  length**, queryable at any time, in
  ``O(eps^-1 log^2 eps^-1 + eps^-1 log^2 log delta^-1)`` memory.
* :class:`KnownNQuantiles` — the MRL98 comparator (stream length known).
* :class:`ExtremeValueEstimator` — tiny-memory extreme quantiles (p99s).
* :class:`MultiQuantiles` / :class:`PrecomputedQuantiles` — simultaneous
  quantiles and the memory-independent-of-p pre-computation trick.
* :class:`ParallelQuantiles` — quantiles over the union of P streams.
* :func:`plan_parameters` / :func:`plan_known_n` — the memory planners
  behind the paper's Tables 1-2 and Figure 4.
* :func:`plan_schedule` — dynamic buffer-allocation schedules (Figure 5).
* :mod:`repro.db` — database applications: equi-depth histograms,
  splitters, online aggregation, selectivity estimation.
* :mod:`repro.runtime` — the multi-process parallel ingest engine
  (:func:`run_pool_on_file` / :func:`run_pool_on_stream`): Section 6's
  protocol on real worker processes with measured communication cost.

Quickstart::

    from repro import UnknownNQuantiles

    est = UnknownNQuantiles(eps=0.01, delta=1e-4, seed=42)
    for value in stream:              # any length; never declared
        est.update(value)
    median = est.query(0.5)           # anytime, non-destructive
"""

from repro.audit import AuditReport, audit_failure_rate, audit_run
from repro.core.extreme import ExtremeValueEstimator
from repro.core.framework import CollapseEngine
from repro.core.known_n import KnownNQuantiles
from repro.core.multi import MultiQuantiles, PrecomputedQuantiles
from repro.core.parallel import (
    MergedSummary,
    MergeReport,
    ParallelQuantiles,
    ShardShipment,
    merge_snapshots,
)
from repro.core.params import (
    KnownNPlan,
    Plan,
    known_n_memory,
    plan_known_n,
    plan_parameters,
)
from repro.core.policy import ARSPolicy, CollapsePolicy, MRLPolicy, MunroPatersonPolicy
from repro.core.schedule import AllocationSchedule, MemoryLimits, plan_schedule
from repro.core.streaming_extreme import StreamingExtremeEstimator
from repro.core.unknown_n import EstimatorSnapshot, UnknownNQuantiles
from repro.persist import (
    CheckpointCorruptError,
    CheckpointError,
    CheckpointVersionError,
    load_checkpoint,
    save_checkpoint,
)
from repro.runtime import (
    PoolResult,
    PoolWorkerError,
    run_pool_on_file,
    run_pool_on_stream,
    seed_for_worker,
)
from repro.sampling.reservoir import ReservoirSampler

__version__ = "1.0.0"

__all__ = [
    "UnknownNQuantiles",
    "KnownNQuantiles",
    "ExtremeValueEstimator",
    "StreamingExtremeEstimator",
    "MultiQuantiles",
    "PrecomputedQuantiles",
    "ParallelQuantiles",
    "MergedSummary",
    "MergeReport",
    "ShardShipment",
    "merge_snapshots",
    "PoolResult",
    "PoolWorkerError",
    "run_pool_on_file",
    "run_pool_on_stream",
    "seed_for_worker",
    "ReservoirSampler",
    "CheckpointError",
    "CheckpointCorruptError",
    "CheckpointVersionError",
    "save_checkpoint",
    "load_checkpoint",
    "CollapseEngine",
    "CollapsePolicy",
    "MRLPolicy",
    "MunroPatersonPolicy",
    "ARSPolicy",
    "Plan",
    "KnownNPlan",
    "plan_parameters",
    "plan_known_n",
    "known_n_memory",
    "AllocationSchedule",
    "MemoryLimits",
    "plan_schedule",
    "EstimatorSnapshot",
    "AuditReport",
    "audit_run",
    "audit_failure_rate",
    "__version__",
]
