"""Multi-process parallel ingest runtime: Section 6 on real processes.

:mod:`repro.core.parallel` *simulates* the paper's parallel protocol in a
single process; this package runs it on real operating-system processes.
A stream (or a disk-resident float64 file) is sharded across ``W`` worker
processes, each running one independent
:class:`~repro.core.unknown_n.UnknownNQuantiles` with a deterministic
per-worker seed; at end of input every worker performs its final
Collapse and ships — at most one full and at most one partial buffer,
the Section 6 communication bound, measured on the wire as one
CRC-framed snapshot — back to the coordinator, which runs the existing
weight-matched :func:`~repro.core.parallel.merge_snapshots`.

One engine does it all: :class:`PersistentPool` spawns its workers once
and reuses them run after run, respawning any that died;
:func:`run_pool_on_file` and :func:`run_pool_on_stream` are one-shot
uses of it.  Fixed seeds give bit-identical answers on a fresh pool or a
reused one, under any start method.
"""

from repro.runtime.pool import (
    PersistentPool,
    PoolResult,
    PoolWorkerError,
    WorkerReport,
    available_start_methods,
    run_pool_on_file,
    run_pool_on_stream,
    seed_for_worker,
)

__all__ = [
    "PersistentPool",
    "PoolResult",
    "PoolWorkerError",
    "WorkerReport",
    "available_start_methods",
    "run_pool_on_file",
    "run_pool_on_stream",
    "seed_for_worker",
]
