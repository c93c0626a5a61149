"""The crash-recovery runtime: supervised shard workers over partitions.

:class:`ShardSupervisor` runs ``P`` shard workers — each a real
:class:`~repro.core.unknown_n.UnknownNQuantiles` over its own partition —
the way a production ingestion tier would run them:

* **periodic checkpoints** via :mod:`repro.persist` (atomic write, CRC
  verified on read);
* **crash recovery** — an injected :class:`~repro.cluster.faults.ShardCrash`
  costs only the tail since the last checkpoint: the worker is restored
  (RNG state included, so the replay is bit-identical to never crashing)
  and re-consumes ``stream[restored_n:]``;
* **shipping with retries** — the Section 6 buffer hand-off retries with
  exponential backoff + jitter under a bounded attempt budget, and the
  coordinator deduplicates re-shipped buffers by ship-id, so an at-least-
  once network cannot double-count a shard;
* **degraded merges** — an unrecoverable shard (crash with recovery off,
  or ship-retry exhaustion) is surrendered to
  ``merge_snapshots(strict=False)``, whose
  :class:`~repro.core.parallel.MergeReport` quantifies the loss instead of
  hiding it.

Like :mod:`repro.core.parallel`, this module *simulates* the distributed
setting deterministically in one process; the control flow (checkpoint
cadence, restart path, retry budget, dedup) is exactly what a process- or
machine-distributed deployment needs, which is what the fault-injection
tests exercise.
"""

from __future__ import annotations

import math
import os
import random
import time
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field

from repro.cluster.faults import FaultPlan, ShardCrash, ShardLostError, ShipTimeoutError
from repro.core.params import Plan, plan_parameters
from repro.core.parallel import MergedSummary, MergeReport, merge_snapshots
from repro.core.policy import CollapsePolicy
from repro.core.unknown_n import EstimatorSnapshot, UnknownNQuantiles
from repro.kernels import KernelBackend
from repro.persist import (
    CheckpointCorruptError,
    CheckpointVersionError,
    load_checkpoint,
    save_checkpoint,
)
from repro.runtime import PersistentPool, WorkerReport
from repro.streams.diskfile import CHUNK_VALUES, count_floats

__all__ = [
    "ShardSupervisor",
    "SupervisorResult",
    "SupervisorStats",
    "partition_stream",
]


def partition_stream(values: Sequence[float], num_shards: int) -> list[Sequence[float]]:
    """Deal a stream round-robin into ``num_shards`` balanced partitions."""
    if num_shards < 1:
        raise ValueError(f"need at least one shard, got {num_shards}")
    return [values[shard::num_shards] for shard in range(num_shards)]


@dataclass
class SupervisorStats:
    """Operational counters from one supervised run."""

    restarts: int = 0
    replayed_elements: int = 0
    checkpoints_written: int = 0
    corrupt_checkpoints: int = 0
    ships_delivered: int = 0
    ships_dropped: int = 0
    duplicate_ships_ignored: int = 0
    backoff_seconds: float = 0.0
    shards_lost: list[int] = field(default_factory=list)


@dataclass
class SupervisorResult:
    """What a supervised run hands back to the caller.

    :ivar summary: the merged, queryable union summary.
    :ivar report: coverage of the merge — complete runs report 1.0, runs
        that surrendered shards report the surviving fraction.
    :ivar stats: operational counters (restarts, replays, retries, ...).
    """

    summary: MergedSummary
    report: MergeReport
    stats: SupervisorStats

    def query(self, phi: float) -> float:
        """Convenience passthrough to the merged summary."""
        return self.summary.query(phi)

    def query_many(self, phis: Sequence[float]) -> list[float]:
        """Convenience passthrough to the merged summary."""
        return self.summary.query_many(phis)


class ShardSupervisor:
    """Run ``num_shards`` checkpointed workers and merge what survives.

    :param num_shards: number of shard workers / input partitions.
    :param eps, delta: accuracy contract for the union (or pass ``plan``).
    :param checkpoint_dir: directory for per-shard checkpoint files; when
        ``None``, checkpointing is off and a crashed worker replays its
        whole partition.
    :param checkpoint_interval: elements between checkpoints of one shard.
    :param fault_plan: deterministic failure script (tests/benchmarks).
    :param recover: restart crashed workers (True) or surrender their
        shards to a degraded merge (False).
    :param strict: raise :class:`ShardLostError` when any shard is lost
        (True), or degrade to a partial answer with a report (False).
    :param max_ship_attempts: bounded retry budget for the buffer hand-off.
    :param backoff_base: first retry delay, seconds; doubles per attempt.
    :param backoff_cap: upper bound on a single retry delay, seconds.
    :param sleep: callable invoked with each backoff delay.  The default
        ``None`` only *accounts* the delay (``stats.backoff_seconds``) —
        right for simulations; pass ``time.sleep`` for real deployments.
    :param seed: master seed (worker seeds, merge seed, retry jitter).

    Example::

        sup = ShardSupervisor(num_shards=8, eps=0.01, delta=1e-4,
                              checkpoint_dir="/var/ckpt", seed=7)
        result = sup.run(partition_stream(values, 8))
        median = result.query(0.5)
        assert result.report.complete
    """

    def __init__(
        self,
        num_shards: int,
        eps: float | None = None,
        delta: float | None = None,
        *,
        plan: Plan | None = None,
        policy: CollapsePolicy | None = None,
        checkpoint_dir: str | os.PathLike[str] | None = None,
        checkpoint_interval: int = 5_000,
        fault_plan: FaultPlan | None = None,
        recover: bool = True,
        strict: bool = True,
        max_ship_attempts: int = 5,
        backoff_base: float = 0.05,
        backoff_cap: float = 2.0,
        sleep: Callable[[float], None] | None = None,
        seed: int | None = None,
    ) -> None:
        if num_shards < 1:
            raise ValueError(f"need at least one shard, got {num_shards}")
        if checkpoint_interval < 1:
            raise ValueError(
                f"checkpoint_interval must be >= 1, got {checkpoint_interval}"
            )
        if max_ship_attempts < 1:
            raise ValueError(
                f"max_ship_attempts must be >= 1, got {max_ship_attempts}"
            )
        if plan is None:
            if eps is None or delta is None:
                raise ValueError("provide either (eps, delta) or an explicit plan")
            plan = plan_parameters(eps, delta, policy=policy)
        self._num_shards = num_shards
        self._plan = plan
        self._policy = policy
        self._dir = os.fspath(checkpoint_dir) if checkpoint_dir is not None else None
        if self._dir is not None:
            os.makedirs(self._dir, exist_ok=True)
        self._interval = checkpoint_interval
        self._faults = fault_plan if fault_plan is not None else FaultPlan()
        self._recover = recover
        self._strict = strict
        self._max_ship_attempts = max_ship_attempts
        self._backoff_base = backoff_base
        self._backoff_cap = backoff_cap
        self._sleep = sleep
        rng = random.Random(seed)
        self._worker_seeds = [rng.randrange(2**62) for _ in range(num_shards)]
        self._merge_seed = rng.randrange(2**62)
        self._jitter_rng = random.Random(rng.randrange(2**62))
        # Master seed for the real multi-process pool (run_pool); drawn
        # last so earlier seeds match runs of previous releases exactly.
        self._pool_seed = rng.randrange(2**62)
        self._checkpoint_counts = [0] * num_shards
        self._received: dict[str, EstimatorSnapshot] = {}
        self.stats = SupervisorStats()

    # ------------------------------------------------------------------
    # Ingestion with crash recovery
    # ------------------------------------------------------------------
    def run(self, streams: Sequence[Sequence[float]]) -> SupervisorResult:
        """Ingest every partition, survive the fault plan, merge, report."""
        if len(streams) != self._num_shards:
            raise ValueError(
                f"got {len(streams)} streams for {self._num_shards} shards"
            )
        streams = [
            stream
            if hasattr(stream, "__len__") and hasattr(stream, "__getitem__")
            else list(stream)
            for stream in streams
        ]
        snapshots: list[EstimatorSnapshot | None] = []
        for shard_id, stream in enumerate(streams):
            estimator = self._ingest_shard(shard_id, stream)
            if estimator is None:
                snapshots.append(None)
                continue
            snapshots.append(self._ship_with_retry(shard_id, estimator))
        lost = [i for i, snap in enumerate(snapshots) if snap is None]
        self.stats.shards_lost = lost
        if lost and self._strict:
            raise ShardLostError(
                f"shards {lost} were lost (crash without recovery or ship "
                "timeout); construct the supervisor with strict=False to "
                "serve a partial answer with a MergeReport"
            )
        summary = merge_snapshots(
            snapshots,
            policy=self._policy,
            seed=self._merge_seed,
            strict=False,
            expected_n=sum(len(stream) for stream in streams),
        )
        assert summary.report is not None
        return SupervisorResult(summary=summary, report=summary.report, stats=self.stats)

    def run_pool(
        self,
        path: str | os.PathLike[str],
        *,
        backend: "str | KernelBackend | None" = None,
        start_method: str | None = None,
        chunk_values: int = CHUNK_VALUES,
        timeout: float | None = None,
    ) -> SupervisorResult:
        """Host a real multi-process ingest pool over a float64 file.

        The supervised counterpart of
        :func:`repro.runtime.run_pool_on_file`: the file is byte-range
        partitioned into ``num_shards`` slices, each scanned by a worker
        *process* of one :class:`~repro.runtime.PersistentPool` hosting
        every retry round, and the supervisor's semantics apply to real
        process deaths —

        * a shard whose worker dies (crash, OOM kill, injected
          ``fault_plan.crash_at``) or whose item raises is retried with
          the configured exponential backoff under the
          ``max_ship_attempts`` budget; a dead worker is respawned at the
          next dispatch and re-scans its slice under the *same* derived
          seed, so its snapshot is bit-identical to one that never failed;
        * a shard lost after the whole budget is surrendered: ``strict``
          supervisors raise :class:`ShardLostError` naming the worker's
          last error, non-strict ones serve a partial answer whose
          :class:`~repro.core.parallel.MergeReport` quantifies the lost
          weight — never a hang, because dead processes are reaped.

        Pool workers do not checkpoint mid-scan (a slice re-scan *is* the
        recovery path — sequential re-read beats checkpoint plumbing at
        scan speeds), so ``checkpoint_dir`` is not consulted here.

        :param backend: kernel backend for every pool worker
            (``"python"``, ``"native"``, or None for the environment
            default).
        :param start_method: multiprocessing start method (``"fork"``,
            ``"spawn"``, ``"forkserver"``; None = platform default).
        :param timeout: budget in seconds for the whole supervised run,
            retries and backoffs included.
        """
        expected_n = count_floats(path)
        delivered: dict[int, EstimatorSnapshot] = {}
        reports: dict[int, WorkerReport] = {}
        pending = list(range(self._num_shards))
        # ``timeout`` is the caller's budget for the WHOLE supervised run,
        # retries and backoffs included — not a per-round allowance that
        # every retry renews.  Each round (and each backoff before it)
        # runs under whatever remains of the overall deadline.
        overall_deadline = (
            None if timeout is None else time.monotonic() + timeout
        )

        def remaining_budget() -> float | None:
            if overall_deadline is None:
                return None
            return overall_deadline - time.monotonic()

        with PersistentPool(
            self._num_shards,
            plan=self._plan,
            policy=self._policy,
            seed=self._pool_seed,
            backend=backend,
            start_method=start_method,
            chunk_values=chunk_values,
        ) as pool:
            for attempt in range(1, self._max_ship_attempts + 1):
                if not pending:
                    break
                if attempt > 1:
                    remaining = remaining_budget()
                    if remaining is not None and remaining <= 0:
                        break  # budget spent: surrender the pending shards
                    self._backoff(attempt, max_delay=remaining)
                    self.stats.restarts += len(pending)
                remaining = remaining_budget()
                if remaining is not None and remaining <= 0:
                    break
                fail_after: dict[int, int] = {}
                for shard_id in pending:
                    planned = self._faults.crash_at.get(shard_id)
                    if planned is not None and self._faults.take_crash(
                        shard_id, planned
                    ):
                        fail_after[shard_id] = planned
                snapshots, reports = pool.run_file_shards(
                    path, pending, timeout=remaining, fail_after=fail_after
                )
                for shard_id, snapshot in snapshots.items():
                    delivered[shard_id] = snapshot
                    self.stats.ships_delivered += 1
                    if attempt > 1:
                        # A retried slice is re-consumed from byte zero.
                        self.stats.replayed_elements += reports[shard_id].n
                pending = sorted(set(pending) - set(snapshots))
        self.stats.shards_lost = pending
        if pending and self._strict:
            causes = "".join(
                f"; shard {shard_id}: {reports[shard_id].error}"
                for shard_id in pending
                if shard_id in reports and reports[shard_id].error
            )
            raise ShardLostError(
                f"shards {pending} were lost after "
                f"{self._max_ship_attempts} pool attempts{causes}; construct "
                "the supervisor with strict=False to serve a partial answer "
                "with a MergeReport"
            )
        summary = merge_snapshots(
            [delivered.get(shard_id) for shard_id in range(self._num_shards)],
            policy=self._policy,
            seed=self._merge_seed,
            strict=False,
            expected_n=expected_n,
            backend=backend,
        )
        assert summary.report is not None
        return SupervisorResult(
            summary=summary, report=summary.report, stats=self.stats
        )

    def _ingest_shard(
        self, shard_id: int, stream: Sequence[float]
    ) -> UnknownNQuantiles | None:
        """Consume one partition to the end, restarting through crashes."""
        estimator = self._fresh_estimator(shard_id)
        while True:
            try:
                self._consume(shard_id, estimator, stream)
                return estimator
            except ShardCrash as crash:
                if not self._recover:
                    return None
                self.stats.restarts += 1
                estimator = self._restore_shard(shard_id)
                self.stats.replayed_elements += crash.at_n - estimator.n

    def _consume(
        self, shard_id: int, estimator: UnknownNQuantiles, stream: Sequence[float]
    ) -> None:
        total = len(stream)
        while estimator.n < total:
            if self._faults.take_crash(shard_id, estimator.n):
                raise ShardCrash(shard_id, estimator.n)
            estimator.update(float(stream[estimator.n]))
            if self._dir is not None and estimator.n % self._interval == 0:
                self._write_checkpoint(shard_id, estimator)

    def _fresh_estimator(self, shard_id: int) -> UnknownNQuantiles:
        return UnknownNQuantiles(
            plan=self._plan,
            policy=self._policy,
            seed=self._worker_seeds[shard_id],
        )

    # ------------------------------------------------------------------
    # Checkpoints
    # ------------------------------------------------------------------
    def _checkpoint_path(self, shard_id: int) -> str:
        assert self._dir is not None
        return os.path.join(self._dir, f"shard-{shard_id:04d}.ckpt")

    def _write_checkpoint(self, shard_id: int, estimator: UnknownNQuantiles) -> None:
        path = self._checkpoint_path(shard_id)
        save_checkpoint(estimator, path)
        index = self._checkpoint_counts[shard_id]
        self._checkpoint_counts[shard_id] += 1
        self.stats.checkpoints_written += 1
        if self._faults.truncates_checkpoint(shard_id, index):
            # Tear the write in half — simulated media corruption that the
            # CRC frame must catch at restore time.
            size = os.path.getsize(path)
            with open(path, "r+b") as handle:
                handle.truncate(size // 2)

    def _restore_shard(self, shard_id: int) -> UnknownNQuantiles:
        """Last good checkpoint, or a fresh worker when none is loadable."""
        if self._dir is not None:
            try:
                restored = load_checkpoint(self._checkpoint_path(shard_id))
            except FileNotFoundError:
                pass  # crashed before the first checkpoint
            except (CheckpointCorruptError, CheckpointVersionError):
                self.stats.corrupt_checkpoints += 1
            else:
                if isinstance(restored, UnknownNQuantiles):
                    return restored
                self.stats.corrupt_checkpoints += 1
        return self._fresh_estimator(shard_id)

    # ------------------------------------------------------------------
    # Shipping (at-least-once network, deduplicated by ship-id)
    # ------------------------------------------------------------------
    def _ship_with_retry(
        self, shard_id: int, estimator: UnknownNQuantiles
    ) -> EstimatorSnapshot | None:
        ship_id = f"shard-{shard_id:04d}"
        snapshot = estimator.snapshot()
        for attempt in range(self._max_ship_attempts):
            if attempt > 0:
                self._backoff(attempt)
            if self._faults.take_drop_ship(shard_id):
                self.stats.ships_dropped += 1
                continue
            self._deliver(ship_id, snapshot)
            if self._faults.duplicates_ship(shard_id):
                self._deliver(ship_id, snapshot)  # at-least-once redelivery
            return self._received[ship_id]
        if self._strict:
            raise ShipTimeoutError(
                f"shard {shard_id} failed to ship after "
                f"{self._max_ship_attempts} attempts"
            )
        return None

    def _backoff(self, attempt: int, max_delay: float | None = None) -> None:
        """Exponential backoff with jitter; bounded by ``backoff_cap``.

        ``max_delay`` additionally clamps the delay to a caller's
        remaining overall budget, so a retry round never sleeps past the
        deadline it is retrying under.  The jitter draw happens before
        the clamp, so clamped and unclamped runs consume the RNG
        identically.
        """
        delay = min(self._backoff_cap, self._backoff_base * math.pow(2.0, attempt - 1))
        delay *= 0.5 + 0.5 * self._jitter_rng.random()
        if max_delay is not None:
            delay = min(delay, max(0.0, max_delay))
        self.stats.backoff_seconds += delay
        if self._sleep is not None:
            self._sleep(delay)

    def _deliver(self, ship_id: str, snapshot: EstimatorSnapshot) -> None:
        if ship_id in self._received:
            self.stats.duplicate_ships_ignored += 1
            return
        self._received[ship_id] = snapshot
        self.stats.ships_delivered += 1
