"""The one multi-process pool engine behind :mod:`repro.runtime`.

Design constraints, in the order they shaped the code:

* **Spawn-safe, no estimator pickling.**  Every worker runs the one
  top-level function :func:`_pool_worker` under any :mod:`multiprocessing`
  start method.  Everything that crosses a process boundary is primitive
  data: a :class:`WorkerSpec` at spawn, work items and stream chunks on
  the worker's control queue, and one CRC-framed :mod:`repro.persist`
  snapshot per item on the way back — a torn or corrupt result is
  detected by the frame, never trusted.
* **Persistent.**  A :class:`PersistentPool` spawns its workers once and
  deals each one work item per round: a byte range of a file, or a
  stream whose chunks follow the item on the same queue.  Each item gets
  a fresh estimator under the item's own seed, so a reused worker ships
  exactly what a freshly spawned one would.  :func:`run_pool_on_file`
  and :func:`run_pool_on_stream` build a pool, run one round, close it.
* **Deterministic.**  Worker ``w`` always ingests the same sub-stream
  (its byte range of the file, or every ``W``-th chunk of the stream) with
  the seed :func:`seed_for_worker`\\ ``(seed, w)`` — a SHA-256 derivation
  that is identical across runs, platforms, and start methods (unlike
  ``hash()``), so a fixed-seed run is bit-identical wherever it runs.
* **Crash != hang.**  The collector never blocks on a worker that died:
  a dead worker is a lost shard, an item that raised is a lost shard whose
  ``TypeName: message`` rides on its :class:`WorkerReport`, and the merge
  degrades through ``merge_snapshots(strict=False)`` with a
  :class:`~repro.core.parallel.MergeReport` quantifying the loss.  Dead
  workers are respawned at the next dispatch.
* **The communication bound is measured, not assumed.**  Each worker's
  shipment is exactly one framed snapshot whose byte length the
  coordinator records; the per-shard full/partial buffer counts appear on
  ``MergeReport.shipments``.
"""

from __future__ import annotations

import collections
import contextlib
import dataclasses
import functools
import hashlib
import itertools
import multiprocessing as mp
import os
import queue as queue_mod
import random as random_mod
import time
from collections.abc import Callable, Iterable, Iterator, Sequence
from dataclasses import dataclass, field
from types import TracebackType
from typing import Any

from repro import persist
from repro.core.parallel import (
    MergedSummary,
    MergeReport,
    condense_snapshot,
    merge_snapshots,
)
from repro.core.params import Plan, plan_parameters
from repro.core.policy import CollapsePolicy, policy_from_name
from repro.core.unknown_n import EstimatorSnapshot, UnknownNQuantiles
from repro.kernels import get_backend
from repro.streams.diskfile import (
    CHUNK_VALUES,
    count_floats,
    plan_byte_ranges,
    read_float_chunks,
)

__all__ = [
    "PersistentPool",
    "PoolResult",
    "PoolWorkerError",
    "WorkerReport",
    "WorkerSpec",
    "available_start_methods",
    "reap_processes",
    "run_pool_on_file",
    "run_pool_on_stream",
    "seed_for_worker",
]

#: Exit code of a deliberately injected worker death (fault testing).
FAULT_EXIT_CODE = 70

#: Default values per chunk for the stream-striping driver (small enough
#: to keep per-worker queues shallow, large enough to amortise pickling).
STREAM_CHUNK_VALUES = 8_192

#: Depth of each worker's control queue (work items and stream chunks).
_QUEUE_DEPTH = 4

#: Seconds between liveness sweeps while waiting on worker results.
_POLL_SECONDS = 0.1

#: Seconds a parked worker waits on its control queue before checking
#: whether its coordinator is still alive (orphan detection: a SIGKILLed
#: coordinator must not leave workers parked forever).
_ORPHAN_POLL_SECONDS = 1.0

#: Seconds granted to each stage of the shutdown escalation
#: (join -> terminate -> kill); module-level so tests can shrink it.
_JOIN_SECONDS = 5.0

#: Marker in a ``leaked`` entry for a worker that outlived even SIGKILL —
#: the one escalation outcome that actually leaves a process behind.
_SURVIVED_SIGKILL = "survived SIGKILL"


class PoolWorkerError(RuntimeError):
    """A pool run lost workers it could not answer without.

    Raised by a strict run that lost any worker, and by a degraded run
    that lost every worker holding data.  Carries the lost worker ids and
    their exit codes so callers can distinguish an injected fault from an
    OOM kill from a bug, the ``TypeName: message`` of every item that
    raised inside a worker (``errors``), plus any workers that had to be
    escalated past SIGTERM at shutdown (``leaked``: worker id -> what it
    took to reap them).  ``survivors`` says whether any worker shipped
    data, which decides the remedy the message suggests.
    """

    def __init__(
        self,
        lost: dict[int, int | None],
        leaked: dict[int, str] | None = None,
        errors: dict[int, str] | None = None,
        *,
        survivors: bool = True,
    ) -> None:
        self.lost = dict(lost)
        self.leaked = dict(leaked or {})
        self.errors = dict(errors or {})
        causes = ", ".join(
            f"worker {wid} ({self.errors.get(wid) or f'exit code {code}'})"
            for wid, code in sorted(lost.items())
        )
        remedy = (
            "pass strict=False to merge the survivors into a partial answer "
            "with a MergeReport"
            if survivors
            else "a degraded merge needs at least one surviving shard with "
            "data, and none survived"
        )
        message = (
            f"{len(self.lost)} pool worker(s) failed without shipping a "
            f"snapshot: {causes}; {remedy}"
            if self.lost
            else "pool shutdown had to escalate past SIGTERM"
        )
        if self.leaked:
            details = "; ".join(
                f"worker {wid}: {what}" for wid, what in sorted(self.leaked.items())
            )
            message += f" [shutdown escalation: {details}]"
        super().__init__(message)


def seed_for_worker(seed: int, worker_id: int) -> int:
    """The deterministic seed worker ``worker_id`` runs under.

    Derived by SHA-256 over the master seed and the worker id, so it is
    stable across processes, platforms, interpreter hash randomisation,
    and multiprocessing start methods — the property that makes a
    fixed-seed pool run bit-identical under both ``fork`` and ``spawn``.
    Distinct workers get (cryptographically) independent seeds, matching
    the paper's requirement that the P processors sample independently.
    """
    if worker_id < 0:
        raise ValueError(f"worker_id must be >= 0, got {worker_id}")
    return _derive_seed(seed, f"worker:{worker_id}")


def _derive_seed(seed: int, label: str) -> int:
    payload = f"repro.runtime:{seed}:{label}".encode()
    return int.from_bytes(hashlib.sha256(payload).digest()[:8], "big")


def available_start_methods() -> list[str]:
    """Multiprocessing start methods usable on this platform."""
    return mp.get_all_start_methods()


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class WorkerSpec:
    """What one pool worker needs for its whole life, as plain data.

    ``plan`` is the :class:`~repro.core.params.Plan` as a dict of
    primitives and ``policy_name`` the collapse policy's registry name,
    so the spec crosses a ``spawn`` boundary without importing anything
    but this module on the far side.  What varies per item (the file
    slice or stream, the seed, fault injection) arrives later as a work
    item on the worker's control queue.
    """

    worker_id: int
    backend: str
    plan: dict[str, Any]
    policy_name: str | None
    #: Values per read when scanning a file slice.
    chunk_values: int


def _receive(control: Any, parent: int) -> Any:
    """The next control message, or ``None`` once the coordinator is gone.

    Polling lets a parked worker notice that its coordinator was
    SIGKILLed (the worker is re-parented) and leave instead of waiting
    forever on a queue nobody writes to any more.
    """
    while True:
        try:
            return control.get(timeout=_ORPHAN_POLL_SECONDS)
        except queue_mod.Empty:
            if os.getppid() != parent:
                return None


def _pool_worker(spec: WorkerSpec, control: Any, results: Any) -> None:
    """A long-lived shard worker: park, ingest one work item, ship, repeat.

    A work item is ``(seq, seed, fail_after, path, start, stop)``: the
    byte range ``[start, stop)`` of ``path``, or — when ``path`` is None —
    the stream chunks that follow the item on the control queue, up to a
    ``None``.  A ``None`` in place of an item shuts the worker down.  An
    item that raises ships its ``TypeName: message`` instead of a frame,
    and the worker stays up for the next one.
    """
    parent = os.getppid()
    while (item := _receive(control, parent)) is not None:
        seq, seed, fail_after, path, start, stop = item
        chunks: Iterator[Sequence[float]]
        if path is None:
            chunks = iter(functools.partial(_receive, control, parent), None)
        else:
            # Zero-copy scan: one resident buffer readinto'd per chunk;
            # update_batch copies what it keeps before the next read.
            chunks = read_float_chunks(
                path, spec.chunk_values, start=start, stop=stop, reuse_buffer=True
            )
        error = None
        try:
            frame, n, seconds = _ingest(spec, seed, fail_after, chunks)
        except Exception as exc:
            frame, n, seconds = b"", 0, 0.0
            error = f"{type(exc).__name__}: {exc}"
            if path is None:
                # Drain the rest of the stream so the next read is an item.
                collections.deque(chunks, maxlen=0)
        results.put((spec.worker_id, seq, frame, n, seconds, error))


def _ingest(
    spec: WorkerSpec,
    seed: int,
    fail_after: int | None,
    chunks: Iterable[Sequence[float]],
) -> tuple[bytes, int, float]:
    """Summarise one item; return its framed snapshot, n and ingest seconds.

    The worker performs its own final Collapse (Section 6), so at most one
    full + one partial buffer cross the process boundary instead of the
    whole ``b*k`` pool.  The merge is bit-identical — the coordinator
    would have applied the very same deterministic collapse on receipt.
    """
    estimator = UnknownNQuantiles(
        plan=Plan(**spec.plan),
        policy=(
            policy_from_name(spec.policy_name)
            if spec.policy_name is not None
            else None
        ),
        seed=seed,
        backend=spec.backend,
    )
    started = time.perf_counter()
    for chunk in chunks:
        if fail_after is not None and estimator.n + len(chunk) > fail_after:
            head = chunk[: fail_after - estimator.n]
            if len(head):
                estimator.update_batch(head)
            # Die the way a killed process does: no snapshot, no cleanup.
            os._exit(FAULT_EXIT_CODE)
        estimator.update_batch(chunk)
    seconds = time.perf_counter() - started
    frame = persist.dumps(condense_snapshot(estimator.snapshot()))
    return frame, estimator.n, seconds


# ----------------------------------------------------------------------
# Coordinator side
# ----------------------------------------------------------------------

@dataclass
class WorkerReport:
    """Per-worker accounting of one pool run.

    ``error`` is the ``TypeName: message`` of an item that raised inside
    the worker (the worker itself stayed up); ``exitcode`` is set when
    the worker process died instead.
    """

    worker_id: int
    n: int = 0
    shipped_bytes: int = 0
    ingest_seconds: float = 0.0
    lost: bool = False
    exitcode: int | None = None
    error: str | None = None
    full_buffers: int = 0
    partial_buffers: int = 0
    full_elements: int = 0
    partial_elements: int = 0


@dataclass
class PoolResult:
    """The outcome of one multi-process pool run.

    :ivar summary: the queryable coordinator merge of the survivors.
    :ivar report: merge coverage + per-shard shipment accounting.
    :ivar workers: per-worker ingest/ship stats (index = worker id).
    :ivar n: elements the surviving workers ingested.
    :ivar expected_n: elements the full input held (file size, or the
        count dispatched by the stream driver — including chunks routed
        to workers that later died).
    :ivar ingest_seconds: wall time from dispatch to the last result; the
        one-shot functions count from the spawn and include the reap, as
        their every run starts and stops its own processes.
    :ivar merge_seconds: wall time of the coordinator merge.
    :ivar spawn_seconds: wall time spent starting worker processes for
        this run — the whole spawn for the one-shot functions, respawns
        only under a reused :class:`PersistentPool` (whose one-time spawn
        cost lives on the pool).
    :ivar leaked: workers whose shutdown had to escalate past a plain
        join (worker id -> what it took to reap them); non-empty even on
        a successful merge, so an escalation is never silently dropped.
    """

    summary: MergedSummary
    report: MergeReport
    workers: list[WorkerReport] = field(default_factory=list)
    n: int = 0
    expected_n: int = 0
    start_method: str = ""
    ingest_seconds: float = 0.0
    merge_seconds: float = 0.0
    spawn_seconds: float = 0.0
    leaked: dict[int, str] = field(default_factory=dict)

    @property
    def shipped_bytes(self) -> int:
        """Total snapshot bytes that crossed the process boundary."""
        return sum(worker.shipped_bytes for worker in self.workers)

    @property
    def elements_per_second(self) -> float:
        """Aggregate ingest rate of the pool."""
        if self.ingest_seconds <= 0:
            return 0.0
        return self.n / self.ingest_seconds

    def query(self, phi: float) -> float:
        """A phi-quantile of the union (passthrough to the summary)."""
        return self.summary.query(phi)

    def query_many(self, phis: Sequence[float]) -> list[float]:
        """Several quantiles of the union."""
        return self.summary.query_many(phis)


def reap_processes(procs: dict[int, mp.process.BaseProcess]) -> dict[int, str]:
    """Join every worker, escalating join -> SIGTERM -> SIGKILL.

    A worker that outlives the polite ``join`` is terminated; one that
    ignores SIGTERM (a wedged queue feeder, a signal handler installed
    by user code) is killed — the pool never leaves a zombie behind.
    Returns ``{worker_id: what_it_took}`` for every worker that needed
    escalation past the plain join, so callers can surface the leak in
    :class:`PoolWorkerError` instead of hiding it.

    Exported because the same teardown discipline guards every
    process-owning layer: :class:`PersistentPool` here and the serving
    tier's :mod:`repro.service.supervisor`.
    """
    leaked: dict[int, str] = {}
    for worker_id, process in sorted(procs.items()):
        process.join(timeout=_JOIN_SECONDS)
        if not process.is_alive():
            continue
        process.terminate()
        process.join(timeout=_JOIN_SECONDS)
        if not process.is_alive():
            leaked[worker_id] = (
                f"outlived join({_JOIN_SECONDS:g}s); reaped by SIGTERM"
            )
            continue
        process.kill()
        process.join(timeout=_JOIN_SECONDS)
        if process.is_alive():  # pragma: no cover - kernel-level wedge
            leaked[worker_id] = (
                f"pid {process.pid} {_SURVIVED_SIGKILL}; process leaked"
            )
        else:
            leaked[worker_id] = "ignored SIGTERM; reaped by SIGKILL"
    return leaked


def _iter_chunks(
    values: Iterable[float], chunk_values: int
) -> Iterator[list[float]]:
    """Slice any iterable into picklable list chunks of ``chunk_values``."""
    iterator = iter(values)
    while chunk := list(itertools.islice(iterator, chunk_values)):
        yield chunk


def _close_queue(channel: Any) -> None:
    channel.close()
    channel.cancel_join_thread()


@dataclass
class _Round:
    """What one dispatch round brought back, before any merge."""

    seed: int
    snapshots: dict[int, EstimatorSnapshot]
    reports: dict[int, WorkerReport]
    #: Dispatch to the last result (one-shot runs widen it; see PoolResult).
    seconds: float
    #: Process starts this round paid for.
    spawn_seconds: float
    #: Elements the round's input held (file size, or values dispatched).
    expected_n: int = 0


class PersistentPool:
    """A spawn-once worker pool for Section 6's parallel ingest.

    Construction resolves the plan and starts all ``num_workers``
    processes; :meth:`run_file` can then be called any number of times —
    each call deals one work item to each already-running worker and
    merges the framed snapshots they ship.
    Workers that died (crash, injected fault, timeout) are respawned at
    the next dispatch, so a caller retries a failed run by calling
    :meth:`run_file` again; under a fixed seed the re-run is
    bit-identical to one that never failed.  Always :meth:`close` (or use
    ``with``): that is what reaps the processes.

    :param num_workers: worker processes (= shards per run).
    :param eps, delta: accuracy contract (or pass ``plan``).
    :param plan: explicit parameter plan; overrides eps/delta planning.
    :param policy: collapse policy (default: the paper's MRL policy).
    :param seed: master seed for per-item worker seeds and the merge;
        fresh entropy when ``None``.  A fixed seed makes every run
        bit-identical to a fresh pool's, and to the one-shot functions'.
    :param backend: kernel backend name/instance for every worker.
    :param start_method: multiprocessing start method (``None`` =
        platform default).
    :param chunk_values: values per read chunk in the workers' file scans.
    """

    def __init__(
        self,
        num_workers: int,
        *,
        eps: float | None = None,
        delta: float | None = None,
        plan: Plan | None = None,
        policy: CollapsePolicy | None = None,
        seed: int | None = None,
        backend: Any = None,
        start_method: str | None = None,
        chunk_values: int = CHUNK_VALUES,
    ) -> None:
        if num_workers < 1:
            raise ValueError(f"need at least one worker, got {num_workers}")
        if plan is None:
            if eps is None or delta is None:
                raise ValueError("provide either (eps, delta) or an explicit plan")
            plan = plan_parameters(eps, delta, policy=policy)
        method = start_method if start_method is not None else mp.get_start_method()
        if method not in mp.get_all_start_methods():
            raise ValueError(
                f"start method {method!r} is not available on this platform; "
                f"choose from {mp.get_all_start_methods()}"
            )
        self._plan = plan
        self._policy = policy
        self._backend_name = get_backend(backend).name  # validate in the parent
        # Fresh entropy per unseeded pool, like an unseeded estimator;
        # fixed seeds are what make pool runs reproducible.
        self._seed = (
            seed if seed is not None else random_mod.SystemRandom().randrange(2**62)
        )
        self._method = method
        self._chunk_values = chunk_values
        self._num_workers = num_workers
        self._ctx = mp.get_context(method)
        self._results: Any = self._ctx.Queue()
        self._control: dict[int, Any] = {}
        self._procs: dict[int, mp.process.BaseProcess] = {}
        self._seq = 0
        self._respawns = 0
        self._closed = False
        self._spawn_started = time.perf_counter()
        try:
            for wid in range(num_workers):
                self._spawn(wid)
        except BaseException:
            # A half-built pool must not leak the workers it did start.
            self.close()
            raise
        self._spawn_seconds = time.perf_counter() - self._spawn_started

    # -- introspection -------------------------------------------------
    @property
    def num_workers(self) -> int:
        """Workers the pool was sized for (= shards per run)."""
        return self._num_workers

    @property
    def seed(self) -> int:
        """The resolved master seed runs default to."""
        return self._seed

    @property
    def start_method(self) -> str:
        """The resolved multiprocessing start method."""
        return self._method

    @property
    def spawn_seconds(self) -> float:
        """One-time cost of starting the worker processes.

        The number the persistence amortises: a campaign of ``R`` runs
        pays it once instead of ``R`` times.
        """
        return self._spawn_seconds

    @property
    def respawns(self) -> int:
        """Workers restarted after a death (retry rounds, faults)."""
        return self._respawns

    @property
    def closed(self) -> bool:
        """True once :meth:`close` has torn the pool down."""
        return self._closed

    # -- lifecycle -----------------------------------------------------
    def _spawn(self, wid: int) -> None:
        """Start worker ``wid`` on a fresh control queue.

        Never the old queue: a worker that died mid-stream may have left
        chunks in it, or died holding its read lock.
        """
        if wid in self._control:
            _close_queue(self._control[wid])
        control = self._ctx.Queue(maxsize=_QUEUE_DEPTH)
        self._control[wid] = control
        spec = WorkerSpec(
            worker_id=wid,
            backend=self._backend_name,
            plan=dataclasses.asdict(self._plan),
            policy_name=self._policy.name if self._policy is not None else None,
            chunk_values=self._chunk_values,
        )
        # Daemonic, so a pool its owner forgot to close cannot hold the
        # interpreter's exit hostage: multiprocessing terminates it.
        process = self._ctx.Process(
            target=_pool_worker,
            args=(spec, control, self._results),
            name=f"repro-pool-{wid}",
            daemon=True,
        )
        process.start()
        self._procs[wid] = process

    def _ensure_workers(self, worker_ids: Iterable[int]) -> float:
        """Respawn any dead worker about to get an item; seconds spent."""
        started = time.perf_counter()
        dead = [wid for wid in worker_ids if not self._procs[wid].is_alive()]
        for wid in dead:
            self._respawns += 1
            self._spawn(wid)
        return time.perf_counter() - started if dead else 0.0

    def _kill(self, wid: int) -> None:
        """Stop a worker mid-item; the next dispatch respawns it."""
        process = self._procs[wid]
        process.kill()
        process.join(timeout=_JOIN_SECONDS)

    def _put(self, wid: int, message: Any) -> None:
        """Bounded put that drops instead of blocking on a dead worker."""
        while self._procs[wid].is_alive():
            try:
                self._control[wid].put(message, timeout=_POLL_SECONDS)
                return
            except queue_mod.Full:
                continue

    def close(self) -> dict[int, str]:
        """Shut the pool down: sentinels, then the escalating reap.

        Returns the ``{worker_id: what_it_took}`` leak accounting of
        :func:`reap_processes` (empty when every worker left on the
        polite join).  Idempotent.
        """
        if self._closed:
            return {}
        self._closed = True
        for control in self._control.values():
            # A full queue means a wedged worker; the reap escalates.
            with contextlib.suppress(queue_mod.Full):
                control.put_nowait(None)
        leaked = reap_processes(self._procs)
        for channel in (*self._control.values(), self._results):
            _close_queue(channel)
        return leaked

    def __enter__(self) -> "PersistentPool":
        return self

    def __exit__(
        self,
        exc_type: type[BaseException] | None,
        exc: BaseException | None,
        tb: TracebackType | None,
    ) -> None:
        self.close()

    # -- dispatch / collect --------------------------------------------
    def _round(
        self,
        seed: int,
        items: dict[int, tuple[Any, ...]],
        timeout: float | None,
        feed: Callable[[], int] | None = None,
    ) -> _Round:
        """Deal one item per worker, feed a stream, collect, load."""
        if self._closed:
            raise RuntimeError("pool is closed")
        spawn_seconds = self._ensure_workers(items)
        started = time.perf_counter()
        expected: dict[int, int] = {}
        for wid, item in items.items():
            self._seq += 1
            expected[wid] = self._seq
            self._put(wid, (self._seq, seed_for_worker(seed, wid), *item))
        expected_n = 0
        if feed is not None:
            try:
                expected_n = feed()
            except BaseException:
                # The *input* failed mid-dispatch (bad token, broken
                # generator): the workers are mid-item, so stop them.
                for wid in items:
                    self._kill(wid)
                raise
        snapshots, reports = self._collect(expected, timeout)
        seconds = time.perf_counter() - started
        return _Round(seed, snapshots, reports, seconds, spawn_seconds, expected_n)

    def _collect(
        self, expected: dict[int, int], timeout: float | None
    ) -> tuple[dict[int, EstimatorSnapshot], dict[int, WorkerReport]]:
        """Wait for each expected (worker, seq) to ship, fail, or die.

        Returns the verified snapshots and one report per worker.  Never
        hangs on a corpse: a dead worker is reported lost with its exit
        code, stragglers past ``timeout`` are killed and reported lost
        without one, and a frame that fails verification is a lost shard,
        not a poisoned merge.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        snapshots: dict[int, EstimatorSnapshot] = {}
        reports: dict[int, WorkerReport] = {}
        pending = set(expected)
        while pending:
            try:
                wid, seq, frame, n, seconds, error = self._results.get(
                    timeout=_POLL_SECONDS
                )
            except queue_mod.Empty:
                for wid in sorted(pending):
                    process = self._procs[wid]
                    if not process.is_alive():
                        reports[wid] = WorkerReport(
                            wid, lost=True, exitcode=process.exitcode
                        )
                        pending.discard(wid)
                if deadline is not None and time.monotonic() > deadline:
                    for wid in sorted(pending):
                        self._kill(wid)
                        reports[wid] = WorkerReport(wid, lost=True)
                    pending.clear()
                continue
            if expected.get(wid) != seq:
                continue  # a stale ship from a timed-out earlier round
            pending.discard(wid)
            if error is None:
                try:
                    snapshots[wid] = persist.loads(frame)
                except persist.CheckpointError as exc:
                    error = f"{type(exc).__name__}: {exc}"
            reports[wid] = WorkerReport(
                wid,
                n=n,
                shipped_bytes=len(frame),
                ingest_seconds=seconds,
                lost=error is not None,
                error=error,
            )
        return snapshots, reports

    def _file_round(
        self,
        path: str | os.PathLike[str],
        seed: int | None,
        timeout: float | None,
        fail_after: dict[int, int] | None,
    ) -> _Round:
        expected_n = count_floats(path)
        ranges = plan_byte_ranges(path, self._num_workers)
        items = {
            wid: ((fail_after or {}).get(wid), os.fspath(path), *ranges[wid])
            for wid in range(self._num_workers)
        }
        round_ = self._round(self._seed if seed is None else seed, items, timeout)
        round_.expected_n = expected_n
        return round_

    def _stream_round(
        self,
        values: Iterable[float],
        timeout: float | None,
        fail_after: dict[int, int] | None,
        chunk_values: int,
    ) -> _Round:
        if chunk_values < 1:
            raise ValueError(f"chunk_values must be >= 1, got {chunk_values}")
        workers = range(self._num_workers)

        def feed() -> int:
            dispatched = 0
            for index, chunk in enumerate(_iter_chunks(values, chunk_values)):
                dispatched += len(chunk)
                self._put(index % self._num_workers, chunk)
            for wid in workers:
                self._put(wid, None)  # end of this item's stream
            return dispatched

        items = {wid: ((fail_after or {}).get(wid), None, 0, 0) for wid in workers}
        return self._round(self._seed, items, timeout, feed)

    def _merge(
        self, round_: _Round, strict: bool, leaked: dict[int, str] | None = None
    ) -> PoolResult:
        """Coordinator merge + result assembly for every pool run."""
        leaked = dict(leaked or {})
        workers = range(self._num_workers)
        snapshots = [round_.snapshots.get(wid) for wid in workers]
        reports = [round_.reports[wid] for wid in workers]
        lost = {report.worker_id: report.exitcode for report in reports if report.lost}
        errors = {report.worker_id: report.error for report in reports if report.error}
        # Degraded mode can survive lost shards, but not losing them all:
        # with no surviving data there is no partial answer to merge.
        survivors = any(snap is not None and snap.n > 0 for snap in snapshots)
        if lost and (strict or not survivors):
            raise PoolWorkerError(lost, leaked, errors, survivors=survivors)
        if strict and any(_SURVIVED_SIGKILL in what for what in leaked.values()):
            # Every result arrived, but a worker outlived SIGKILL: that is
            # a real process leak, and strict callers asked to hear of it.
            raise PoolWorkerError({}, leaked)
        merge_started = time.perf_counter()
        summary = merge_snapshots(
            snapshots,
            policy=self._policy,
            seed=_derive_seed(round_.seed, "merge"),
            strict=False,
            expected_n=round_.expected_n,
            backend=self._backend_name,
        )
        merge_seconds = time.perf_counter() - merge_started
        assert summary.report is not None
        for shipment in summary.report.shipments:
            report = reports[shipment.shard_id]
            report.full_buffers = shipment.full_buffers
            report.partial_buffers = shipment.partial_buffers
            report.full_elements = shipment.full_elements
            report.partial_elements = shipment.partial_elements
        return PoolResult(
            summary=summary,
            report=summary.report,
            workers=reports,
            n=summary.n,
            expected_n=round_.expected_n,
            start_method=self._method,
            ingest_seconds=round_.seconds,
            merge_seconds=merge_seconds,
            spawn_seconds=round_.spawn_seconds,
            leaked=leaked,
        )

    # -- public runs ---------------------------------------------------
    def run_file(
        self,
        path: str | os.PathLike[str],
        *,
        seed: int | None = None,
        strict: bool = True,
        timeout: float | None = None,
        fail_after: dict[int, int] | None = None,
    ) -> PoolResult:
        """Parallel one-pass ingest of a float64 file; reusable.

        Worker ``w`` scans the ``w``-th aligned byte range of the file
        with sequential I/O.  Parameters as for :func:`run_pool_on_file`;
        ``seed`` overrides the pool's master seed for this run.
        """
        return self._merge(
            self._file_round(path, seed, timeout, fail_after), strict
        )


def _one_shot(
    run: Callable[[PersistentPool], _Round],
    num_workers: int,
    strict: bool,
    **options: Any,
) -> PoolResult:
    """Build a pool, run one round on it, close it, then merge."""
    pool = PersistentPool(num_workers, **options)
    try:
        round_ = run(pool)
    finally:
        leaked = pool.close()
    # This run started its own processes: it pays the spawn, and its
    # ingest runs from the spawn to the reaped last result.
    round_.spawn_seconds = pool.spawn_seconds
    round_.seconds = time.perf_counter() - pool._spawn_started
    return pool._merge(round_, strict, leaked)


def run_pool_on_file(
    path: str | os.PathLike[str],
    num_workers: int,
    *,
    eps: float | None = None,
    delta: float | None = None,
    plan: Plan | None = None,
    policy: CollapsePolicy | None = None,
    seed: int | None = None,
    backend: Any = None,
    start_method: str | None = None,
    strict: bool = True,
    chunk_values: int = CHUNK_VALUES,
    timeout: float | None = None,
    fail_after: dict[int, int] | None = None,
) -> PoolResult:
    """Parallel one-pass ingest of a float64 file across real processes.

    The file is split by :func:`~repro.streams.diskfile.plan_byte_ranges`
    into ``num_workers`` aligned byte ranges; each worker process scans
    its own slice with sequential I/O, summarises it, and ships one
    framed snapshot back.  With a fixed ``seed`` the answer is
    bit-identical across runs, start methods, and to a reused
    :class:`PersistentPool` under the same seed.

    :param strict: when True (default) a lost worker raises
        :class:`PoolWorkerError`; when False the merge degrades and the
        result's :attr:`PoolResult.report` quantifies the lost weight.
    :param timeout: overall deadline in seconds for the ingest phase;
        stragglers past it are killed and counted lost.  ``None``
        (default) waits indefinitely for *live* workers but still reaps
        dead ones, so a killed worker can never hang the pool.
    :param fail_after: ``{worker_id: n}`` fault injection — that worker
        hard-exits after ingesting ``n`` elements (tests, benchmarks).
    """
    return _one_shot(
        lambda pool: pool._file_round(path, None, timeout, fail_after),
        num_workers,
        strict,
        eps=eps,
        delta=delta,
        plan=plan,
        policy=policy,
        seed=seed,
        backend=backend,
        start_method=start_method,
        chunk_values=chunk_values,
    )


def run_pool_on_stream(
    values: Iterable[float],
    num_workers: int,
    *,
    eps: float | None = None,
    delta: float | None = None,
    plan: Plan | None = None,
    policy: CollapsePolicy | None = None,
    seed: int | None = None,
    backend: Any = None,
    start_method: str | None = None,
    strict: bool = True,
    chunk_values: int = STREAM_CHUNK_VALUES,
    timeout: float | None = None,
    fail_after: dict[int, int] | None = None,
) -> PoolResult:
    """Parallel ingest of an in-memory or generator stream.

    The chunk-striping driver: the parent slices the stream into chunks
    and deals chunk ``i`` to worker ``i % num_workers`` over a bounded
    queue, so an unboundedly large generator flows through with O(chunk)
    parent memory.  Striping is deterministic, so fixed-seed runs are
    bit-identical across repetitions and start methods.

    Chunks dealt to a worker that has already died are dropped (their
    elements are still counted in ``expected_n``, so a degraded merge's
    ``weight_coverage`` stays honest).  See :func:`run_pool_on_file` for
    the shared parameters.
    """
    return _one_shot(
        lambda pool: pool._stream_round(values, timeout, fail_after, chunk_values),
        num_workers,
        strict,
        eps=eps,
        delta=delta,
        plan=plan,
        policy=policy,
        seed=seed,
        backend=backend,
        start_method=start_method,
    )
