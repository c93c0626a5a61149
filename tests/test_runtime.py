"""Tests for the multi-process parallel ingest runtime (repro.runtime).

The pool engine's load-bearing promises are each pinned here:

* **Determinism** — a fixed-seed pool is bit-identical across repeated
  runs, across multiprocessing start methods (fork vs spawn), between a
  reused :class:`PersistentPool` and a one-shot run, and between the
  native and python kernels.
* **Crash != hang** — a worker killed mid-ingest degrades the merge
  (``strict=False``) with honest ``weight_coverage``, or raises
  :class:`PoolWorkerError` (``strict=True``); it never hangs the pool,
  and an item that raises inside a worker names its error to the caller.
* **No leaks** — no worker process survives ``close()``, a worker crash,
  an ingest timeout, or a SIGKILLed coordinator.
* **The Section 6 bound is measured on the wire** — every worker ships
  at most one full and at most one partial buffer, visible on
  ``MergeReport.shipments`` and the per-worker reports.
"""

from __future__ import annotations

import math
import multiprocessing
import os
import random
import signal
import subprocess
import sys
import time

import pytest

from repro.core.params import Plan
from repro.runtime import (
    PersistentPool,
    PoolWorkerError,
    available_start_methods,
    run_pool_on_file,
    run_pool_on_stream,
    seed_for_worker,
)
from repro.runtime import pool as pool_mod
from repro.runtime.pool import FAULT_EXIT_CODE
from repro.stats.rank import is_eps_approximate
from repro.streams.diskfile import write_floats

#: Small but non-degenerate plan so pool tests stay fast.
POOL_PLAN = Plan(
    eps=0.05,
    delta=0.01,
    b=6,
    k=128,
    h=4,
    alpha=0.5,
    leaves_before_sampling=40,
    leaves_per_level=12,
    policy_name="mrl",
)

#: Generous per-test deadline: the collector reaps dead workers in
#: fractions of a second, so hitting this means the crash-handling broke.
DEADLINE = 120.0

PHIS = [0.1, 0.25, 0.5, 0.75, 0.9]


def _start_methods() -> list[str]:
    return [m for m in ("fork", "spawn") if m in available_start_methods()]


@pytest.fixture(scope="module")
def pool_values() -> list[float]:
    rng = random.Random(20260806)
    return [rng.random() for _ in range(30_000)]


@pytest.fixture(scope="module")
def pool_file(pool_values, tmp_path_factory) -> str:
    path = tmp_path_factory.mktemp("pool") / "values.f64"
    write_floats(path, pool_values)
    return str(path)


@pytest.fixture(scope="module")
def nan_file(pool_values, tmp_path_factory) -> str:
    """The pool values with one NaN inside worker 1's half of the file."""
    values = list(pool_values)
    values[20_000] = math.nan
    path = tmp_path_factory.mktemp("pool") / "nan.f64"
    write_floats(path, values)
    return str(path)


class TestSeedDerivation:
    def test_deterministic(self):
        assert seed_for_worker(42, 3) == seed_for_worker(42, 3)

    def test_distinct_workers_distinct_seeds(self):
        seeds = {seed_for_worker(42, wid) for wid in range(64)}
        assert len(seeds) == 64

    def test_distinct_masters_distinct_seeds(self):
        assert seed_for_worker(1, 0) != seed_for_worker(2, 0)

    def test_negative_worker_rejected(self):
        with pytest.raises(ValueError, match="worker_id"):
            seed_for_worker(42, -1)

    def test_stable_value(self):
        # Pinned: a change here silently breaks cross-version determinism.
        assert seed_for_worker(42, 0) == 0x0D943D8642A94D22


class TestFilePool:
    def test_accuracy(self, pool_file, pool_values):
        result = run_pool_on_file(
            pool_file, 3, plan=POOL_PLAN, seed=7, timeout=DEADLINE
        )
        assert result.n == len(pool_values)
        assert result.expected_n == len(pool_values)
        data = sorted(pool_values)
        for phi in PHIS:
            assert is_eps_approximate(data, result.query(phi), phi, POOL_PLAN.eps)

    def test_bit_identical_across_runs(self, pool_file):
        results = [
            run_pool_on_file(pool_file, 3, plan=POOL_PLAN, seed=11, timeout=DEADLINE)
            for _ in range(2)
        ]
        assert (
            results[0].summary.to_state_dict() == results[1].summary.to_state_dict()
        )
        assert results[0].query_many(PHIS) == results[1].query_many(PHIS)

    @pytest.mark.skipif(
        len(_start_methods()) < 2, reason="needs both fork and spawn"
    )
    def test_bit_identical_across_start_methods(self, pool_file):
        states = []
        for method in _start_methods():
            result = run_pool_on_file(
                pool_file,
                2,
                plan=POOL_PLAN,
                seed=13,
                start_method=method,
                timeout=DEADLINE,
            )
            assert result.start_method == method
            states.append(result.summary.to_state_dict())
        assert states[0] == states[1]

    def test_communication_bound_on_the_wire(self, pool_file, pool_values):
        result = run_pool_on_file(
            pool_file, 4, plan=POOL_PLAN, seed=17, timeout=DEADLINE
        )
        assert result.report.within_communication_bound
        assert len(result.report.shipments) == 4
        for worker in result.workers:
            assert worker.full_buffers <= 1
            assert worker.partial_buffers <= 1
            assert worker.shipped_bytes > 0
        assert result.shipped_bytes == sum(
            worker.shipped_bytes for worker in result.workers
        )
        assert sum(worker.n for worker in result.workers) == len(pool_values)

    def test_single_worker_pool(self, pool_file, pool_values):
        result = run_pool_on_file(
            pool_file, 1, plan=POOL_PLAN, seed=19, timeout=DEADLINE
        )
        assert result.n == len(pool_values)
        assert result.report.complete

    def test_more_workers_than_values(self, tmp_path):
        path = tmp_path / "tiny.f64"
        write_floats(path, [3.0, 1.0, 2.0])
        result = run_pool_on_file(path, 8, plan=POOL_PLAN, seed=23, timeout=DEADLINE)
        assert result.n == 3
        assert result.query(0.5) == 2.0

    def test_elements_per_second_positive(self, pool_file):
        result = run_pool_on_file(
            pool_file, 2, plan=POOL_PLAN, seed=29, timeout=DEADLINE
        )
        assert result.elements_per_second > 0
        assert result.merge_seconds >= 0


class TestStreamPool:
    def test_accuracy(self, pool_values):
        result = run_pool_on_stream(
            iter(pool_values), 3, plan=POOL_PLAN, seed=7, timeout=DEADLINE
        )
        assert result.n == len(pool_values)
        data = sorted(pool_values)
        for phi in PHIS:
            assert is_eps_approximate(data, result.query(phi), phi, POOL_PLAN.eps)

    def test_bit_identical_across_runs(self, pool_values):
        results = [
            run_pool_on_stream(
                iter(pool_values), 3, plan=POOL_PLAN, seed=11, timeout=DEADLINE
            )
            for _ in range(2)
        ]
        assert (
            results[0].summary.to_state_dict() == results[1].summary.to_state_dict()
        )

    @pytest.mark.skipif(
        len(_start_methods()) < 2, reason="needs both fork and spawn"
    )
    def test_bit_identical_across_start_methods(self, pool_values):
        states = [
            run_pool_on_stream(
                iter(pool_values),
                2,
                plan=POOL_PLAN,
                seed=13,
                start_method=method,
                timeout=DEADLINE,
            ).summary.to_state_dict()
            for method in _start_methods()
        ]
        assert states[0] == states[1]

    def test_generator_input_not_materialised(self):
        result = run_pool_on_stream(
            (float(i) for i in range(20_000)),
            2,
            plan=POOL_PLAN,
            seed=31,
            timeout=DEADLINE,
        )
        assert result.n == 20_000
        assert is_eps_approximate(
            [float(i) for i in range(20_000)],
            result.query(0.5),
            0.5,
            POOL_PLAN.eps,
        )

    def test_broken_input_does_not_leak_workers(self):
        def poisoned():
            for i in range(5_000):
                yield float(i)
            raise RuntimeError("upstream parse failure")

        with pytest.raises(RuntimeError, match="upstream parse failure"):
            run_pool_on_stream(
                poisoned(), 2, plan=POOL_PLAN, seed=37, timeout=DEADLINE
            )

    def test_bad_chunk_values_rejected(self):
        with pytest.raises(ValueError, match="chunk_values"):
            run_pool_on_stream([1.0], 1, plan=POOL_PLAN, chunk_values=0)


class TestFaults:
    def test_strict_pool_raises_with_exit_code(self, pool_file):
        with pytest.raises(PoolWorkerError) as excinfo:
            run_pool_on_file(
                pool_file,
                3,
                plan=POOL_PLAN,
                seed=41,
                fail_after={1: 2_000},
                timeout=DEADLINE,
            )
        assert excinfo.value.lost == {1: FAULT_EXIT_CODE}
        assert "exit code 70" in str(excinfo.value)

    @pytest.mark.smoke
    def test_degraded_merge_has_honest_coverage(self, pool_file, pool_values):
        result = run_pool_on_file(
            pool_file,
            3,
            plan=POOL_PLAN,
            seed=41,
            strict=False,
            fail_after={1: 2_000},
            timeout=DEADLINE,
        )
        assert not result.report.complete
        assert result.report.shards_lost == (1,)
        surviving = sum(w.n for w in result.workers if not w.lost)
        assert result.n == surviving
        assert result.report.weight_coverage == pytest.approx(
            surviving / len(pool_values)
        )
        assert result.workers[1].lost
        assert result.workers[1].exitcode == FAULT_EXIT_CODE
        # Survivors still answer, inside the degraded error bound, checked
        # against the exact ranks of the whole input.
        data = sorted(pool_values)
        wider = result.report.effective_eps(POOL_PLAN.eps)
        assert wider > POOL_PLAN.eps
        for phi, answer in zip(PHIS, result.query_many(PHIS)):
            assert is_eps_approximate(data, answer, phi, wider)

    def test_stream_pool_degrades_without_hanging(self, pool_values):
        result = run_pool_on_stream(
            iter(pool_values),
            3,
            plan=POOL_PLAN,
            seed=43,
            strict=False,
            fail_after={0: 1_000},
            timeout=DEADLINE,
        )
        assert result.report.shards_lost == (0,)
        # Chunks dealt to the corpse are dropped but still expected, so
        # coverage reflects what was actually summarised.
        assert result.expected_n == len(pool_values)
        assert result.n < len(pool_values)
        assert 0.0 < result.report.weight_coverage < 1.0

    def test_worker_error_reaches_strict_caller(self, nan_file):
        with pytest.raises(PoolWorkerError) as excinfo:
            run_pool_on_file(nan_file, 2, plan=POOL_PLAN, seed=59, timeout=DEADLINE)
        # The worker raised and stayed up: lost, with no exit code, and
        # the reason is in the error and its message.
        assert excinfo.value.lost == {1: None}
        assert excinfo.value.errors[1].startswith("ValueError: NaN")
        assert "worker 1 (ValueError: NaN values have no rank" in str(excinfo.value)

    def test_worker_error_rides_on_degraded_report(self, nan_file, pool_values):
        result = run_pool_on_file(
            nan_file, 2, plan=POOL_PLAN, seed=59, strict=False, timeout=DEADLINE
        )
        assert result.report.shards_lost == (1,)
        assert result.n == result.workers[0].n == 15_000
        assert 0.0 < result.report.weight_coverage < 1.0
        lost = result.workers[1]
        assert lost.lost and lost.exitcode is None
        assert lost.error.startswith("ValueError: NaN")
        assert result.workers[0].error is None

    def test_all_workers_lost_raises_even_degraded(self, pool_file):
        # Degraded mode needs at least one survivor to build a partial
        # answer from; losing every shard is an error, not a hang.
        with pytest.raises(PoolWorkerError) as excinfo:
            run_pool_on_file(
                pool_file,
                2,
                plan=POOL_PLAN,
                seed=47,
                strict=False,
                fail_after={0: 100, 1: 100},
                timeout=DEADLINE,
            )
        assert excinfo.value.lost == {0: FAULT_EXIT_CODE, 1: FAULT_EXIT_CODE}
        # The caller already passed strict=False: the message must not
        # suggest it, but say why no partial answer exists.
        message = str(excinfo.value)
        assert "a degraded merge needs at least one surviving shard" in message
        assert "strict=False" not in message


def _sleepy_worker() -> None:
    """Naps through the polite join: reapable by SIGTERM."""
    time.sleep(600)


def _stubborn_worker() -> None:
    """Ignores SIGTERM, then naps: needs SIGKILL."""
    signal.signal(signal.SIGTERM, signal.SIG_IGN)
    time.sleep(600)


@pytest.mark.skipif(
    "fork" not in available_start_methods(), reason="needs fork start method"
)
class TestShutdownEscalation:
    """Reaping never leaves a zombie: join -> SIGTERM -> SIGKILL."""

    def _reap_one(self, target, monkeypatch):
        monkeypatch.setattr(pool_mod, "_JOIN_SECONDS", 0.3)
        proc = multiprocessing.get_context("fork").Process(target=target)
        proc.start()
        try:
            leaked = pool_mod.reap_processes({0: proc})
            assert not proc.is_alive()
            return leaked
        finally:
            if proc.is_alive():  # pragma: no cover - escalation failed
                proc.kill()
            proc.join(timeout=5)

    def test_worker_outliving_join_is_terminated(self, monkeypatch):
        leaked = self._reap_one(_sleepy_worker, monkeypatch)
        assert leaked == {0: "outlived join(0.3s); reaped by SIGTERM"}

    def test_sigterm_ignoring_worker_is_killed(self, monkeypatch):
        leaked = self._reap_one(_stubborn_worker, monkeypatch)
        assert leaked == {0: "ignored SIGTERM; reaped by SIGKILL"}

    def test_pool_worker_error_reports_escalation(self):
        err = PoolWorkerError(
            {1: 9}, leaked={0: "ignored SIGTERM; reaped by SIGKILL"}
        )
        assert err.leaked == {0: "ignored SIGTERM; reaped by SIGKILL"}
        assert "worker 1 (exit code 9)" in str(err)
        assert "shutdown escalation: worker 0" in str(err)

    def test_pool_worker_error_escalation_only(self):
        err = PoolWorkerError({}, leaked={2: "outlived join(5s); reaped by SIGTERM"})
        assert "escalate past SIGTERM" in str(err)
        assert "worker 2" in str(err)


class TestLeakSurfacing:
    """A leaked worker is reported even when every result arrived."""

    def _run(self, pool_file, monkeypatch, leaked, *, strict):
        reap = pool_mod.reap_processes

        def reap_reporting(procs):
            reap(procs)
            return dict(leaked)

        monkeypatch.setattr(pool_mod, "reap_processes", reap_reporting)
        return run_pool_on_file(
            pool_file, 1, plan=POOL_PLAN, seed=3, strict=strict, timeout=DEADLINE
        )

    def test_clean_run_has_empty_leaked(self, pool_file, monkeypatch):
        assert self._run(pool_file, monkeypatch, {}, strict=True).leaked == {}

    def test_reaped_escalation_rides_on_successful_result(
        self, pool_file, monkeypatch
    ):
        leaked = {0: "ignored SIGTERM; reaped by SIGKILL"}
        result = self._run(pool_file, monkeypatch, leaked, strict=True)
        assert result.leaked == leaked
        assert result.n == 30_000  # the merge itself still succeeded

    def test_sigkill_survivor_raises_in_strict_mode(self, pool_file, monkeypatch):
        leaked = {0: "pid 123 survived SIGKILL; process leaked"}
        with pytest.raises(PoolWorkerError) as excinfo:
            self._run(pool_file, monkeypatch, leaked, strict=True)
        assert excinfo.value.lost == {}
        assert excinfo.value.leaked == leaked
        assert "escalate past SIGTERM" in str(excinfo.value)

    def test_sigkill_survivor_tolerated_when_degraded(self, pool_file, monkeypatch):
        leaked = {0: "pid 123 survived SIGKILL; process leaked"}
        result = self._run(pool_file, monkeypatch, leaked, strict=False)
        assert result.leaked == leaked


class TestArgumentValidation:
    def test_zero_workers(self, pool_file):
        with pytest.raises(ValueError, match="at least one worker"):
            run_pool_on_file(pool_file, 0, plan=POOL_PLAN)

    def test_missing_plan_and_eps(self, pool_file):
        with pytest.raises(ValueError, match="eps, delta"):
            run_pool_on_file(pool_file, 2)

    def test_unknown_start_method(self, pool_file):
        with pytest.raises(ValueError, match="start method"):
            run_pool_on_file(
                pool_file, 2, plan=POOL_PLAN, start_method="teleport"
            )

    def test_eps_delta_without_plan(self, tmp_path):
        path = tmp_path / "few.f64"
        write_floats(path, [float(i) for i in range(2_000)])
        result = run_pool_on_file(
            path, 2, eps=0.1, delta=0.01, seed=53, timeout=DEADLINE
        )
        assert result.n == 2_000


def _new_children(before: set) -> set:
    return set(multiprocessing.active_children()) - before


class TestPersistentPool:
    def test_batches_match_fresh_pools(self, pool_file):
        """A reused pool equals fresh pools, batch over batch."""
        with PersistentPool(2, plan=POOL_PLAN, seed=77) as pool:
            reused = [
                pool.run_file(pool_file, timeout=DEADLINE).query_many(PHIS)
                for _ in range(3)
            ]
        fresh = []
        for _ in range(3):
            with PersistentPool(2, plan=POOL_PLAN, seed=77) as pool:
                fresh.append(
                    pool.run_file(pool_file, timeout=DEADLINE).query_many(PHIS)
                )
        assert reused == fresh
        assert reused[0] == reused[1] == reused[2]

    def test_reused_pool_matches_one_shot(self, pool_file):
        one_shot = run_pool_on_file(
            pool_file, 3, plan=POOL_PLAN, seed=901, timeout=DEADLINE
        )
        with PersistentPool(3, plan=POOL_PLAN, seed=901) as pool:
            first = pool.run_file(pool_file, timeout=DEADLINE)
            second = pool.run_file(pool_file, timeout=DEADLINE)
        for reused in (first, second):
            assert (
                reused.summary.to_state_dict() == one_shot.summary.to_state_dict()
            )
            assert reused.n == one_shot.n == 30_000
            assert reused.shipped_bytes == one_shot.shipped_bytes

    def test_communication_bound(self, pool_file):
        with PersistentPool(4, plan=POOL_PLAN, seed=5) as pool:
            result = pool.run_file(pool_file, timeout=DEADLINE)
        assert result.report.within_communication_bound
        for shipment in result.report.shipments:
            assert shipment.full_buffers <= 1
            assert shipment.partial_buffers <= 1
            assert shipment.within_bound
        assert all(worker.shipped_bytes > 0 for worker in result.workers)

    def test_spawn_paid_once(self, pool_file):
        with PersistentPool(2, plan=POOL_PLAN, seed=8) as pool:
            assert pool.spawn_seconds > 0
            first = pool.run_file(pool_file, timeout=DEADLINE)
            second = pool.run_file(pool_file, timeout=DEADLINE)
        # No worker died, so neither run paid any (re)spawn cost.
        assert first.spawn_seconds == 0.0
        assert second.spawn_seconds == 0.0
        assert pool.respawns == 0

    @pytest.mark.smoke
    def test_strict_crash_raises_and_pool_recovers(self, pool_file):
        with PersistentPool(3, plan=POOL_PLAN, seed=13) as pool:
            baseline = pool.run_file(pool_file, timeout=DEADLINE).query_many(PHIS)
            with pytest.raises(PoolWorkerError, match="pass strict=False"):
                pool.run_file(
                    pool_file,
                    timeout=DEADLINE,
                    fail_after={1: 100},
                    strict=True,
                )
            # The dead worker is respawned lazily, so retrying is calling
            # run_file again: the re-run is whole and bit-identical to the
            # pre-crash baseline.
            after = pool.run_file(pool_file, timeout=DEADLINE)
            assert pool.respawns == 1
            assert after.spawn_seconds > 0
            assert after.report.complete
            assert after.query_many(PHIS) == baseline
        # ... and to a fresh pool that never saw a crash, state for state.
        with PersistentPool(3, plan=POOL_PLAN, seed=13) as fresh:
            never_failed = fresh.run_file(pool_file, timeout=DEADLINE)
        assert after.summary.to_state_dict() == never_failed.summary.to_state_dict()

    def test_failing_item_keeps_worker_up(self, nan_file, pool_file):
        with PersistentPool(2, plan=POOL_PLAN, seed=17) as pool:
            failed = pool.run_file(nan_file, strict=False, timeout=DEADLINE)
            assert failed.workers[1].error.startswith("ValueError: NaN")
            whole = pool.run_file(pool_file, timeout=DEADLINE)
            assert pool.respawns == 0
        assert whole.report.complete

    def test_degraded_merge_has_honest_coverage(self, pool_file):
        with PersistentPool(3, plan=POOL_PLAN, seed=13) as pool:
            result = pool.run_file(
                pool_file,
                timeout=DEADLINE,
                fail_after={2: 100},
                strict=False,
            )
            assert result.report.weight_coverage < 1.0
            assert result.n < 30_000

    def test_timeout_kills_stragglers_and_pool_recovers(self, tmp_path, pool_file):
        big = tmp_path / "big.f64"
        write_floats(big, (float(i) for i in range(400_000)))
        before = set(multiprocessing.active_children())
        # One value per read makes each 200,000-value slice take about a
        # second, far past the deadline: both workers are mid-scan at it.
        with PersistentPool(
            2, plan=POOL_PLAN, seed=19, backend="python", chunk_values=1
        ) as pool:
            workers = _new_children(before)
            with pytest.raises(PoolWorkerError) as excinfo:
                pool.run_file(big, strict=False, timeout=0.05)
            assert excinfo.value.lost == {0: None, 1: None}
            assert not any(worker.is_alive() for worker in workers)
            assert pool.run_file(pool_file, timeout=DEADLINE).report.complete
            assert pool.respawns == 2

    def test_closed_pool_refuses_runs(self, pool_file):
        with PersistentPool(1, plan=POOL_PLAN, seed=3) as pool:
            pass
        with pytest.raises(RuntimeError, match="closed"):
            pool.run_file(pool_file)

    def test_no_workers_survive_run(self, pool_file):
        before = set(multiprocessing.active_children())
        run_pool_on_file(pool_file, 2, plan=POOL_PLAN, seed=3, timeout=DEADLINE)
        assert _new_children(before) == set()

    def test_close_is_idempotent_and_reaps_workers(self):
        before = set(multiprocessing.active_children())
        pool = PersistentPool(2, plan=POOL_PLAN, seed=4)
        workers = _new_children(before)
        assert len(workers) == 2
        assert pool.close() == {}
        assert pool.closed
        assert not any(worker.is_alive() for worker in workers)
        assert pool.close() == {}

    def test_failed_construction_leaks_nothing(self, monkeypatch):
        """An exception mid-constructor reaps the workers already started."""
        calls = {"n": 0}
        original = PersistentPool._spawn

        def exploding_spawn(self, wid):
            calls["n"] += 1
            if calls["n"] == 2:
                raise RuntimeError("boom during spawn")
            original(self, wid)

        monkeypatch.setattr(PersistentPool, "_spawn", exploding_spawn)
        before = set(multiprocessing.active_children())
        with pytest.raises(RuntimeError, match="boom during spawn"):
            PersistentPool(2, plan=POOL_PLAN, seed=6)
        assert _new_children(before) == set()


try:
    from repro.kernels import _native  # noqa: F401

    HAVE_NATIVE = True
except ImportError:  # pragma: no cover - exercised on build-free hosts
    HAVE_NATIVE = False


def _kernel_free_state(result) -> dict:
    """The merged summary's state minus the name of the kernels behind it."""
    state = result.summary.to_state_dict()
    state["coordinator"]["engine"].pop("backend")
    return state


@pytest.mark.skipif(not HAVE_NATIVE, reason="compiled extension not built")
class TestNativeBackendPool:
    """The compiled kernels share the python RNG kind and draw law, so
    every pool path is bit-identical across the two backends."""

    def test_native_bit_identical_to_python(self, pool_file):
        python = run_pool_on_file(
            pool_file, 3, plan=POOL_PLAN, seed=901, backend="python",
            timeout=DEADLINE,
        )
        native = run_pool_on_file(
            pool_file, 3, plan=POOL_PLAN, seed=901, backend="native",
            timeout=DEADLINE,
        )
        assert _kernel_free_state(native) == _kernel_free_state(python)
        assert native.n == python.n == 30_000
        assert native.shipped_bytes == python.shipped_bytes

    def test_native_stream_bit_identical_to_python(self, pool_values):
        python, native = (
            run_pool_on_stream(
                iter(pool_values), 3, plan=POOL_PLAN, seed=907,
                backend=backend, timeout=DEADLINE,
            )
            for backend in ("python", "native")
        )
        assert _kernel_free_state(native) == _kernel_free_state(python)

    def test_persistent_pool_native_matches_python(self, pool_file):
        with PersistentPool(2, plan=POOL_PLAN, seed=77, backend="native") as pool:
            native = [
                pool.run_file(pool_file, timeout=DEADLINE).query_many(PHIS)
                for _ in range(2)
            ]
        with PersistentPool(2, plan=POOL_PLAN, seed=77, backend="python") as pool:
            python = [
                pool.run_file(pool_file, timeout=DEADLINE).query_many(PHIS)
                for _ in range(2)
            ]
        assert native == python


#: One scenario per lifecycle hazard; each runs in a fresh interpreter so
#: its stderr and its children are exclusively its own.  Each prints the
#: pids of its live pool workers.
_SCENARIOS = {
    "clean": """
with PersistentPool(2, plan=PLAN, seed=1) as pool:
    result = pool.run_file(PATH, timeout=60)
    assert result.n == 30_000
    print("PIDS", *worker_pids(), flush=True)
""",
    "worker_crash": """
with PersistentPool(2, plan=PLAN, seed=1) as pool:
    print("PIDS", *worker_pids(), flush=True)
    try:
        pool.run_file(PATH, timeout=60, fail_after={0: 50}, strict=True)
    except PoolWorkerError:
        pass
    else:
        raise AssertionError("crash did not raise")
""",
    "coordinator_sigkill": """
import os, signal
pool = PersistentPool(2, plan=PLAN, seed=1)
pool.run_file(PATH, timeout=60)  # the workers are parked from here on
print("PIDS", *worker_pids(), flush=True)
os.kill(os.getpid(), signal.SIGKILL)
""",
}

_SCENARIO_PREAMBLE = """
import multiprocessing, sys
from repro.core.params import Plan
from repro.runtime import PersistentPool, PoolWorkerError
PLAN = Plan(
    eps=0.05, delta=0.01, b=6, k=128, h=4, alpha=0.5,
    leaves_before_sampling=40, leaves_per_level=12, policy_name="mrl",
)
PATH = sys.argv[1]

def worker_pids():
    return [child.pid for child in multiprocessing.active_children()]
"""


def _pid_alive(pid: int) -> bool:
    """Whether ``pid`` runs (an unreaped zombie has already exited)."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            return handle.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False
    except OSError:  # pragma: no cover - no procfs on this platform
        try:
            os.kill(pid, 0)
        except ProcessLookupError:
            return False
        return True


def _pids_gone(pids: list[int], timeout: float) -> bool:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if not any(_pid_alive(pid) for pid in pids):
            return True
        time.sleep(0.05)
    return False


class TestWorkerLeaks:
    """Every exit path — polite, crashing, or SIGKILLed — ends the workers."""

    @pytest.fixture()
    def run_scenario(self, pool_file, tmp_path):
        """Run one scenario; kill whatever worker it leaves behind."""
        seen: list[int] = []

        def run(name: str):
            # Output goes to files, not pipes: workers inherit the
            # scenario's descriptors, and an orphan holding a pipe open
            # would stall the read instead of failing the assertion.
            out, err = tmp_path / f"{name}.out", tmp_path / f"{name}.err"
            with open(out, "w") as stdout, open(err, "w") as stderr:
                proc = subprocess.run(
                    [
                        sys.executable,
                        "-c",
                        _SCENARIO_PREAMBLE + _SCENARIOS[name],
                        pool_file,
                    ],
                    stdout=stdout,
                    stderr=stderr,
                    timeout=DEADLINE,
                    env={**os.environ, "PYTHONPATH": "src"},
                    cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                )
            lines = out.read_text().splitlines()
            pids = [int(pid) for line in lines if line.startswith("PIDS")
                    for pid in line.split()[1:]]
            assert pids, f"scenario printed no pids:\n{lines}\n{err.read_text()}"
            seen.extend(pids)
            return proc.returncode, err.read_text(), pids

        yield run
        for pid in seen:
            if _pid_alive(pid):  # pragma: no cover - only after a failure
                os.kill(pid, signal.SIGKILL)

    def test_clean_shutdown_reaps_workers(self, run_scenario):
        returncode, stderr, pids = run_scenario("clean")
        assert returncode == 0, stderr
        assert _pids_gone(pids, timeout=10.0)
        # Teardown noise on stderr (a worker traceback, an exported
        # buffer) is a failure, not log spam.
        assert stderr.strip() == ""

    def test_worker_crash_reaps_workers(self, run_scenario):
        returncode, stderr, pids = run_scenario("worker_crash")
        assert returncode == 0, stderr
        assert _pids_gone(pids, timeout=10.0)
        assert stderr.strip() == ""

    def test_coordinator_sigkill_orphans_exit(self, run_scenario):
        """SIGKILL skips every finally: parked workers notice the orphaning.

        A parked worker polls its control queue every
        ``_ORPHAN_POLL_SECONDS``; once its parent is gone it exits, so
        every worker is gone within a few poll periods.
        """
        returncode, _stderr, pids = run_scenario("coordinator_sigkill")
        assert returncode == -signal.SIGKILL
        assert len(pids) == 2
        assert _pids_gone(pids, timeout=5 * pool_mod._ORPHAN_POLL_SECONDS)
