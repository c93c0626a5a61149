"""Fault injection and crash recovery for the sharded-ingestion runtime."""

from __future__ import annotations

import random

import pytest

from repro import (
    FaultPlan,
    ShardLostError,
    ShardSupervisor,
    ShipTimeoutError,
    merge_snapshots,
    partition_stream,
)
from repro.core.params import Plan
from repro.core.unknown_n import UnknownNQuantiles
from repro.stats.rank import rank_error
from repro.streams.diskfile import write_floats

TINY_PLAN = Plan(
    eps=0.05,
    delta=0.01,
    b=3,
    k=50,
    h=2,
    alpha=0.5,
    leaves_before_sampling=6,
    leaves_per_level=3,
    policy_name="mrl",
)

EPS = TINY_PLAN.eps
PHIS = [0.1, 0.25, 0.5, 0.75, 0.9]


def _stream(n: int, seed: int = 0) -> list[float]:
    rng = random.Random(seed)
    return [rng.random() for _ in range(n)]


def _assert_eps_accurate(result, data: list[float], slack: float = 1.0) -> None:
    sorted_data = sorted(data)
    for phi in PHIS:
        err = rank_error(sorted_data, result.query(phi), phi)
        assert err <= slack * EPS * len(data), (
            f"phi={phi}: rank error {err} > {slack * EPS * len(data)}"
        )


class TestPartitionStream:
    def test_balanced_and_complete(self):
        data = _stream(10_001)
        parts = partition_stream(data, 8)
        assert len(parts) == 8
        sizes = sorted(len(p) for p in parts)
        assert sizes[-1] - sizes[0] <= 1
        assert sorted(v for p in parts for v in p) == sorted(data)

    def test_single_shard_is_identity(self):
        data = _stream(100)
        assert list(partition_stream(data, 1)[0]) == data

    def test_rejects_zero_shards(self):
        with pytest.raises(ValueError):
            partition_stream([1.0], 0)


class TestAcceptance:
    """The ISSUE acceptance scenario: 2 of 8 shards crash, one ship drops."""

    def test_recovery_with_crashes_and_dropped_ship(self, tmp_path):
        data = _stream(40_000, seed=1)
        streams = partition_stream(data, 8)
        faults = FaultPlan(
            crash_at={2: 3_000, 5: 1_200},
            drop_ships={3: 1},
        )
        sup = ShardSupervisor(
            num_shards=8,
            plan=TINY_PLAN,
            checkpoint_dir=tmp_path,
            checkpoint_interval=1_000,
            fault_plan=faults,
            seed=7,
        )
        result = sup.run(streams)
        # Both crashed shards restarted from their last checkpoint, so only
        # the tails since those checkpoints were replayed.
        assert result.stats.restarts == 2
        assert 0 < result.stats.replayed_elements <= 2_000
        assert result.stats.ships_dropped == 1
        assert result.stats.ships_delivered == 8
        # Nothing was lost: full coverage, and the merged summary is
        # eps-accurate over the union of all eight partitions.
        assert result.report.complete
        assert result.report.weight_coverage == 1.0
        assert result.stats.shards_lost == []
        _assert_eps_accurate(result, data)

    def test_recovery_disabled_degrades_with_matching_coverage(self):
        data = _stream(40_000, seed=1)
        streams = partition_stream(data, 8)
        faults = FaultPlan(crash_at={2: 3_000, 5: 1_200})
        sup = ShardSupervisor(
            num_shards=8,
            plan=TINY_PLAN,
            fault_plan=faults,
            recover=False,
            strict=False,
            seed=7,
        )
        result = sup.run(streams)
        assert result.stats.shards_lost == [2, 5]
        assert result.report.shards_lost == (2, 5)
        assert not result.report.complete
        # Coverage is exactly the surviving shards' share of the stream.
        survivors_n = sum(len(s) for i, s in enumerate(streams) if i not in (2, 5))
        assert result.report.weight_coverage == pytest.approx(
            survivors_n / len(data)
        )
        assert result.report.effective_eps(EPS) > EPS
        # The degraded summary still answers (over what survived).
        survivors = [v for i, s in enumerate(streams) if i not in (2, 5) for v in s]
        _assert_eps_accurate(result, survivors)


class TestCheckpointRecovery:
    def test_restore_is_bit_identical_to_no_crash(self, tmp_path):
        """A crash-and-restore run answers exactly like a crash-free run."""
        data = _stream(12_000, seed=2)
        streams = partition_stream(data, 4)
        kwargs = dict(
            num_shards=4,
            plan=TINY_PLAN,
            checkpoint_interval=500,
            seed=11,
        )
        clean = ShardSupervisor(checkpoint_dir=tmp_path / "clean", **kwargs)
        faulty = ShardSupervisor(
            checkpoint_dir=tmp_path / "faulty",
            fault_plan=FaultPlan(crash_at={0: 2_900, 1: 777, 3: 1}),
            **kwargs,
        )
        clean_result = clean.run(streams)
        faulty_result = faulty.run(streams)
        assert faulty_result.stats.restarts == 3
        assert faulty_result.query_many(PHIS) == clean_result.query_many(PHIS)

    def test_crash_without_checkpoint_dir_replays_everything(self):
        streams = partition_stream(_stream(4_000, seed=3), 2)
        sup = ShardSupervisor(
            num_shards=2,
            plan=TINY_PLAN,
            fault_plan=FaultPlan(crash_at={1: 1_500}),
            seed=13,
        )
        result = sup.run(streams)
        assert result.stats.restarts == 1
        assert result.stats.replayed_elements == 1_500  # full partition so far
        assert result.report.complete

    def test_truncated_checkpoint_detected_and_survived(self, tmp_path):
        """A torn checkpoint write is caught by the CRC and the shard
        restarts fresh rather than resuming from garbage."""
        streams = partition_stream(_stream(6_000, seed=4), 2)
        faults = FaultPlan(
            crash_at={0: 2_500},
            truncate_checkpoints={0: 1},  # tear shard 0's 2nd (latest) write
        )
        sup = ShardSupervisor(
            num_shards=2,
            plan=TINY_PLAN,
            checkpoint_dir=tmp_path,
            checkpoint_interval=1_000,
            fault_plan=faults,
            seed=17,
        )
        result = sup.run(streams)
        assert result.stats.corrupt_checkpoints == 1
        assert result.stats.restarts == 1
        # Fell back to a fresh worker: the whole prefix was replayed.
        assert result.stats.replayed_elements == 2_500
        assert result.report.complete
        _assert_eps_accurate(result, sorted(v for s in streams for v in s))


class TestShipping:
    def test_duplicate_ship_is_deduplicated(self):
        data = _stream(8_000, seed=5)
        streams = partition_stream(data, 4)
        with_dup = ShardSupervisor(
            num_shards=4,
            plan=TINY_PLAN,
            fault_plan=FaultPlan(duplicate_ships={1, 2}),
            seed=19,
        )
        without = ShardSupervisor(num_shards=4, plan=TINY_PLAN, seed=19)
        dup_result = with_dup.run(streams)
        clean_result = without.run(streams)
        assert dup_result.stats.duplicate_ships_ignored == 2
        assert dup_result.stats.ships_delivered == 4
        # Double delivery must not double-count the shard's weight.
        assert dup_result.summary.n == clean_result.summary.n
        assert dup_result.query_many(PHIS) == clean_result.query_many(PHIS)

    def test_retry_after_drops_backs_off_and_delivers(self):
        streams = partition_stream(_stream(2_000, seed=6), 2)
        sleeps: list[float] = []
        sup = ShardSupervisor(
            num_shards=2,
            plan=TINY_PLAN,
            fault_plan=FaultPlan(drop_ships={0: 3}),
            max_ship_attempts=5,
            backoff_base=0.05,
            backoff_cap=0.1,
            sleep=sleeps.append,
            seed=23,
        )
        result = sup.run(streams)
        assert result.report.complete
        assert result.stats.ships_dropped == 3
        assert len(sleeps) == 3  # one backoff per retry
        assert sleeps == sorted(sleeps) or max(sleeps) <= 0.1  # capped growth
        assert all(0 < s <= 0.1 for s in sleeps)
        assert result.stats.backoff_seconds == pytest.approx(sum(sleeps))

    def test_ship_exhaustion_strict_raises(self):
        streams = partition_stream(_stream(1_000, seed=7), 2)
        sup = ShardSupervisor(
            num_shards=2,
            plan=TINY_PLAN,
            fault_plan=FaultPlan(drop_ships={1: 99}),
            max_ship_attempts=3,
            seed=29,
        )
        with pytest.raises(ShipTimeoutError, match="shard 1.*3 attempts"):
            sup.run(streams)

    def test_ship_exhaustion_degraded_loses_shard(self):
        streams = partition_stream(_stream(4_000, seed=7), 2)
        sup = ShardSupervisor(
            num_shards=2,
            plan=TINY_PLAN,
            fault_plan=FaultPlan(drop_ships={1: 99}),
            max_ship_attempts=3,
            strict=False,
            seed=29,
        )
        result = sup.run(streams)
        assert result.stats.shards_lost == [1]
        assert result.report.weight_coverage == pytest.approx(0.5)


class TestStrictness:
    def test_unrecovered_crash_strict_raises_shard_lost(self):
        streams = partition_stream(_stream(2_000, seed=8), 2)
        sup = ShardSupervisor(
            num_shards=2,
            plan=TINY_PLAN,
            fault_plan=FaultPlan(crash_at={0: 500}),
            recover=False,
            strict=True,
            seed=31,
        )
        with pytest.raises(ShardLostError, match=r"shards \[0\]"):
            sup.run(streams)

    def test_strict_merge_refuses_lost_shards(self):
        est = UnknownNQuantiles(plan=TINY_PLAN, seed=1)
        est.extend(_stream(1_000, seed=9))
        with pytest.raises(ValueError, match="strict=False"):
            merge_snapshots([est.snapshot(), None], seed=0)

    def test_constructor_validations(self):
        with pytest.raises(ValueError):
            ShardSupervisor(0, 0.05, 0.01)
        with pytest.raises(ValueError):
            ShardSupervisor(2, 0.05, 0.01, checkpoint_interval=0)
        with pytest.raises(ValueError):
            ShardSupervisor(2, 0.05, 0.01, max_ship_attempts=0)
        with pytest.raises(ValueError):
            ShardSupervisor(2)  # neither plan nor (eps, delta)
        sup = ShardSupervisor(2, plan=TINY_PLAN, seed=1)
        with pytest.raises(ValueError, match="3 streams for 2 shards"):
            sup.run(partition_stream(_stream(30), 3))


class TestDegradedMergeMath:
    def test_expected_n_estimated_from_survivors(self):
        """Without expected_n, lost load is estimated as the mean survivor
        load — exact under even partitioning."""
        shards = [UnknownNQuantiles(plan=TINY_PLAN, seed=i) for i in range(4)]
        data = _stream(8_000, seed=10)
        for index, value in enumerate(data):
            shards[index % 4].update(value)
        snapshots = [s.snapshot() for s in shards]
        snapshots[3] = None
        merged = merge_snapshots(snapshots, seed=0, strict=False)
        assert merged.report.shards_lost == (3,)
        assert merged.report.weight_coverage == pytest.approx(0.75)
        assert merged.report.effective_eps(0.05) == pytest.approx(
            0.05 * 0.75 + 0.25
        )

    def test_full_merge_reports_complete(self):
        shards = [UnknownNQuantiles(plan=TINY_PLAN, seed=i) for i in range(3)]
        for index, value in enumerate(_stream(3_000, seed=11)):
            shards[index % 3].update(value)
        merged = merge_snapshots([s.snapshot() for s in shards], seed=0)
        assert merged.report.complete
        assert merged.report.effective_eps(0.05) == pytest.approx(0.05)

    def test_all_shards_lost_refused_even_degraded(self):
        """Zero weight_coverage has no partial answer to give: a degraded
        merge over nothing must raise cleanly, never fabricate."""
        with pytest.raises(ValueError, match="no snapshot contains any data"):
            merge_snapshots(
                [None, None, None], seed=0, strict=False, expected_n=3_000
            )

    def test_all_shards_lost_supervisor_raises_cleanly(self):
        streams = partition_stream(_stream(2_000, seed=14), 2)
        sup = ShardSupervisor(
            num_shards=2,
            plan=TINY_PLAN,
            fault_plan=FaultPlan(crash_at={0: 100, 1: 100}),
            recover=False,
            strict=False,
            seed=42,
        )
        with pytest.raises(ValueError, match="no snapshot contains any data"):
            sup.run(streams)
        assert sup.stats.shards_lost == [0, 1]

    def test_duplicate_ship_after_surrendered_shard_still_deduplicated(self):
        """Surrendering shard 0 must not confuse the ship-id dedup for the
        survivors: shard 1's at-least-once redelivery is still ignored."""
        streams = partition_stream(_stream(4_000, seed=13), 2)
        sup = ShardSupervisor(
            num_shards=2,
            plan=TINY_PLAN,
            fault_plan=FaultPlan(drop_ships={0: 3}, duplicate_ships={1}),
            max_ship_attempts=3,
            strict=False,
            seed=41,
        )
        result = sup.run(streams)
        assert sup.stats.shards_lost == [0]
        assert sup.stats.ships_dropped == 3
        assert sup.stats.duplicate_ships_ignored == 1
        assert sup.stats.ships_delivered == 1
        # The duplicate was not double-counted: the union holds exactly
        # the survivor's elements.
        assert result.summary.n == len(streams[1])
        assert result.report.weight_coverage == pytest.approx(0.5)


@pytest.mark.smoke
def test_fault_injection_smoke(tmp_path):
    """Fast end-to-end: crash + drop + duplicate + torn checkpoint in one
    small run (CI selects this with ``-m smoke``)."""
    data = _stream(8_000, seed=12)
    streams = partition_stream(data, 4)
    sup = ShardSupervisor(
        num_shards=4,
        plan=TINY_PLAN,
        checkpoint_dir=tmp_path,
        checkpoint_interval=500,
        fault_plan=FaultPlan(
            crash_at={1: 1_500, 2: 900},
            drop_ships={0: 1},
            duplicate_ships={3},
            truncate_checkpoints={2: 0},
        ),
        seed=37,
    )
    result = sup.run(streams)
    assert result.report.complete
    assert result.stats.restarts == 2
    assert result.stats.ships_dropped == 1
    assert result.stats.duplicate_ships_ignored == 1
    _assert_eps_accurate(result, data)


class TestPoolSupervision:
    """ShardSupervisor.run_pool: the retry/degrade semantics on real processes."""

    @pytest.fixture()
    def pool_file(self, tmp_path):
        data = _stream(24_000, seed=11)
        path = tmp_path / "pool.f64"
        write_floats(path, data)
        return str(path), data

    def test_clean_run_is_accurate_and_complete(self, pool_file):
        path, data = pool_file
        sup = ShardSupervisor(num_shards=3, plan=TINY_PLAN, seed=21)
        result = sup.run_pool(path, timeout=120)
        assert result.report.complete
        assert result.report.weight_coverage == 1.0
        assert result.stats.ships_delivered == 3
        assert result.stats.restarts == 0
        _assert_eps_accurate(result, data)

    def test_crashed_worker_retried_bit_identical(self, pool_file):
        path, _data = pool_file
        clean = ShardSupervisor(num_shards=3, plan=TINY_PLAN, seed=22)
        faulty = ShardSupervisor(
            num_shards=3,
            plan=TINY_PLAN,
            seed=22,
            fault_plan=FaultPlan(crash_at={1: 3_000}),
        )
        clean_result = clean.run_pool(path, timeout=120)
        faulty_result = faulty.run_pool(path, timeout=120)
        # The retried slice re-scans under the same derived seed, so the
        # recovered run is bit-identical to the one that never crashed.
        assert (
            faulty_result.summary.to_state_dict()
            == clean_result.summary.to_state_dict()
        )
        assert faulty_result.stats.restarts == 1
        assert faulty_result.stats.replayed_elements == 8_000
        assert faulty_result.report.complete

    def test_budget_exhausted_strict_raises(self, pool_file):
        path, _data = pool_file
        sup = ShardSupervisor(
            num_shards=3,
            plan=TINY_PLAN,
            seed=23,
            max_ship_attempts=1,
            fault_plan=FaultPlan(crash_at={1: 3_000}),
        )
        with pytest.raises(ShardLostError, match=r"shards \[1\]"):
            sup.run_pool(path, timeout=120)

    def test_budget_exhausted_degrades_with_honest_coverage(self, pool_file):
        path, data = pool_file
        sup = ShardSupervisor(
            num_shards=3,
            plan=TINY_PLAN,
            seed=23,
            max_ship_attempts=1,
            strict=False,
            fault_plan=FaultPlan(crash_at={1: 3_000}),
        )
        result = sup.run_pool(path, timeout=120)
        assert result.stats.shards_lost == [1]
        assert result.report.shards_lost == (1,)
        assert result.report.weight_coverage == pytest.approx(2 / 3)
        assert result.report.effective_eps(EPS) > EPS

    def test_overall_timeout_bounds_retry_backoff(self, pool_file):
        """``run_pool(timeout=...)`` is an overall budget: the backoff
        before a retry is clamped to the remaining time, so a huge
        configured base never sleeps the run past its own deadline."""
        path, _data = pool_file
        sleeps: list[float] = []
        sup = ShardSupervisor(
            num_shards=3,
            plan=TINY_PLAN,
            seed=25,
            backoff_base=60.0,
            backoff_cap=120.0,
            sleep=sleeps.append,
            fault_plan=FaultPlan(crash_at={1: 3_000}),
        )
        result = sup.run_pool(path, timeout=5.0)
        assert result.report.complete
        assert result.stats.restarts == 1
        assert len(sleeps) == 1
        # An unclamped draw from base 60 s lies in [30, 60] — far past
        # the 5 s budget.  The clamp keeps it within what remains.
        assert sleeps[0] <= 5.0
        assert result.stats.backoff_seconds <= 5.0

    def test_pool_ignores_checkpoint_dir(self, pool_file, tmp_path):
        # Slice re-scan is the recovery path; no checkpoints are written.
        path, _data = pool_file
        ckpt = tmp_path / "ckpt"
        ckpt.mkdir()
        sup = ShardSupervisor(
            num_shards=2, plan=TINY_PLAN, seed=24, checkpoint_dir=ckpt
        )
        result = sup.run_pool(path, timeout=120)
        assert result.report.complete
        assert list(ckpt.iterdir()) == []

    def test_worker_error_named_when_shard_lost(self, pool_file, tmp_path):
        # A NaN in shard 1's slice fails that item on every attempt; the
        # worker stays up, and the strict surrender names the error.
        _path, data = pool_file
        poisoned = list(data)
        poisoned[12_000] = float("nan")
        path = tmp_path / "nan.f64"
        write_floats(path, poisoned)
        sup = ShardSupervisor(
            num_shards=3, plan=TINY_PLAN, seed=26, max_ship_attempts=2
        )
        with pytest.raises(ShardLostError, match=r"shard 1: ValueError: NaN"):
            sup.run_pool(str(path), timeout=120)
        assert sup.stats.restarts == 1
