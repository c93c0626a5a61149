"""Tests for the snapshot-merge API (mergeable summaries)."""

from __future__ import annotations

import random

import pytest

from repro import UnknownNQuantiles, merge_snapshots
from repro.core.params import Plan
from repro.stats.rank import is_eps_approximate

PLAN = Plan(
    eps=0.05,
    delta=0.01,
    b=4,
    k=64,
    h=3,
    alpha=0.5,
    leaves_before_sampling=20,
    leaves_per_level=10,
    policy_name="mrl",
)


#: The small plan the degraded-merge tests below were written against.
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


def _stream(n: int, seed: int = 0) -> list[float]:
    rng = random.Random(seed)
    return [rng.random() for _ in range(n)]


def make_shards(shard_data, seeds):
    shards = []
    for data, seed in zip(shard_data, seeds):
        est = UnknownNQuantiles(plan=PLAN, seed=seed)
        est.extend(data)
        shards.append(est)
    return shards


class TestMergeSnapshots:
    def test_merge_matches_union(self):
        rng = random.Random(1)
        shard_data = [
            [rng.gauss(i, 2.0) for _ in range(12_000)] for i in range(4)
        ]
        shards = make_shards(shard_data, seeds=range(4))
        merged = merge_snapshots([s.snapshot() for s in shards], seed=9)
        union = sorted(v for data in shard_data for v in data)
        assert merged.n == len(union)
        for phi in (0.1, 0.5, 0.9):
            assert is_eps_approximate(union, merged.query(phi), phi, 2 * PLAN.eps)

    def test_merge_of_one(self):
        rng = random.Random(2)
        data = [rng.random() for _ in range(8_000)]
        (shard,) = make_shards([data], seeds=[3])
        merged = merge_snapshots([shard.snapshot()], seed=4)
        ordered = sorted(data)
        assert is_eps_approximate(ordered, merged.query(0.5), 0.5, PLAN.eps)

    def test_empty_snapshots_skipped(self):
        rng = random.Random(5)
        busy = UnknownNQuantiles(plan=PLAN, seed=6)
        busy.extend(rng.random() for _ in range(5_000))
        idle = UnknownNQuantiles(plan=PLAN, seed=7)
        merged = merge_snapshots([busy.snapshot(), idle.snapshot()], seed=8)
        assert merged.n == 5_000

    def test_all_empty_raises(self):
        idle = UnknownNQuantiles(plan=PLAN, seed=9)
        with pytest.raises(ValueError):
            merge_snapshots([idle.snapshot()])

    def test_mismatched_k_rejected(self):
        other_plan = Plan(0.05, 0.01, 4, 32, 3, 0.5, 20, 10, "mrl")
        a = UnknownNQuantiles(plan=PLAN, seed=10)
        b = UnknownNQuantiles(plan=other_plan, seed=11)
        a.update(1.0)
        b.update(2.0)
        with pytest.raises(ValueError):
            merge_snapshots([a.snapshot(), b.snapshot()])

    def test_merge_is_nondestructive_and_repeatable(self):
        rng = random.Random(12)
        shards = make_shards(
            [[rng.random() for _ in range(6_000)] for _ in range(3)],
            seeds=(13, 14, 15),
        )
        snaps = [s.snapshot() for s in shards]
        first = merge_snapshots(snaps, seed=16).query(0.5)
        second = merge_snapshots(snaps, seed=16).query(0.5)
        assert first == second
        assert all(s.n == 6_000 for s in shards)

    def test_query_many_ordering(self):
        rng = random.Random(17)
        shards = make_shards([[rng.random() for _ in range(9_000)]], seeds=[18])
        merged = merge_snapshots([shards[0].snapshot()], seed=19)
        low, high = merged.query_many([0.2, 0.8])
        assert low < high

    def test_total_weight_close_to_n(self):
        rng = random.Random(20)
        shards = make_shards(
            [[rng.random() for _ in range(10_000)] for _ in range(4)],
            seeds=range(4),
        )
        merged = merge_snapshots([s.snapshot() for s in shards], seed=21)
        assert abs(merged.total_weight - merged.n) <= 4 * PLAN.k * 8

    def test_hierarchical_merge(self):
        # Merge-of-merges is not supported directly (MergedSummary has no
        # snapshot), but re-merging a larger set of snapshots covers the
        # same need; verify 8-way merges stay accurate.
        rng = random.Random(22)
        shard_data = [[rng.expovariate(1.0) for _ in range(5_000)] for _ in range(8)]
        shards = make_shards(shard_data, seeds=range(100, 108))
        merged = merge_snapshots([s.snapshot() for s in shards], seed=23)
        union = sorted(v for data in shard_data for v in data)
        for phi in (0.25, 0.75, 0.95):
            assert is_eps_approximate(union, merged.query(phi), phi, 2 * PLAN.eps)


class TestShipmentAccounting:
    """MergeReport.shipments: the Section 6 bound measured, not assumed."""

    def _merged(self, num_shards=3, per_shard=9_000):
        rng = random.Random(31)
        shard_data = [
            [rng.random() for _ in range(per_shard)] for _ in range(num_shards)
        ]
        shards = make_shards(shard_data, seeds=range(num_shards))
        return merge_snapshots([s.snapshot() for s in shards], seed=32)

    def test_one_shipment_per_shard_in_order(self):
        merged = self._merged(num_shards=3)
        report = merged.report
        assert report is not None
        assert [s.shard_id for s in report.shipments] == [0, 1, 2]

    def test_bound_holds_per_shard(self):
        report = self._merged(num_shards=4).report
        assert report.within_communication_bound
        for shipment in report.shipments:
            assert shipment.full_buffers <= 1
            assert shipment.partial_buffers <= 1
            assert shipment.buffers == (
                shipment.full_buffers + shipment.partial_buffers
            )
            assert shipment.elements == (
                shipment.full_elements + shipment.partial_elements
            )
            assert shipment.within_bound

    def test_aggregates_sum_over_shards(self):
        report = self._merged(num_shards=3).report
        assert report.shipped_buffers == sum(
            s.buffers for s in report.shipments
        )
        assert report.shipped_elements == sum(
            s.elements for s in report.shipments
        )
        assert 0 < report.shipped_elements <= 3 * 2 * PLAN.k

    def test_empty_shard_ships_nothing(self):
        rng = random.Random(33)
        busy = UnknownNQuantiles(plan=PLAN, seed=34)
        busy.extend(rng.random() for _ in range(5_000))
        idle = UnknownNQuantiles(plan=PLAN, seed=35)
        merged = merge_snapshots([busy.snapshot(), idle.snapshot()], seed=36)
        empty = merged.report.shipments[1]
        assert empty.shard_id == 1
        assert empty.buffers == 0
        assert empty.elements == 0

    def test_lost_shard_has_no_shipment_row(self):
        rng = random.Random(37)
        busy = UnknownNQuantiles(plan=PLAN, seed=38)
        busy.extend(rng.random() for _ in range(5_000))
        merged = merge_snapshots(
            [busy.snapshot(), None], seed=39, strict=False
        )
        assert merged.report.shards_lost == (1,)
        assert [s.shard_id for s in merged.report.shipments] == [0]

    def test_shipments_survive_state_dict_round_trip(self):
        from repro.core.parallel import MergedSummary

        merged = self._merged(num_shards=2)
        clone = MergedSummary.from_state_dict(merged.to_state_dict())
        assert clone.report.shipments == merged.report.shipments

    def test_state_dict_without_shipments_tolerated(self):
        # Checkpoints written before shipment accounting lack the key.
        from repro.core.parallel import MergedSummary

        merged = self._merged(num_shards=2)
        state = merged.to_state_dict()
        del state["report"]["shipments"]
        clone = MergedSummary.from_state_dict(state)
        assert clone.report.shipments == ()
        assert clone.query(0.5) == merged.query(0.5)


class TestStrictness:
    def test_strict_merge_refuses_lost_shards(self):
        est = UnknownNQuantiles(plan=TINY_PLAN, seed=1)
        est.extend(_stream(1_000, seed=9))
        with pytest.raises(ValueError, match="strict=False"):
            merge_snapshots([est.snapshot(), None], seed=0)


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
