"""Tests for the bulk (batch/array) ingest fast path."""

from __future__ import annotations

import array
import random

import pytest

from repro.core.params import Plan
from repro.core.unknown_n import UnknownNQuantiles
from repro.sampling.block import BlockSampler
from repro.stats.rank import is_eps_approximate

PLAN = Plan(0.05, 0.01, 3, 50, 2, 0.5, 6, 3, "mrl")


class TestOfferMany:
    def test_rate_one_passthrough(self):
        sampler = BlockSampler(1, random.Random(0))
        assert sampler.offer_many([1.0, 2.0, 3.0]) == [1.0, 2.0, 3.0]

    def test_block_count_matches_per_element(self):
        batch = BlockSampler(4, random.Random(1))
        chosen = batch.offer_many([float(i) for i in range(22)])
        assert len(chosen) == 5  # 22 // 4
        assert batch.pending() is not None
        assert batch.pending()[1] == 2

    def test_each_choice_from_its_own_block(self):
        sampler = BlockSampler(8, random.Random(2))
        chosen = sampler.offer_many([float(i) for i in range(64)])
        for block_index, value in enumerate(chosen):
            assert block_index * 8 <= value < (block_index + 1) * 8

    def test_resumes_open_block(self):
        sampler = BlockSampler(4, random.Random(3))
        sampler.offer(0.0)
        sampler.offer(1.0)  # block half-open
        chosen = sampler.offer_many([2.0, 3.0, 4.0, 5.0])
        # First emission closes the open block (values 0..3).
        assert len(chosen) == 1
        assert chosen[0] in (0.0, 1.0, 2.0, 3.0)
        assert sampler.pending()[1] == 2

    def test_uniformity_of_batched_choice(self):
        from collections import Counter

        counts = Counter()
        rng = random.Random(4)
        trials = 4000
        for _ in range(trials):
            sampler = BlockSampler(4, rng)
            counts[sampler.offer_many([0.0, 1.0, 2.0, 3.0])[0]] += 1
        for position in range(4):
            assert counts[float(position)] == pytest.approx(trials / 4, rel=0.15)


class TestUpdateBatch:
    def test_mass_conserved(self):
        est = UnknownNQuantiles(plan=PLAN, seed=5)
        rng = random.Random(6)
        for size in (1, 49, 50, 51, 1000, 12345):
            est.update_batch([rng.random() for _ in range(size)])
        assert est.total_weight == est.n == 1 + 49 + 50 + 51 + 1000 + 12345

    def test_accuracy_under_a_planned_configuration(self):
        # Use a properly planned estimator (the TINY plan above violates
        # Eq 1 on purpose and fluctuates around eps on both ingest paths).
        rng = random.Random(7)
        data = [rng.random() for _ in range(200_000)]
        est = UnknownNQuantiles(eps=0.02, delta=1e-3, seed=8)
        est.update_batch(data)
        ordered = sorted(data)
        for phi in (0.05, 0.1, 0.5, 0.9, 0.99):
            assert is_eps_approximate(ordered, est.query(phi), phi, 0.02)

    def test_mixed_batch_and_single_updates(self):
        est = UnknownNQuantiles(plan=PLAN, seed=9)
        rng = random.Random(10)
        n = 0
        for _ in range(50):
            if rng.random() < 0.5:
                est.update(rng.random())
                n += 1
            else:
                size = rng.randrange(1, 300)
                est.update_batch([rng.random() for _ in range(size)])
                n += size
            assert est.total_weight == n

    def test_nan_in_batch_rejected_before_mutation(self):
        est = UnknownNQuantiles(plan=PLAN, seed=11)
        with pytest.raises(ValueError, match="NaN"):
            est.update_batch([1.0, float("nan"), 2.0])
        assert est.n == 0

    def test_extend_dispatches_sequences_to_batch(self):
        est = UnknownNQuantiles(plan=PLAN, seed=12)
        est.extend([1.0, 2.0, 3.0])  # list -> batch path
        est.extend(x / 10 for x in range(10))  # generator -> element path
        assert est.n == 13

    def test_array_module_input(self):
        est = UnknownNQuantiles(plan=PLAN, seed=13)
        est.extend(array.array("d", (float(i) for i in range(10_000))))
        assert est.n == 10_000
        assert abs(est.query(0.5) - 5_000) < 0.05 * 10_000 + 1

    def test_integer_array_input_straddling_buffers(self):
        # Windows that straddle a buffer are staged as float64 columns;
        # an integer-typed array batch must convert, not be rejected.
        est = UnknownNQuantiles(plan=PLAN, seed=13)
        values = array.array("i", range(10_000))
        est.update_batch(values[:4_321])
        est.update_batch(values[4_321:])
        assert est.total_weight == est.n == 10_000
        assert abs(est.query(0.5) - 5_000) < 0.05 * 10_000 + 1


class TestNumpyPath:
    numpy = pytest.importorskip("numpy")

    def test_ndarray_ingest_and_accuracy(self):
        rng = self.numpy.random.default_rng(14)
        data = rng.random(300_000)
        est = UnknownNQuantiles(plan=PLAN, seed=15)
        est.extend(data)
        assert est.n == 300_000
        ordered = sorted(data.tolist())
        for phi in (0.1, 0.5, 0.9):
            assert is_eps_approximate(ordered, est.query(phi), phi, PLAN.eps)

    def test_ndarray_nan_rejected(self):
        data = self.numpy.array([1.0, float("nan")])
        est = UnknownNQuantiles(plan=PLAN, seed=16)
        with pytest.raises(ValueError, match="NaN"):
            est.extend(data)

    def test_numpy_path_is_much_faster_when_sampling(self):
        import time

        rng = self.numpy.random.default_rng(17)
        data = rng.random(1_000_000)
        listified = data.tolist()

        est_list = UnknownNQuantiles(plan=PLAN, seed=18)
        start = time.perf_counter()
        for value in listified:
            est_list.update(value)
        per_element = time.perf_counter() - start

        est_np = UnknownNQuantiles(plan=PLAN, seed=18)
        start = time.perf_counter()
        est_np.extend(data)
        batched = time.perf_counter() - start
        assert batched * 3 < per_element  # conservatively 3x (observed ~10x)
