"""The dependency-free reference backend.

Bit-identical to the historical element-at-a-time implementation: the
same RNG kind (:class:`random.Random`), the same draw sequence for block
sampling, and Collapse delegating to the heapq-merge reference in
:mod:`repro.core.operations`.  Every other backend is property-tested
against this one.
"""

from __future__ import annotations

import math
import sys
from array import array
from bisect import bisect_left
from collections.abc import Sequence
from itertools import accumulate, chain, repeat
from typing import Any

from repro.kernels import KernelBackend, MergedView, is_nan

__all__ = ["PythonBackend", "PYTHON_BACKEND"]


class PythonBackend(KernelBackend):
    """Pure standard-library kernels (the default)."""

    name = "python"

    def as_batch(self, values: Sequence[float]) -> Sequence[float]:
        return values

    def batch_contains_nan(self, values: Sequence[float]) -> bool:
        # Vectorised even on the python backend when the *input* is an
        # ndarray — scanning it element-wise would box every value.  An
        # ndarray implies numpy is loaded, so it is looked up, not imported.
        numpy = sys.modules.get("numpy")
        if numpy is not None and isinstance(values, numpy.ndarray):
            return bool(numpy.isnan(values).any())
        try:
            # C-level scan: map() with math.isnan avoids one interpreted
            # frame per element, which halves whole-batch ingest time.
            return any(map(math.isnan, values))
        except (TypeError, OverflowError):
            # Non-float payloads (ints too large for a float cast, text
            # that slipped past the door check): fall back to the central
            # self-inequality gate, which accepts any real-typed value.
            return any(is_nan(value) for value in values)

    def sort_values(self, values: Sequence[float]) -> list[float]:
        return sorted(values)

    def block_representatives(
        self,
        values: Sequence[float],
        start: int,
        n_blocks: int,
        rate: int,
        rng: Any,
    ) -> list[float]:
        # One uniform draw per block, matching BlockSampler.offer_many's
        # historical sequence exactly: int(random() * rate) per block.
        rnd = rng.random
        return [
            values[index + int(rnd() * rate)]
            for index in range(start, start + n_blocks * rate, rate)
        ]

    @staticmethod
    def _merge_weighted(
        weighted: Sequence[tuple[Sequence[float], int]]
    ) -> tuple[tuple[float, ...], list[int]]:
        """Merged ``(values, cumulative_weights)`` of sorted weighted runs.

        Bit-identical to the heapq-merge reference but built from C-level
        primitives: ``sorted`` over ``(value, weight)`` tuples gallops
        over the presorted runs, and plain tuple comparison reproduces
        the merge's exact ordering (value first, weight on ties, input
        order via sort stability) — so even ``-0.0``/``0.0`` ties resolve
        identically.
        """
        pairs = sorted(
            chain.from_iterable(
                zip(data, repeat(weight))
                for data, weight in weighted
                if weight > 0
            )
        )
        if not pairs:
            return (), []
        values, weights = zip(*pairs)
        return values, list(accumulate(weights))

    #: Collapse replication bound: the gcd-normalised replica expansion is
    #: taken only while the merged sequence stays within this many entries
    #: per input element (beyond it the sort would dwarf the merge).
    _REPLICATION_CAP = 32

    def select_collapse(
        self,
        inputs: Sequence[tuple[Sequence[float], int]],
        capacity: int,
        offset: int,
    ) -> list[float]:
        # Bit-identical fast paths of the heapq-merge reference Collapse
        # in repro.core.operations (property-tested against it): the kept
        # position ``offset + j*stride`` selects the first merged element
        # whose cumulative weight reaches it.
        stride = sum(weight for _, weight in inputs)
        if not 1 <= offset <= stride:
            raise ValueError(f"offset {offset} outside stride [1, {stride}]")
        total = sum(len(data) * weight for data, weight in inputs)
        if offset + (capacity - 1) * stride > total:
            raise AssertionError(
                f"collapse inputs cover weight {total}, need "
                f"{offset + (capacity - 1) * stride} "
                f"(stride {stride}, offset {offset})"
            )
        divisor = math.gcd(*(weight for _, weight in inputs))
        step = stride // divisor
        if step <= self._REPLICATION_CAP:
            # The paper's own Collapse definition, taken literally: with
            # weights divided by their gcd, replicate each run that many
            # times, sort the replicas (one C Timsort that gallops over
            # the presorted runs), and the kept positions become a plain
            # arithmetic slice — every replica carries weight `divisor`,
            # so position p lives at replica index (p-1)//divisor.
            columns = [
                # replint: disable=buffer-arena -- the sort needs boxed
                # floats once; replicas reuse those objects, never re-boxing
                (self.tolist(data), weight // divisor)
                for data, weight in inputs
            ]
            merged = sorted(
                chain.from_iterable(
                    chain.from_iterable(repeat(column, copies))
                    for column, copies in columns
                )
            )
            start = (offset - 1) // divisor
            return merged[start : start + capacity * step : step]
        if len(inputs) == 2:
            return self._select_two_runs(inputs, capacity, offset, stride)
        values, cumulative = self._merge_weighted(inputs)
        return [
            values[bisect_left(cumulative, offset + j * stride)]
            for j in range(capacity)
        ]

    @staticmethod
    def _select_two_runs(
        inputs: Sequence[tuple[Sequence[float], int]],
        capacity: int,
        offset: int,
        stride: int,
    ) -> list[float]:
        """Two-pointer Collapse over exactly two weighted runs.

        The dominant unequal-weight shape in the collapse tree; a direct
        merge loop beats both heapq and sort-based paths.  Caller has
        already validated that the inputs cover every kept position.
        """
        (a, weight_a), (b, weight_b) = inputs
        if weight_a > weight_b:
            # The reference merge orders equal values by weight (its
            # streams yield (value, weight) tuples); keep run `a` the
            # tie-preferred one so `va <= vb` reproduces that order.
            a, weight_a, b, weight_b = b, weight_b, a, weight_a
        index_a = index_b = 0
        len_a, len_b = len(a), len(b)
        value_a = a[0] if len_a else None
        value_b = b[0] if len_b else None
        kept: list[float] = []
        append = kept.append
        next_position = offset
        cumulative = 0
        while len(kept) < capacity:
            if index_b >= len_b or (index_a < len_a and value_a <= value_b):
                cumulative += weight_a
                if next_position <= cumulative:
                    append(value_a)
                    next_position += stride
                index_a += 1
                value_a = a[index_a] if index_a < len_a else None
            else:
                cumulative += weight_b
                if next_position <= cumulative:
                    append(value_b)
                    next_position += stride
                index_b += 1
                value_b = b[index_b] if index_b < len_b else None
        return kept

    def merged_view(
        self, weighted: Sequence[tuple[Sequence[float], int]]
    ) -> MergedView:
        values, cumweights = self._merge_weighted(weighted)
        return MergedView(list(values), cumweights)

    # -- columnar arena storage ----------------------------------------
    def write_slot(
        self, storage: Any, offset: int, values: Sequence[float], *, sort: bool
    ) -> None:
        if sort:
            values = sorted(values)
        if not (isinstance(values, array) and values.typecode == "d"):
            values = array("d", values)  # e.g. an integer array batch
        storage[offset : offset + len(values)] = values


#: The singleton instance estimators share.
PYTHON_BACKEND = PythonBackend()
