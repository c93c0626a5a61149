"""Vectorised numpy kernels (optional acceleration).

Distribution-identical to :mod:`repro.kernels.python_backend` — the same
uniform-per-block sampling law, the same Collapse keep positions, the
same merged-view contents (property-tested) — but each batch of sampling
blocks costs one vectorised RNG draw, Collapse is concatenate + stable
argsort + cumsum + searchsorted, and New's sort is ``np.sort`` over
float64 arrays.

Importing this module requires numpy; :func:`repro.kernels.get_backend`
guards the import and falls back (or raises, for explicit requests) when
numpy is absent, so the library itself stays dependency-free.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from typing import Any

import numpy as np

from repro.kernels import KernelBackend, MergedView

__all__ = ["NumpyBackend", "NumpyRNG", "NUMPY_BACKEND"]


class NumpyRNG:
    """A seed-reproducible, checkpointable ``numpy.random.Generator`` facade.

    Exposes the slice of the :class:`random.Random` surface the samplers
    use (``random``, ``getrandbits``) plus the vectorised draws the numpy
    kernels exploit (``block_offsets``, ``random_array``), and captures
    the full bit-generator state for the restore-and-replay guarantee.
    """

    __slots__ = ("_generator",)
    kind = "numpy"

    def __init__(self, generator: np.random.Generator) -> None:
        self._generator = generator

    @classmethod
    def from_seed(cls, seed: int | None = None) -> "NumpyRNG":
        return cls(np.random.default_rng(seed))

    @property
    def generator(self) -> np.random.Generator:
        """The wrapped ``numpy.random.Generator``."""
        return self._generator

    # -- scalar draws (the random.Random-compatible surface) -----------
    def random(self) -> float:
        return float(self._generator.random())

    def getrandbits(self, k: int) -> int:
        if k < 0:
            raise ValueError("number of bits must be non-negative")
        if k == 0:
            return 0
        raw = int.from_bytes(self._generator.bytes((k + 7) // 8), "little")
        return raw & ((1 << k) - 1)

    def randrange(self, n: int) -> int:
        return int(self._generator.integers(0, n))

    # -- vectorised draws ----------------------------------------------
    def block_offsets(self, n_blocks: int, rate: int) -> np.ndarray:
        """One uniform within-block index per block, in a single draw."""
        return self._generator.integers(0, rate, size=n_blocks)

    def random_array(self, n: int) -> np.ndarray:
        """``n`` uniforms in [0, 1) in a single draw."""
        return self._generator.random(n)

    # -- checkpointing --------------------------------------------------
    def state_dict(self) -> dict[str, Any]:
        """JSON-safe full state of the underlying bit generator."""
        return {"kind": "numpy", "state": self._generator.bit_generator.state}

    @classmethod
    def from_state_dict(cls, state: dict[str, Any]) -> "NumpyRNG":
        inner = state["state"]
        name = inner["bit_generator"]
        try:
            bitgen_cls = getattr(np.random, name)
        except AttributeError:
            raise ValueError(
                f"unknown numpy bit generator {name!r} in checkpoint"
            ) from None
        bit_generator = bitgen_cls()
        bit_generator.state = _intify(inner)
        return cls(np.random.Generator(bit_generator))


def _intify(state: Any) -> Any:
    """Re-impose exact ints on a JSON-round-tripped bit-generator state.

    JSON keeps Python ints exact, but defensive: nested dicts are copied
    so restoring never aliases the caller's structure.
    """
    if isinstance(state, dict):
        return {key: _intify(value) for key, value in state.items()}
    if isinstance(state, float) and state.is_integer():
        return int(state)
    return state


class NumpyBackend(KernelBackend):
    """Vectorised kernels over float64 arrays."""

    name = "numpy"

    def make_rng(self, seed: int | None = None) -> NumpyRNG:
        return NumpyRNG.from_seed(seed)

    def as_batch(self, values: Sequence[float]) -> np.ndarray:
        if isinstance(values, list):
            # ~20% faster than asarray for large python lists (the common
            # update_batch input); asarray stays the zero-copy path for
            # ndarray / array('d') / memoryview inputs.
            return np.fromiter(values, dtype=np.float64, count=len(values))
        return np.asarray(values, dtype=np.float64)

    def batch_contains_nan(self, values: Any) -> bool:
        return bool(np.isnan(values).any())

    def tolist(self, values: Any) -> list[float]:
        if isinstance(values, np.ndarray):
            # replint: disable=buffer-arena -- this IS the sanctioned
            # conversion surface the rest of the data plane routes through
            return values.tolist()
        if isinstance(values, list):
            return values
        return list(values)

    def sort_values(self, values: Any) -> np.ndarray:
        return np.sort(np.asarray(values, dtype=np.float64))

    def block_representatives(
        self, values: Any, start: int, n_blocks: int, rate: int, rng: Any
    ) -> np.ndarray:
        values = np.asarray(values, dtype=np.float64)
        if hasattr(rng, "block_offsets"):
            offsets = rng.block_offsets(n_blocks, rate)
        else:  # caller supplied a random.Random: same law, scalar draws
            offsets = np.fromiter(
                (int(rng.random() * rate) for _ in range(n_blocks)),
                dtype=np.int64,
                count=n_blocks,
            )
        indices = np.arange(start, start + n_blocks * rate, rate, dtype=np.int64)
        indices += offsets
        # Stays an ndarray: the representatives flow into the arena (via
        # deposit) or the staging list without a list round-trip.
        return values[indices]

    #: Collapse replication bound: below it, gcd-normalised replication
    #: plus one np.sort beats the argsort/cumsum/searchsorted pipeline.
    _REPLICATION_CAP = 8

    def select_collapse(
        self,
        inputs: Sequence[tuple[Sequence[float], int]],
        capacity: int,
        offset: int,
    ) -> np.ndarray:
        total_weight = sum(weight for _, weight in inputs)
        stride = total_weight
        if not 1 <= offset <= stride:
            raise ValueError(f"offset {offset} outside stride [1, {stride}]")
        divisor = math.gcd(*(weight for _, weight in inputs))
        step = stride // divisor
        if step <= self._REPLICATION_CAP:
            # The paper's Collapse taken literally (mirrors the python
            # backend's fast path): replicate each element weight/gcd
            # times, one flat np.sort, and the kept positions are a
            # strided slice — no weights, argsort, or cumsum at all.
            values = np.concatenate([np.asarray(d, dtype=np.float64) for d, _ in inputs])
            if step == len(inputs):
                # Equal weights: every copy count is 1, skip the repeat.
                merged = np.sort(values)
            else:
                copies = np.repeat(
                    np.array([weight // divisor for _, weight in inputs], dtype=np.int64),
                    [len(data) for data, _ in inputs],
                )
                merged = np.sort(np.repeat(values, copies))
            start = (offset - 1) // divisor
            if start + (capacity - 1) * step >= len(merged):
                raise AssertionError(
                    f"collapse selected past the merged input (total weight "
                    f"{len(merged) * divisor}, stride {stride}, offset {offset})"
                )
            return merged[start : start + capacity * step : step]
        values, cumulative = _flatten_weighted(inputs)
        positions = offset + stride * np.arange(capacity, dtype=np.int64)
        kept_indices = np.searchsorted(cumulative, positions, side="left")
        if len(kept_indices) and kept_indices[-1] >= len(values):
            raise AssertionError(
                f"collapse selected past the merged input (total weight "
                f"{int(cumulative[-1]) if len(cumulative) else 0}, "
                f"stride {stride}, offset {offset})"
            )
        return values[kept_indices]

    def merged_view(
        self, weighted: Sequence[tuple[Sequence[float], int]]
    ) -> MergedView:
        pinned = [(data, weight) for data, weight in weighted if weight > 0]
        if not pinned:
            return MergedView([], [])
        values, cumulative = _flatten_weighted(pinned)
        # Columnar MergedView: the memoised query cache holds the arrays
        # as-is and answers by searchsorted-equivalent bisection.
        return MergedView(values, cumulative)

    def merge_views(self, a: MergedView, b: MergedView) -> MergedView:
        if len(a) == 0:
            return b
        if len(b) == 0:
            return a
        values = np.concatenate(
            [
                np.asarray(a.values, dtype=np.float64),
                np.asarray(b.values, dtype=np.float64),
            ]
        )
        weights = np.concatenate([_view_weights(a), _view_weights(b)])
        # Stable argsort keeps a-before-b on ties — the same tie rule as
        # the generic two-pointer merge, so the views are identical.
        order = np.argsort(values, kind="stable")
        return MergedView(values[order], np.cumsum(weights[order]))

    # -- columnar arena storage ----------------------------------------
    def alloc_values(self, count: int) -> np.ndarray:
        return np.zeros(count, dtype=np.float64)

    def write_slot(
        self, storage: Any, offset: int, values: Sequence[float], *, sort: bool
    ) -> None:
        view = storage[offset : offset + len(values)]
        view[:] = values
        if sort:
            view.sort()  # in-place on the contiguous slot slice

    def slot_view(self, storage: Any, offset: int, length: int) -> np.ndarray:
        result: np.ndarray = storage[offset : offset + length]
        return result


def _view_weights(view: MergedView) -> np.ndarray:
    """Per-element weights of a flattened view (inverse of the cumsum)."""
    cumulative = np.asarray(view.cumweights, dtype=np.int64)
    return np.diff(cumulative, prepend=0)


def _flatten_weighted(
    inputs: Sequence[tuple[Sequence[float], int]],
) -> tuple[np.ndarray, np.ndarray]:
    """Merged (values, cumulative weights) of weighted sorted buffers.

    A stable argsort over the concatenation keeps ties in input order.
    That can differ from the reference backend's heapq tie order (which
    breaks value-ties by weight), but tied entries share their value, so
    every select/rank answer is identical across backends regardless —
    the equivalence the property tests assert.
    """
    arrays = [np.asarray(data, dtype=np.float64) for data, _ in inputs]
    values = np.concatenate(arrays) if len(arrays) > 1 else arrays[0]
    weights = np.repeat(
        np.array([weight for _, weight in inputs], dtype=np.int64),
        [len(array) for array in arrays],
    )
    order = np.argsort(values, kind="stable")
    values = values[order]
    cumulative = np.cumsum(weights[order])
    return values, cumulative


#: The singleton instance estimators share.
NUMPY_BACKEND = NumpyBackend()
