"""Fixed-rate samplers: Bernoulli and systematic (one-per-block).

The Section 7 extreme-value estimator samples the stream at a fixed rate
``s / N`` chosen from the known stream length.  Two standard rate samplers
are provided:

* :class:`BernoulliSampler` — keep each element independently with
  probability ``p``; matches the with-replacement analysis of Stein's lemma
  most closely and is what the extreme-value estimator uses.
* :class:`SystematicSampler` — one uniform pick per consecutive block of
  ``round(1/p)`` elements; sample size is (almost) deterministic, which
  parallel buffer shrinking (Section 6) relies on.
"""

from __future__ import annotations

import random
from collections.abc import Sequence
from typing import Any

from repro.sampling.block import BlockSampler

__all__ = ["BernoulliSampler", "SystematicSampler"]


class BernoulliSampler:
    """Keep each offered element independently with probability ``p``."""

    __slots__ = ("_probability", "_rng", "_offered", "_kept")

    def __init__(
        self,
        probability: float,
        rng: Any = None,
        *,
        seed: int | None = None,
    ) -> None:
        if not 0.0 < probability <= 1.0:
            raise ValueError(f"probability must be in (0, 1], got {probability}")
        self._probability = probability
        self._rng: Any = rng if rng is not None else random.Random(seed)
        self._offered = 0
        self._kept = 0

    @property
    def probability(self) -> float:
        """Inclusion probability ``p``."""
        return self._probability

    @property
    def offered(self) -> int:
        """Elements offered so far."""
        return self._offered

    @property
    def kept(self) -> int:
        """Elements accepted so far."""
        return self._kept

    def offer(self, value: float) -> float | None:
        """Return ``value`` if it is sampled, else ``None``."""
        self._offered += 1
        if self._probability >= 1.0 or self._rng.random() < self._probability:
            self._kept += 1
            return value
        return None

    def offer_many(self, values: Sequence[float]) -> list[float]:
        """Offer a whole batch; return the kept elements in stream order.

        Same independent-inclusion law as :meth:`offer`, and bit-identical
        to repeated :meth:`offer` calls: one uniform draw per element.
        """
        count = len(values)
        if self._probability >= 1.0:
            self._offered += count
            self._kept += count
            return [float(v) for v in values]
        rnd = self._rng.random
        p = self._probability
        kept = [float(value) for value in values if rnd() < p]
        self._offered += count
        self._kept += len(kept)
        return kept

    def state_dict(self) -> dict[str, Any]:
        """The sampler's restorable state, including its RNG state."""
        from repro.kernels import rng_state_dict

        return {
            "probability": self._probability,
            "offered": self._offered,
            "kept": self._kept,
            "rng": rng_state_dict(self._rng),
        }

    @classmethod
    def from_state_dict(cls, state: dict[str, Any]) -> "BernoulliSampler":
        """Rebuild a sampler exactly as :meth:`state_dict` captured it."""
        from repro.kernels import rng_from_state

        sampler = cls(float(state["probability"]), rng_from_state(state["rng"]))
        sampler._offered = int(state["offered"])
        sampler._kept = int(state["kept"])
        return sampler


class SystematicSampler:
    """One uniform representative per consecutive block of ``block`` elements.

    A thin, stateless-rate facade over :class:`BlockSampler` for callers
    that think in inclusion probabilities rather than block sizes.
    """

    __slots__ = ("_sampler", "_offered", "_kept")

    def __init__(
        self,
        block: int,
        rng: Any = None,
        *,
        seed: int | None = None,
    ) -> None:
        self._sampler = BlockSampler(
            block, rng if rng is not None else random.Random(seed)
        )
        self._offered = 0
        self._kept = 0

    @property
    def block(self) -> int:
        """Block size (inverse sampling rate)."""
        return self._sampler.rate

    @property
    def offered(self) -> int:
        """Elements offered so far."""
        return self._offered

    @property
    def kept(self) -> int:
        """Representatives emitted so far."""
        return self._kept

    def offer(self, value: float) -> float | None:
        """Return the block representative when a block completes, else None."""
        self._offered += 1
        chosen = self._sampler.offer(value)
        if chosen is not None:
            self._kept += 1
        return chosen

    def pending(self) -> tuple[float, int] | None:
        """Candidate of the incomplete trailing block, with its weight."""
        return self._sampler.pending()
