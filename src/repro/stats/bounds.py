"""Large-deviation bounds used by the paper's analysis.

Section 4.1 of the paper bounds the failure probability of the non-uniform
sampling scheme with a variant of Hoeffding's inequality [Hoe63]:

    Pr[|X - E[X]| >= lam] <= 2 * exp(-2 * lam^2 / sum(n_i^2))

where element ``i`` of the sample represents a block of ``n_i`` inputs.
Section 7 sizes the extreme-value estimator with Stein's lemma, whose
exponent is the binary Kullback-Leibler divergence.

All bounds here use natural logarithms; probabilities are plain floats.
"""

from __future__ import annotations

import math
from collections.abc import Iterable

__all__ = [
    "hoeffding_failure_probability",
    "required_block_mass",
    "reservoir_sample_size",
    "kl_bernoulli",
    "stein_failure_bound",
    "extreme_sample_size",
    "extreme_sample_size_simplified",
]


def hoeffding_failure_probability(
    eps: float, alpha: float, block_sizes: Iterable[int]
) -> float:
    """Failure probability of the non-uniform sampling step (Lemma 2).

    One representative is drawn uniformly from each block; block ``i`` has
    size ``n_i`` and its representative carries weight ``n_i``.  The sample
    is *bad* for a target quantile when the weighted rank drifts by more
    than ``(1 - alpha) * eps * N``.  Lemma 2 bounds the probability of a bad
    sample by::

        2 * exp(-2 * (1 - alpha)^2 * eps^2 * (sum n_i)^2 / sum n_i^2)

    :param eps: overall approximation guarantee epsilon.
    :param alpha: fraction of epsilon budgeted to the deterministic tree;
        the sampler gets the remaining ``(1 - alpha) * eps``.
    :param block_sizes: the sizes ``n_i`` of the sampling blocks.
    :returns: an upper bound on the failure probability (may exceed 1 when
        the sample is too small to promise anything).
    """
    if not 0.0 < eps <= 1.0:
        raise ValueError(f"eps must be in (0, 1], got {eps}")
    if not 0.0 <= alpha < 1.0:
        raise ValueError(f"alpha must be in [0, 1), got {alpha}")
    total = 0
    sum_sq = 0
    for n_i in block_sizes:
        if n_i <= 0:
            raise ValueError(f"block sizes must be positive, got {n_i}")
        total += n_i
        sum_sq += n_i * n_i
    if total == 0:
        return 1.0
    exponent = -2.0 * (1.0 - alpha) ** 2 * eps * eps * total * total / sum_sq
    return min(1.0, 2.0 * math.exp(exponent))


def required_block_mass(eps: float, delta: float, alpha: float) -> float:
    """Right-hand side of the paper's Equation 1.

    The sampling step succeeds with probability at least ``1 - delta``
    provided ``(sum n_i)^2 / sum n_i^2 >= required_block_mass(...)``.  For
    the tree of Figure 3 the left-hand side is bounded below by
    ``min(L_d * k, 8/3 * L_s * k)``, which is what the parameter planner
    compares this value against.

    :returns: ``ln(2 / delta) / (2 * (1 - alpha)^2 * eps^2)``.
    """
    if not 0.0 < eps <= 1.0:
        raise ValueError(f"eps must be in (0, 1], got {eps}")
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must be in (0, 1), got {delta}")
    if not 0.0 <= alpha < 1.0:
        raise ValueError(f"alpha must be in [0, 1), got {alpha}")
    return math.log(2.0 / delta) / (2.0 * (1.0 - alpha) ** 2 * eps * eps)


def reservoir_sample_size(eps: float, delta: float) -> int:
    """Sample size for the folklore reservoir-sampling baseline (Section 2.2).

    A uniform sample of size ``s = ln(2/delta) / (2 eps^2)`` has the
    property that its phi-quantile is an eps-approximate phi-quantile of the
    stream with probability at least ``1 - delta`` (uniform blocks in
    Hoeffding's inequality).  The quadratic dependence on ``1/eps`` is what
    makes this baseline impractical and motivates the paper.
    """
    return max(1, math.ceil(required_block_mass(eps, delta, alpha=0.0)))


def kl_bernoulli(p: float, q: float) -> float:
    """Binary Kullback-Leibler divergence ``D(p; q)`` in nats.

    ``D(p; q) = p ln(p/q) + (1-p) ln((1-p)/(1-q))``, with the usual
    conventions ``0 ln 0 = 0``.  Infinite when ``q`` is 0 or 1 while ``p``
    puts mass there.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must be in [0, 1], got {p}")
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"q must be in [0, 1], got {q}")
    if p == q:
        return 0.0
    div = 0.0
    if p > 0.0:
        # replint: disable=float-discipline -- exact KL boundary: q is a
        # caller-given probability, and the q->0 limit is +inf, not a
        # tolerance question
        if q == 0.0:
            return math.inf
        div += p * math.log(p / q)
    if p < 1.0:
        # replint: disable=float-discipline -- exact KL boundary, as above
        if q == 1.0:
            return math.inf
        div += (1.0 - p) * math.log((1.0 - p) / (1.0 - q))
    # The two terms cancel to within rounding when q is next to p; the
    # divergence itself is never negative.
    return max(div, 0.0)


def stein_failure_bound(s: int, phi: float, eps: float) -> float:
    """Stein's-lemma bound on the extreme estimator's failure probability.

    With a sample of size ``s``, the probability that the ``k``-th smallest
    sample element (``k = phi * s``) falls outside rank ``(phi +/- eps) N``
    is at most::

        exp(-s * D(phi; phi - eps)) + exp(-s * D(phi; phi + eps))

    (Lemma 6 in the paper, summed over the two one-sided bad events).
    When ``phi - eps <= 0`` the low-side event is impossible and only the
    high-side term remains.
    """
    if s <= 0:
        raise ValueError(f"sample size must be positive, got {s}")
    if not 0.0 < phi < 1.0:
        raise ValueError(f"phi must be in (0, 1), got {phi}")
    if not 0.0 < eps < 1.0:
        raise ValueError(f"eps must be in (0, 1), got {eps}")
    bound = 0.0
    if phi - eps > 0.0:
        bound += math.exp(-s * kl_bernoulli(phi, phi - eps))
    if phi + eps < 1.0:
        bound += math.exp(-s * kl_bernoulli(phi, phi + eps))
    return min(1.0, bound)


def extreme_sample_size(phi: float, eps: float, delta: float) -> int:
    """Smallest sample size meeting Section 7's failure guarantee.

    Returns the least ``s`` such that ``stein_failure_bound(s, phi, eps)``
    is at most ``delta``, found by doubling then bisection.  The retained
    memory of the estimator is then ``k = ceil(phi * s)`` elements.
    """
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must be in (0, 1), got {delta}")
    lo, hi = 1, 1
    while stein_failure_bound(hi, phi, eps) > delta:
        hi *= 2
        if hi > 1 << 62:
            raise ValueError(
                f"no feasible sample size for phi={phi}, eps={eps}, delta={delta}"
            )
    while lo < hi:
        mid = (lo + hi) // 2
        if stein_failure_bound(mid, phi, eps) <= delta:
            hi = mid
        else:
            lo = mid + 1
    return lo


def extreme_sample_size_simplified(phi: float, eps: float, delta: float) -> int:
    """Small-phi closed form for the Section 7 sample size.

    When ``phi`` is small and ``eps`` smaller, ``D(phi; phi +/- eps)`` is
    approximately ``eps^2 / (2 phi)`` (second-order Taylor expansion of the
    KL divergence around ``phi``), so the condition
    ``delta >= 2 exp(-s eps^2 / (2 phi))`` yields::

        s = 2 phi ln(2/delta) / eps^2

    The exact solver :func:`extreme_sample_size` should be preferred; this
    form exists to mirror the paper's simplification and for quick sizing.
    """
    if not 0.0 < phi < 1.0:
        raise ValueError(f"phi must be in (0, 1), got {phi}")
    if not 0.0 < eps < 1.0:
        raise ValueError(f"eps must be in (0, 1), got {eps}")
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must be in (0, 1), got {delta}")
    return max(1, math.ceil(2.0 * phi * math.log(2.0 / delta) / (eps * eps)))
