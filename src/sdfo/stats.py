"""Small helpers: a sum of squares, the normal quantile, a Wilson bound,
and the integer check that every count, size and seed argument goes through.

Every sum of squares that reaches a trace, a summary or an audit report
goes through ``sum_of_squares``, numpy's own pairwise sum, so those sums
do not depend on the BLAS kernel or the SIMD target the CPU gets.
"""

from __future__ import annotations

import math
import numbers
from statistics import NormalDist

import numpy as np

# Quantile function of the standard normal distribution (Wichura's AS241,
# Appl. Statist. 1988, as the standard library computes it); raises
# ``StatisticsError``, a ``ValueError``, outside (0, 1).
inverse_normal_cdf = NormalDist().inv_cdf


def check_integer(name: str, value, least: int = 1) -> int:
    """``value`` as a Python ``int``; a ``ValueError`` naming ``name`` unless
    it is an integer (a numpy one is, a bool or a float is not) >= ``least``."""
    if type(value) is int and value >= least:
        return value
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < least:
        raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")
    return int(value)


def sum_of_squares(x: np.ndarray) -> np.ndarray:
    """The sum of squares over the last axis, in numpy's pairwise order.

    No BLAS call: each row of an ``(N, d)`` stack, in any memory layout,
    sums bit for bit as the one-row call does, on any CPU.  The squares are
    laid out in C order, since numpy sums a reduction axis that is not the
    innermost one in plain sequence instead.
    """
    return np.add.reduce(np.multiply(x, x, order="C"), axis=-1)


def wilson_upper(successes: int, trials: int, confidence: float = 0.99) -> float:
    """One-sided Wilson score upper confidence bound for a binomial proportion.

    Returns the upper endpoint of the Wilson interval at the given one-sided
    confidence level; the result is clipped to [0, 1].
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if not 0 <= successes <= trials:
        raise ValueError("successes must lie in [0, trials]")
    if not 0.0 < confidence < 1.0:
        raise ValueError("confidence must lie strictly in (0, 1)")
    if successes == trials:
        return 1.0
    z = inverse_normal_cdf(confidence)
    n = float(trials)
    phat = successes / n
    z2 = z * z
    denom = 1.0 + z2 / n
    center = phat + z2 / (2.0 * n)
    half = z * math.sqrt(phat * (1.0 - phat) / n + z2 / (4.0 * n * n))
    return min(1.0, (center + half) / denom)
