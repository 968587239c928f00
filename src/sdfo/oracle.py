"""Noisy function oracles and sample-average estimate construction.

An oracle returns ``f(x) + xi`` for zero-mean noise ``xi``.  Every
estimate, single, paired, repeated or a whole stencil, is a mean of i.i.d.
draws built by the one primitive ``sample_means``.  ``required_samples`` and
``moment_oracle_samples`` give averaging counts under which the estimate
error of the decrease ``f(x) - f(y)`` obeys the tail bounds that the
optimizers assume (finite-variance and finite-moment noise respectively).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .problems import TestProblem

NOISE_KINDS = ("none", "gaussian", "student_t", "pareto_symmetric")


@dataclass(frozen=True)
class NoiseModel:
    """Zero-mean noise attached to a true objective, with declared statistics.

    ``declared_variance`` is an upper bound on the per-sample variance when
    finite.  ``declared_moment`` is a pair ``(r, bound)`` with
    ``E|xi|^r <= bound`` for some ``r`` in (1, 2]; it is mandatory for noise
    whose variance may be infinite (Student-t with df <= 2 and the symmetric
    Pareto construction) and is filled in automatically by the constructors
    below.
    """

    kind: str
    declared_variance: float | None = None
    declared_moment: tuple[float, float] | None = None
    scale: float = 1.0
    df: float | None = None
    tail_index: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in NOISE_KINDS:
            raise ValueError(f"unknown noise kind {self.kind!r}; expected one of {NOISE_KINDS}")
        if not 0.0 < self.scale < math.inf:
            raise ValueError(f"scale must be positive and finite, got {self.scale}")
        if self.declared_variance is not None and not 0.0 < self.declared_variance < math.inf:
            raise ValueError(
                f"declared_variance must be positive and finite, got {self.declared_variance}"
            )
        if self.declared_moment is not None:
            r, bound = self.declared_moment
            if not 1.0 < r <= 2.0:
                raise ValueError(f"declared moment order must lie in (1, 2], got {r}")
            if not 0.0 < bound < math.inf:
                raise ValueError(f"declared moment bound must be positive and finite, got {bound}")
        if self.kind == "gaussian" and self.declared_variance is None:
            raise ValueError("gaussian noise requires a declared variance")
        if self.kind == "student_t":
            if self.df is None or self.df <= 1.0:
                raise ValueError("student_t noise requires df > 1")
            if self.df <= 2.0 and self.declared_moment is None:
                raise ValueError("student_t with df <= 2 must declare a finite r-th moment")
        if self.kind == "pareto_symmetric":
            if self.tail_index is None:
                raise ValueError("pareto_symmetric noise requires a tail index")
            if not 1.0 < self.tail_index <= 2.0:
                raise ValueError("pareto tail index must lie in (1, 2]")
            if self.declared_moment is None:
                raise ValueError("pareto_symmetric must declare a finite r-th moment")

    @staticmethod
    def none() -> "NoiseModel":
        return NoiseModel(kind="none")

    @staticmethod
    def gaussian(variance: float) -> "NoiseModel":
        return NoiseModel(kind="gaussian", declared_variance=float(variance))

    @staticmethod
    def student_t(df: float, scale: float = 1.0) -> "NoiseModel":
        df = float(df)
        scale = float(scale)
        if df > 2.0:
            variance = scale * scale * df / (df - 2.0)
            return NoiseModel(kind="student_t", declared_variance=variance, scale=scale, df=df)
        # Infinite variance: declare the exact r-th absolute moment for an
        # order strictly between 1 and df.
        r = 0.5 * (1.0 + df)
        moment = (
            df ** (r / 2.0)
            * math.gamma((r + 1.0) / 2.0)
            * math.gamma((df - r) / 2.0)
            / (math.sqrt(math.pi) * math.gamma(df / 2.0))
        )
        return NoiseModel(
            kind="student_t",
            declared_moment=(r, moment * scale**r),
            scale=scale,
            df=df,
        )

    @staticmethod
    def pareto_symmetric(r: float, scale: float = 1.0) -> "NoiseModel":
        """Symmetric heavy-tailed noise with finite r-th moment, r in (1, 2].

        Draws are ``sign * (P - E[P]) * scale`` with ``P`` classical Pareto of
        shape ``r + 0.5``, so the variance is infinite for r <= 1.5 while the
        r-th absolute moment stays finite.  The declared bound uses
        ``E|P - mu|^r <= 2^(r-1) (E[P^r] + mu^r)``.
        """
        r = float(r)
        scale = float(scale)
        if not 1.0 < r <= 2.0:
            raise ValueError(f"tail index must lie in (1, 2], got {r}")
        shape = r + 0.5
        mean = shape / (shape - 1.0)
        raw_moment = shape / (shape - r)
        bound = 2.0 ** (r - 1.0) * (raw_moment + mean**r) * scale**r
        variance = None
        if shape > 2.0:
            # Finite variance regime (r > 1.5): Var[P] = a / ((a-1)^2 (a-2)).
            variance = scale * scale * shape / ((shape - 1.0) ** 2 * (shape - 2.0))
        return NoiseModel(
            kind="pareto_symmetric",
            declared_variance=variance,
            declared_moment=(r, bound),
            scale=scale,
            tail_index=r,
        )

    def draw(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """n zero-mean noise draws from the given generator.

        For every kind, ``draw(rng, a + b)`` equals ``draw(rng, a)`` followed
        by ``draw(rng, b)``, which lets callers batch draws freely.
        """
        if self.kind == "none":
            return np.zeros(n)
        if self.kind == "gaussian":
            return rng.normal(0.0, math.sqrt(self.declared_variance), n)
        if self.kind == "student_t":
            return self.scale * rng.standard_t(self.df, n)
        # One uniform per variate, so the stream does not depend on how the
        # draws are split into calls: floor(u) picks the sign, and the
        # uniform 1 - (u mod 1) in (0, 1] gives the Pareto magnitude by
        # inversion.
        shape = self.tail_index + 0.5
        u = 2.0 * rng.random(n)
        upper = np.floor(u)
        pareto = (1.0 + upper - u) ** (-1.0 / shape)
        return self.scale * (1.0 - 2.0 * upper) * (pareto - shape / (shape - 1.0))


@dataclass(frozen=True)
class EstimatePair:
    """The two per-iteration estimates used by an acceptance test.

    ``f_true_current`` is the true value at the current point that
    :func:`estimate_pair` evaluated on the way (NaN when not supplied).
    """

    est_current: float
    est_trial: float
    samples_current: int
    samples_trial: int
    f_true_current: float = math.nan

    def __post_init__(self) -> None:
        if self.samples_current < 1 or self.samples_trial < 1:
            raise ValueError("sample counts must be >= 1")


class StochasticOracle:
    """Seeded source of noisy samples ``f(x) + xi`` for a test problem.

    A single instance owns its random stream and is therefore single-owner;
    use :meth:`spawn` to derive independently seeded oracles for parallel or
    per-cell work.  Two oracles built with the same seed produce identical
    sample sequences.
    """

    def __init__(
        self,
        problem: TestProblem,
        noise: NoiseModel,
        seed: int = 0,
        _spawn_key: tuple[int, ...] = (),
    ) -> None:
        self.problem = problem
        self.noise = noise
        self._entropy = int(seed)
        self._spawn_key = tuple(int(k) for k in _spawn_key)
        self._rng = np.random.default_rng(
            np.random.SeedSequence(entropy=self._entropy, spawn_key=self._spawn_key)
        )
        self.draws = 0

    def spawn(self, *key: int) -> "StochasticOracle":
        """A fresh oracle on an independent substream derived from this seed."""
        return StochasticOracle(
            self.problem, self.noise, self._entropy, self._spawn_key + tuple(key)
        )


# Noise values drawn per call by ``sample_means``: 128 KB of float64, so
# a batch of estimates costs O(chunk) memory whatever its length.  Twice
# as large is no faster and raises peak memory.
CHUNK_DRAWS = 2**14


def sample_means(oracle: StochasticOracle, points, n: int, repeats: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """True values ``(k,)`` and ``(repeats, k)`` means of ``n`` samples at ``k`` points.

    f is evaluated once per point.  Each estimate takes the next ``n``
    draws of the stream in repeat-major, point-minor order, so
    ``oracle.draws`` grows by ``repeats * k * n`` and every mean is
    bit-identical to averaging its own draws.  Draw calls hold at most
    ``CHUNK_DRAWS`` values or one estimate.  Noiseless oracles return the
    true values exactly.
    """
    if n < 1:
        raise ValueError(f"sample count must be >= 1, got {n}")
    stack = np.asarray(points, dtype=float)
    if stack.ndim != 2 or stack.shape[1] != oracle.problem.dimension:
        raise ValueError(f"points have shape {stack.shape}, expected (k, {oracle.problem.dimension})")
    truth = np.array([float(oracle.problem.eval_true(point)) for point in stack])
    k = truth.size
    oracle.draws += repeats * k * n
    if oracle.noise.kind == "none":
        return truth, np.tile(truth, (repeats, 1))
    means = np.empty((repeats, k))
    # A chunk holds whole rounds of the k points when one round fits, and
    # a slice of one round's points otherwise.
    per_chunk = max(1, CHUNK_DRAWS // n)
    rounds, width = max(1, per_chunk // k), min(k, per_chunk)
    for r in range(0, repeats, rounds):
        for p in range(0, k, width):
            block = means[r : r + rounds, p : p + width]
            values = oracle.noise.draw(oracle._rng, block.size * n).reshape(*block.shape, n)
            values += truth[p : p + width, None]
            np.add.reduce(values, axis=-1, out=block)
    # The sum and the division by n are np.mean's own steps.
    means /= n
    return truth, means


def sample_estimate(oracle: StochasticOracle, x, n: int) -> float:
    """Arithmetic mean of ``n`` raw oracle samples at ``x``.

    Advances the oracle stream by exactly ``n`` draws.  With noiseless
    oracles the true value is returned exactly, independent of ``n``.
    """
    return float(sample_means(oracle, (x,), n)[1][0, 0])


def estimate_pair(
    oracle: StochasticOracle,
    x_current,
    x_trial,
    n_current: int,
    n_trial: int,
) -> EstimatePair:
    """Independent sample means at the current and trial points.

    The two means consume disjoint consecutive segments of the oracle
    stream, so they are independent by construction.  The true value at
    ``x_current`` is kept in the pair for the caller's trace record.
    """
    if n_current == n_trial:
        truth, means = sample_means(oracle, (x_current, x_trial), n_current)
        est_current, est_trial = means[0]
    else:
        truth, means = sample_means(oracle, (x_current,), n_current)
        est_current, est_trial = means[0, 0], sample_estimate(oracle, x_trial, n_trial)
    return EstimatePair(float(est_current), float(est_trial), n_current, n_trial, float(truth[0]))


def estimate_pairs(oracle: StochasticOracle, x_current, x_trial, n: int, trials: int) -> np.ndarray:
    """``trials`` consecutive ``estimate_pair(oracle, x_current, x_trial, n, n)`` means.

    Returns a ``(trials, 2)`` array of (current, trial) estimates, each
    bit-identical to the pair-by-pair loop's, with the oracle stream and
    ``oracle.draws`` left where that loop leaves them.
    """
    return sample_means(oracle, (x_current, x_trial), n, trials)[1]


def required_samples(variance: float, k_f: float, delta: float) -> int:
    """Averaging count that keeps the estimator variance below k_f^2 delta^4.

    With this many i.i.d. samples the variance of the mean satisfies
    ``V/n <= k_f^2 delta^4``, which makes the decrease-estimate error obey
    the first-moment tail bound with constant ``2 k_f`` and the quadratic
    one with ``4 k_f^2``.
    """
    if not (0.0 < variance < math.inf and 0.0 < k_f < math.inf and delta > 0.0):
        raise ValueError("variance and k_f must be positive and finite, and delta positive")
    return max(1, math.ceil(variance / (k_f * k_f * delta**4)))


def moment_oracle_samples(
    bound: float, r: float, delta: float, h: float, eps_q: float
) -> int:
    """Averaging count for finite r-th moment oracles, r in (1, 2].

    Returns ``n`` such that the decrease-estimate error built from two
    n-sample means satisfies, for every ``alpha >= eps_q``,

        P(|error| >= alpha * delta^h) <= eps_q / alpha^(2/(h-1)).

    The count comes from a Markov bound at moment order ``r`` together with
    the von Bahr-Esseen inequality (constant 2); ``r`` must be at least the
    exponent ``2/(h-1)`` for the bound to close.  The count is monotone
    nonincreasing in ``delta``.
    """
    if not (0.0 < bound < math.inf and 0.0 < eps_q < math.inf and delta > 0.0):
        raise ValueError("bound and eps_q must be positive and finite, and delta positive")
    if not 2.0 <= h < math.inf:
        raise ValueError(f"h must be finite and >= 2, got {h}")
    if not 1.0 < r <= 2.0:
        raise ValueError(f"moment order r must lie in (1, 2], got {r}")
    r_h = 2.0 / (h - 1.0)
    if r < r_h - 1e-12:
        raise ValueError(
            f"moment order r={r} is too small for h={h}: need r >= 2/(h-1) = {r_h}"
        )
    count = (2.0 * bound / (eps_q ** (1.0 + r - r_h) * delta ** (h * r))) ** (
        1.0 / (r - 1.0)
    )
    return max(1, math.ceil(count))


# --- sample-count policies ----------------------------------------------
#
# A policy maps the scale the acceptance test works at (stepsize or step
# norm) to the number of averaged samples per estimate.  A leaf rule is its
# count function with the constants bound, which it checks when it is built
# by taking the count at an infinite scale (one sample).

SamplePolicy = Callable[[float], int]

# Sampler kind -> the arguments of ``sample_policy`` that it reads.
SAMPLER_FIELDS = {"auto": (), "fixed": ("n",), "variance": ("k_f",), "moment": ("k_f", "eps_q")}


def fixed_sample_policy(n: int) -> SamplePolicy:
    if n < 1:
        raise ValueError("fixed sample count must be >= 1")
    return lambda delta: n


def variance_sample_policy(variance: float, k_f: float) -> SamplePolicy:
    required_samples(variance, k_f, math.inf)
    return functools.partial(required_samples, variance, k_f)


def moment_sample_policy(bound: float, r: float, h: float, eps_q: float) -> SamplePolicy:
    moment_oracle_samples(bound, r, math.inf, h, eps_q)
    return functools.partial(moment_oracle_samples, bound, r, h=h, eps_q=eps_q)


def sample_policy(
    noise: NoiseModel,
    kind: str = "auto",
    n: int | None = None,
    k_f: float | None = None,
    eps_q: float | None = None,
) -> SamplePolicy:
    """The ``kind`` policy for ``noise``: ``fixed`` (``n`` samples), ``variance``
    (the declared variance and ``k_f``) or ``moment`` (the declared moment,
    ``h = 1 + 2/r`` and ``eps_q``, by default ``4 k_f^2``).  ``auto`` takes one
    sample without noise, else the variance rule if a variance is declared,
    else the moment rule.
    """
    if kind == "auto" and noise.kind == "none":
        kind, n = "fixed", 1
    elif kind == "auto":
        kind = "variance" if noise.declared_variance is not None else "moment"
    if kind == "fixed":
        return fixed_sample_policy(n)
    if kind == "variance":
        if noise.declared_variance is None:
            raise ValueError("variance sampler needs noise with a declared variance")
        return variance_sample_policy(noise.declared_variance, k_f)
    if kind != "moment":
        raise ValueError(f"unknown sampler kind {kind!r}")
    if noise.declared_moment is None:
        raise ValueError("moment sampler needs noise with a declared moment")
    r, bound = noise.declared_moment
    eps_q = 4.0 * k_f * k_f if eps_q is None else eps_q
    return moment_sample_policy(bound, r, 1.0 + 2.0 / r, eps_q)


def default_sample_policy(noise: NoiseModel, k_f: float, eps_q: float | None = None) -> SamplePolicy:
    """Policy matching the declared noise statistics: ``sample_policy``'s ``auto``."""
    return sample_policy(noise, k_f=k_f, eps_q=eps_q)
