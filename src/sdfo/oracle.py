"""Noisy function oracles and sample-average estimate construction.

An oracle returns ``f(x) + xi`` for zero-mean noise ``xi``.  Every
estimate, single, paired, repeated, a whole stencil or a seed batch, is a
mean of i.i.d. draws made by one engine, ``_means``.  ``sample_means``
is its one checked front, for one oracle (``estimate_pair`` and the
audits' estimate sets go through it); the run loop calls the engine
directly, with one oracle per seed.
The engine plans and one step, ``_sums``, reads and reduces: a batch
whose seeds share one count and whose whole stack fits a ``CHUNK_DRAWS``
chunk is one stacked read, and any other goes seed by seed in chunks of
whole estimates, so it holds O(``CHUNK_DRAWS``) values.  It draws in the
calling thread and starts none; for where seeds draw concurrently see
``trust_region.run_steps``.
The engine reads noise through one reader, ``_read``: a batch's oracles
at one position read one slice of an ``(S, READ_AHEAD)`` block of their
streams read ahead, so an oracle keeps fewer than ``READ_AHEAD`` values
(8 KB).  Since ``NoiseModel.draw(rng, a + b)`` continues
``draw(rng, a)``, the values do not depend on the blocks.
``required_samples`` and
``moment_oracle_samples`` give averaging counts under which the estimate
error of the decrease ``f(x) - f(y)`` obeys the tail bounds that the
optimizers assume (finite-variance and finite-moment noise respectively).
"""

from __future__ import annotations

import functools
import math
import numbers
import operator
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .problems import TestProblem
from .stats import check_integer

NOISE_KINDS = ("none", "gaussian", "student_t", "pareto_symmetric")

# Noise values drawn per call: 128 KB of float64, so a batch of
# estimates costs O(chunk) memory per drawing thread whatever its length.
# Twice as large is no faster and raises peak memory.
CHUNK_DRAWS = 2**14

# Values that a request of fewer than this many reads ahead in one
# generator call, for the requests after it: 8 KB of float64 per oracle.
READ_AHEAD = CHUNK_DRAWS // 16


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
            # normal(0, sigma) computes 0 + sigma * z: the same bits, slower.
            values = rng.standard_normal(n)
            values *= math.sqrt(self.declared_variance)
            return values
        if self.kind == "student_t":
            values = rng.standard_t(self.df, n)
            values *= self.scale
            return values
        # One uniform per variate, so the stream does not depend on how the
        # draws are split into calls: floor(u) picks the sign, and the
        # uniform 1 - (u mod 1) in (0, 1] gives the Pareto magnitude by
        # inversion.  In place, each step rounds as
        # scale * (1 - 2 upper) * ((1 + upper - u) ** (-1 / shape) - mean).
        shape = self.tail_index + 0.5
        u = rng.random(n)
        u *= 2.0
        upper = np.floor(u)
        pareto = upper + 1.0
        pareto -= u
        np.power(pareto, -1.0 / shape, out=pareto)
        pareto -= shape / (shape - 1.0)
        upper *= -2.0
        upper += 1.0
        upper *= self.scale
        pareto *= upper
        return pareto


class _Block:
    """Values read ahead for a batch of oracles: row ``i`` continues the
    stream of the oracle whose ``_place`` is ``places[i]`` from column
    ``pos``.  A place names the block by its id, so a block refers to no
    oracle and is freed with the last one that refers to it."""

    __slots__ = ("values", "pos", "places")

    def __init__(self, values: np.ndarray, pos: int) -> None:
        self.values = values
        self.pos = pos
        self.places = [(id(self), row) for row in range(len(values))]


# The block of every oracle that keeps no values.
_SPENT = _Block(np.empty((1, 0)), 0)
_PLACE = operator.attrgetter("_place")


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
        self._entropy = check_integer("seed", seed, 0)
        self._spawn_key = tuple(check_integer("spawn key", k, 0) for k in _spawn_key)
        self._rng = np.random.default_rng(
            np.random.SeedSequence(entropy=self._entropy, spawn_key=self._spawn_key)
        )
        self.draws = 0
        # The values read ahead of the stream position: row ``_place[1]``
        # of ``_block.values`` from column ``_block.pos`` on (see ``_read``).
        self._block, self._place = _SPENT, _SPENT.places[0]

    def _next(self, width: int) -> np.ndarray:
        """The next ``width`` values of the stream, for ``_read``: the kept
        ones, then fresh draws.  ``_read`` then gives the oracle a new place,
        so no batch reads its old block as one slice again.
        """
        block = self._block
        kept = block.values[self._place[1], block.pos :]
        fresh = self.noise.draw(self._rng, width - kept.size)
        return np.concatenate((kept, fresh)) if kept.size else fresh

    def spawn(self, *key: int) -> "StochasticOracle":
        """A fresh oracle on an independent substream derived from this seed."""
        return StochasticOracle(
            self.problem, self.noise, self._entropy, self._spawn_key + tuple(key)
        )


def sample_means(oracle: StochasticOracle, points, n: int, repeats: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """True values ``(k,)`` and ``(repeats, k)`` means of ``n`` samples at ``k`` points.

    f is evaluated once per point, in one ``problem.true_values`` call.
    Each estimate takes the next ``n`` draws of the stream in
    repeat-major, point-minor order, so
    ``oracle.draws`` grows by ``repeats * k * n`` and every mean is
    bit-identical to averaging its own draws.  Noiseless oracles return
    the true values exactly.  A non-integer (or bool) or non-positive
    ``n`` or ``repeats`` raises ``ValueError`` before the stream or
    ``draws`` moves.
    """
    n = check_integer("n", n)
    repeats = check_integer("repeats", repeats)
    stack = np.asarray(points, dtype=float)
    if stack.ndim != 2 or stack.shape[1] != oracle.problem.dimension:
        raise ValueError(f"points have shape {stack.shape}, expected (k, {oracle.problem.dimension})")
    truth = oracle.problem.true_values(stack)
    row = truth[np.newaxis] if repeats == 1 else np.tile(truth, (1, repeats))
    return truth, _means([oracle], row, [n]).reshape(repeats, truth.size)


def _means(oracles: list, truth: np.ndarray, counts: list) -> np.ndarray:
    """``(S, m)`` means: entry ``(s, j)`` averages ``truth[s, j]`` plus each
    of the next ``counts[s]`` draws of ``oracles[s]``, taken in row order.

    Every estimate comes from here: ``sample_means``' (one row), and the
    run loop's acceptance pairs (``iterate``) and stencils
    (``stencil_models``), one row per seed.  Nothing is checked: the
    oracles are distinct and share one noise model, and the counts are
    ``int`` >= 1.  Noiseless oracles, and any batch with no points, keep
    their truths.  The rest is planned for ``_sums`` in one of two ways.
    When every seed has the same count ``n`` and the whole ``(S, m * n)``
    stack fits a ``CHUNK_DRAWS`` chunk (the lockstep case), it is one
    stacked read.  Otherwise the seeds go one by one, in seed order, each
    in chunks of as many whole estimates as fit (one, past a chunk).
    Either way the calling thread draws everything, in O(``CHUNK_DRAWS``)
    memory.  A seed reads only its own stream, so no value depends on the
    plan or the reader's blocks.
    """
    m = truth.shape[1]
    for oracle, n in zip(oracles, counts):
        oracle.draws += m * n
    if not m or oracles[0].noise.kind == "none":
        return truth.copy()
    n = counts[0]
    if counts.count(n) == len(counts) and len(counts) * m * n <= CHUNK_DRAWS:
        sums = _sums(oracles, truth, n)
        sums /= n
        return sums
    sums = np.empty_like(truth)
    for oracle, row, n, out in zip(oracles, truth, counts, sums):
        step = CHUNK_DRAWS // n or 1
        for j in range(0, m, step):
            out[j : j + step] = _sums([oracle], row[np.newaxis, j : j + step], n)[0]
        out /= n
    return sums


def _sums(oracles: list, truth: np.ndarray, n: int) -> np.ndarray:
    """``(rows, m)`` sums of each truth plus the next ``n`` draws of its row's oracle.

    The rows' ``m * n`` values are read as one block (``_read``) and each
    estimate is ``np.add.reduce`` over its own contiguous draws; the sum
    and a division by ``n`` are ``np.mean``'s own steps.  An estimate past
    a chunk (one per row) is summed in halves, split where numpy's pairwise
    summation splits a block (half the length, less its remainder mod 8),
    so its sum is bit-identical to one reduction over all ``n`` values.
    """
    if n > CHUNK_DRAWS:
        half = n // 2
        half -= half % 8
        return _sums(oracles, truth, half) + _sums(oracles, truth, n - half)
    rows, m = truth.shape
    values = _read(oracles, m * n).reshape(rows, m, n)
    values += truth[:, :, np.newaxis]
    return np.add.reduce(values, axis=-1)


def _read(oracles: list, count: int) -> np.ndarray:
    """``(S, count)``: row ``s`` holds the next ``count`` values of ``oracles[s]``'s stream.

    Oracles that one block holds at one position, in this order, read one
    slice of it.  Otherwise (the block is used up, or the oracles'
    positions have parted: ragged counts, a seed that left the batch, an
    oracle read alone) each row reads through its own oracle (``_next``):
    what it kept, then fresh draws, up to ``READ_AHEAD`` values when
    ``count`` is fewer, else up to ``count``; what the rows leave becomes
    the batch's new block.  So an oracle keeps fewer than ``READ_AHEAD``
    values, and a request of at least that many reads no further than it
    uses.  The result is fresh or a slice of a block that no later call
    returns, so the caller may write into it.  Threads that read disjoint
    oracles share no position: only a call that reads every row of a block
    slices it, and a block whose oracles part is never sliced again.
    """
    block = oracles[0]._block
    pos = block.pos
    if list(map(_PLACE, oracles)) == block.places and count <= block.values.shape[1] - pos:
        block.pos = pos + count
        return block.values[:, pos : pos + count]
    width = READ_AHEAD if count < READ_AHEAD else count
    rows = [oracle._next(width) for oracle in oracles]
    values = rows[0][np.newaxis] if len(rows) == 1 else np.stack(rows)
    if count == width:  # nothing left to keep
        for oracle in oracles:
            oracle._block, oracle._place = _SPENT, _SPENT.places[0]
        return values
    block = _Block(values, count)
    for oracle, place in zip(oracles, block.places):
        oracle._block, oracle._place = block, place
    return values[:, :count]


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
        est_current, est_trial = means[0, 0], sample_means(oracle, (x_trial,), n_trial)[1][0, 0]
    return EstimatePair(float(est_current), float(est_trial), n_current, n_trial, float(truth[0]))


def required_samples(variance: float, k_f: float, delta: float) -> int:
    """Averaging count that keeps the estimator variance below k_f^2 delta^4.

    With this many i.i.d. samples the variance of the mean satisfies
    ``V/n <= k_f^2 delta^4``, which makes the decrease-estimate error obey
    the first-moment tail bound with constant ``2 k_f`` and the quadratic
    one with ``4 k_f^2``.
    """
    if not (0.0 < variance < math.inf and 0.0 < k_f < math.inf and delta > 0.0):
        raise ValueError("variance and k_f must be positive and finite, and delta positive")
    try:
        scale = delta**4
    except OverflowError:  # past the float range V / (k_f^2 delta^4) rounds to 0
        return 1
    return _whole_count(delta, lambda: variance / (k_f * k_f * scale))


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
    try:
        scale = eps_q ** (1.0 + r - r_h) * delta ** (h * r)
    except OverflowError:  # past the float range the count rounds to 0
        return 1
    return _whole_count(delta, lambda: (2.0 * bound / scale) ** (1.0 / (r - 1.0)))


def _whole_count(delta: float, count: Callable[[], float]) -> int:
    """``max(1, ceil(count()))``; a ``ValueError`` naming ``delta`` when the
    count is not a finite number (its delta power underflowed, or it is past
    the float range)."""
    try:
        value = count()
    except (ZeroDivisionError, OverflowError):
        value = math.inf
    if not math.isfinite(value):
        raise ValueError(f"sample count at delta={delta} is not a finite number")
    return max(1, math.ceil(value))


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
    n = check_integer("n", n)
    return lambda delta: n


def _check_k_f(k_f) -> float:
    if not (isinstance(k_f, numbers.Real) and 0.0 < k_f < math.inf):
        raise ValueError(f"k_f must be positive and finite, got {k_f!r}")
    return k_f


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
    else the moment rule.  A rule that reads ``n`` or ``k_f`` raises
    ``ValueError`` unless ``n`` is an integer >= 1 and ``k_f`` positive and
    finite.
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
        return variance_sample_policy(noise.declared_variance, _check_k_f(k_f))
    if kind != "moment":
        raise ValueError(f"unknown sampler kind {kind!r}")
    if noise.declared_moment is None:
        raise ValueError("moment sampler needs noise with a declared moment")
    r, bound = noise.declared_moment
    if eps_q is None:
        k_f = _check_k_f(k_f)
        eps_q = 4.0 * k_f * k_f
    return moment_sample_policy(bound, r, 1.0 + 2.0 / r, eps_q)
