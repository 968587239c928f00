"""Stochastic trust-region method and the run loop it shares with direct search.

Each trust-region iteration builds a quadratic model from a unit direction
and a diagonal matrix, zero or a clipped stencil curvature, and minimizes
it exactly over the trust-region ball on its spectrum.
``iterate`` then does what both optimizers do with a proposed step:
estimate the objective at the current and the trial point, accept when the
estimated decrease reaches ``theta * scale**2``, expand the radius by
``tau_bar`` (never beyond ``delta_max``) on success and contract it by
``1 - tau`` otherwise.  Direct search is the case of a zero model matrix,
no radius cap and the scale ``delta``.

``run_steps`` is the one run loop of both.  It runs a batch of seeds in
lockstep: the state is an ``(S, d)`` array of iterates and ``S`` radii,
and the direction generator advances once per iteration for all seeds.
That is exact because a run's k-th direction depends only on k, never on
estimates, so every seed of a batch would draw the same sequence from a
fresh generator.  Each seed draws its noise from its own oracle stream,
so a seed's trace does not depend on the batch it ran in; a library run
(``tr_run``, ``ds_run``) is a batch of one.  A seed leaves the batch when
it stops, and its final state names why (``STOP_REASONS``).

A noisy batch whose estimates grow past the estimate engine's chunk goes
apart: once two or more seeds have drawn more than ``CHUNK_DRAWS`` values
in one iteration, each seed runs on by itself, on a clone of the
generator, and up to one thread per usable CPU takes one seed-iteration
at a time, the seed with the largest radius first.  This is the one
place where seeds draw concurrently; each thread holds O(``CHUNK_DRAWS``)
drawn values, and none outlives the ``run_steps`` call.

Non-finite values act as an extreme barrier (Audet & Dennis, SIAM J.
Optim. 2006).  When f is ``+inf`` or NaN at a trial point, the trial
estimate is ``+inf`` or NaN, the acceptance comparison is false, so the
step fails and the radius contracts; the value is written to the trace as
``inf`` or ``nan``.  A ``-inf`` trial value is an infinite decrease and is
accepted.  ``f(x0)`` must be finite.
"""

from __future__ import annotations

import heapq
import math
import os
import threading
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .directions import DirectionGenerator
from .oracle import CHUNK_DRAWS, NoiseModel, SamplePolicy, StochasticOracle, _means, sample_policy
from .problems import TestProblem
from .stats import check_integer, sum_of_squares
from .subproblem import solve_spectrum
from .trace import IterationRecord

DEFAULT_DELTA_FLOOR = 1e-8

# Why a seed stopped: its iteration budget ran out, its radius fell below
# ``delta_floor``, or ``theta * delta**2`` rounded to zero.
STOP_REASONS = ("max_iters", "delta_floor", "threshold_underflow")


@dataclass(frozen=True)
class ZeroHessian:
    """Model matrix fixed to zero; steps are exactly ``-delta * g``."""


@dataclass(frozen=True)
class RegressionClipped:
    """Diagonal curvature fit on a central stencil, spectrum-clipped.

    The fit interpolates estimates at ``x`` and ``x +/- delta e_i``
    (2n + 1 points), and the resulting eigenvalues are clipped into
    ``[-m delta**-q, M delta**-q]``.
    """

    q: float
    m: float
    M: float

    def __post_init__(self) -> None:
        if not 0.0 < self.q < 1.0:
            raise ValueError(f"q must lie in (0, 1), got {self.q}")
        if not (0.0 < self.m < math.inf and 0.0 < self.M < math.inf):
            raise ValueError(f"m and M must be positive and finite, got {self.m}, {self.M}")


HessianPolicy = ZeroHessian | RegressionClipped


@dataclass(frozen=True)
class TrustRegionConfig:
    delta0: float
    delta_max: float
    tau: float
    tau_bar: float
    max_iters: int
    hessian_policy: HessianPolicy = ZeroHessian()
    theta: float | None = None
    eps_f_hint: float | None = None

    def __post_init__(self) -> None:
        check_step_config(self)


@dataclass(frozen=True)
class TrustRegionState:
    """Iterate, radius, iteration count and the running sum of squared radii.

    The final state of a run also says why the run stopped, as one of
    ``STOP_REASONS``; other states carry None.
    """

    x: np.ndarray
    delta: float
    k: int = 0
    cum_delta_sq: float = 0.0
    stop_reason: str | None = None


@dataclass(frozen=True)
class ThetaVerdict:
    """Advisory check of the sufficient-decrease constant against its lower bound."""

    ok: bool
    theta: float
    bound: float
    message: str


def check_step_config(cfg) -> None:
    """Validate a direct-search or trust-region config; derive an omitted theta.

    An omitted ``theta`` becomes ``1.1`` times its admissibility bound,
    which needs a positive ``eps_f_hint``.  ``delta0``, ``delta_max`` and
    ``theta`` are then Python floats, whatever numbers they were given as,
    and ``max_iters`` is a Python int; a bool ``max_iters`` is rejected.
    """
    if not 0.0 < cfg.delta0 < math.inf:
        raise ValueError(f"delta0 must be positive and finite, got {cfg.delta0}")
    if not cfg.delta_max >= cfg.delta0:
        raise ValueError("delta_max must be >= delta0")
    if not 0.0 < cfg.tau < 1.0:
        raise ValueError(f"tau must lie in (0, 1), got {cfg.tau}")
    if not 1.0 <= cfg.tau_bar <= 1.0 + cfg.tau:
        raise ValueError(f"tau_bar must lie in [1, 1 + tau], got {cfg.tau_bar}")
    object.__setattr__(cfg, "max_iters", check_integer("max_iters", cfg.max_iters, 0))
    if not isinstance(cfg.hessian_policy, (ZeroHessian, RegressionClipped)):
        raise ValueError(f"unknown hessian policy: {cfg.hessian_policy!r}")
    try:
        floor = curvature_floor(cfg)
    except OverflowError:  # M**2 or delta_max**(2 - 2q) past the float range
        floor = 0.0
    if not floor > 0.0:
        raise ValueError(
            f"hessian policy {cfg.hessian_policy} with delta_max={cfg.delta_max} gives "
            "no positive curvature floor 1/(M^2 delta_max^(2-2q))"
        )
    if cfg.eps_f_hint is not None and not cfg.eps_f_hint >= 0.0:
        raise ValueError("eps_f_hint must be nonnegative")
    if cfg.theta is None:
        if cfg.eps_f_hint is None or cfg.eps_f_hint <= 0.0:
            raise ValueError("theta omitted: a positive eps_f_hint is required to derive it")
        object.__setattr__(cfg, "theta", 1.1 * theta_bound(cfg))
    elif not cfg.theta > 0.0:
        raise ValueError("theta must be positive")
    # Radii start at delta0 and are capped at delta_max, and theta scales
    # each threshold: as floats they keep every radius and trace value one.
    for name in ("delta0", "delta_max", "theta"):
        if type(getattr(cfg, name)) is not float:
            object.__setattr__(cfg, name, float(getattr(cfg, name)))


def curvature_floor(cfg) -> float:
    """min(1, 1 / (M^2 delta_max^(2 - 2q))): the step-norm-to-radius factor.

    Interior steps satisfy ``||s||^2 >= floor * delta**2``; with a zero
    model matrix every step sits on the boundary, so the factor is one.
    """
    policy = cfg.hessian_policy
    if isinstance(policy, ZeroHessian):
        return 1.0
    raw = 1.0 / (policy.M**2 * cfg.delta_max ** (2.0 - 2.0 * policy.q))
    return min(1.0, raw)


def theta_bound(cfg) -> float:
    """Smallest admissible theta: ``4 eps_f / (floor * (2 - tau))``."""
    return 4.0 * cfg.eps_f_hint / (curvature_floor(cfg) * (2.0 - cfg.tau))


def default_k_f(cfg) -> float:
    """The ``k_f`` of a run's ``auto`` sampler: ``theta * floor * (2 - tau) / 16``, so
    the derived tail constant meets the theta bound with a factor-2 margin."""
    return cfg.theta * curvature_floor(cfg) * (2.0 - cfg.tau) / 16.0


def validate_theta_tr(cfg) -> ThetaVerdict:
    """Check ``theta > theta_bound(cfg)`` for the declared tail constant."""
    if cfg.eps_f_hint is None:
        raise ValueError("validating theta requires eps_f_hint")
    bound = theta_bound(cfg)
    if cfg.theta > bound:
        return ThetaVerdict(True, cfg.theta, bound, "theta exceeds the admissibility bound")
    return ThetaVerdict(
        False,
        cfg.theta,
        bound,
        f"theta={cfg.theta} does not exceed the minimal admissible value {bound}",
    )


def _sample_counts(sampler, scales) -> list[int]:
    """``sampler(scale)`` for each scale, as ints; ``ValueError`` naming the
    scale when a count is not an integer >= 1 (a bool or a float is not)."""
    counts = list(map(sampler, scales))
    if set(map(type, counts)) != {int} or min(counts) < 1:
        counts = [check_integer(f"sample count at scale {s!r}", n) for n, s in zip(counts, scales)]
    return counts


def stencil_models(
    oracles, policy: RegressionClipped, x: np.ndarray, radii, sampler, fx=None
) -> tuple[np.ndarray, list[int]]:
    """Each seed's diagonal model curvature ``(S, n)``, and the stencil samples it spent.

    Seed ``s`` estimates f with ``sampler(radii[s])`` samples per point
    at ``x[s]`` and ``x[s] +/- radii[s] e_i`` and clips its central
    differences into ``[-m delta**-q, M delta**-q]``.  ``fx``, when given,
    holds the true values at the ``x[s]``, which are then not evaluated
    again.  The oracles are one per seed, as in ``iterate``, and the counts
    are checked as there.  A NaN curvature raises ``ValueError``; an
    infinite one clips.  A zero model matrix needs no stencil;
    ``propose_tr`` takes it without this call.
    """
    batch, n = x.shape
    counts = _sample_counts(sampler, radii)
    delta = np.array(radii)
    offsets = delta[:, None, None] * np.eye(n)
    # Rows x + delta e_1, x - delta e_1, x + delta e_2, ...; the estimates
    # put x in front of them.
    around = np.empty((batch, 2 * n, n))
    np.add(x[:, None, :], offsets, out=around[:, 0::2])
    np.subtract(x[:, None, :], offsets, out=around[:, 1::2])
    problem = oracles[0].problem
    truth = np.empty((batch, 2 * n + 1))
    truth[:, 0] = problem.true_values(x) if fx is None else fx
    truth[:, 1:] = problem.true_values(around.reshape(-1, n)).reshape(batch, 2 * n)
    means = _means(oracles, truth, counts)
    curvature = (means[:, 1::2] - 2.0 * means[:, :1] + means[:, 2::2]) / (delta * delta)[:, None]
    # Python's float power, as for a single radius.
    hi = [policy.M * r ** (-policy.q) for r in radii]
    lo = [-policy.m * r ** (-policy.q) for r in radii]
    clipped = np.clip(curvature, np.array(lo)[:, None], np.array(hi)[:, None])
    if not np.isfinite(clipped).all():
        raise ValueError("non-finite stencil curvature: a central difference of the estimates is NaN")
    return clipped, [(2 * n + 1) * count for count in counts]


# A proposal maps (cfg, gen, oracles, sampler, x, radii, fx) for a seed
# batch with iterates ``x`` (S, d), radii (S Python floats) and the true
# values at the iterates (S floats, or None when unknown) to the shared
# direction, the steps (S, d), the acceptance scales (S floats) or None for
# the step norms, and the stencil samples each seed spent (S ints).
Proposal = Callable[..., tuple[np.ndarray, np.ndarray, list | None, list]]


def propose_tr(cfg, gen, oracles, sampler, x, radii, fx):
    """Trust-region steps: the exact model minimizers, tested at their norms.

    A linear model (a zero model matrix, or an all-zero stencil curvature)
    has the minimizer ``-delta * g``, which every seed starts from.  Any
    other seed's diagonal stencil model is solved on its spectrum: the
    curvature sorted stably, and the direction in the same order.
    """
    direction = gen.next_direction()
    steps = np.multiply.outer([-r for r in radii], direction)
    if isinstance(cfg.hessian_policy, ZeroHessian):
        return direction, steps, None, [0] * len(radii)
    curvature, stencil = stencil_models(oracles, cfg.hessian_policy, x, radii, sampler, fx)
    order = np.argsort(curvature, axis=1, kind="stable")
    inverses = np.argsort(order, axis=1)
    for step, w, a, inverse, r in zip(
        steps, np.take_along_axis(curvature, order, axis=1), direction[order], inverses, radii
    ):
        if w.any():
            step[:] = solve_spectrum(w, a, r, lambda coef: coef[inverse])[0]
    return direction, steps, None, stencil


def iterate(propose: Proposal, cfg, gen, oracles, sampler, x: np.ndarray, radii: list, fx, k: int):
    """One lockstep iteration of a seed batch; the iteration both optimizers share.

    ``propose`` gives each seed a step and the scale its test works at.
    Both points of a seed get ``sampler(scale)`` samples, drawn from the
    seed's own oracle, and the estimate engine (``oracle._means``) averages
    them for all seeds at once, unchecked: the oracles are one per seed, as
    ``run_steps`` builds them.  A count that is not an integer >= 1 raises
    ``ValueError`` naming its scale.  A step is accepted when the estimated
    decrease reaches ``theta * scale**2``; the radius then grows by
    ``tau_bar`` (never beyond ``delta_max``) and otherwise shrinks by
    ``1 - tau``.  The test and the update are a few float operations per seed,
    done on Python floats: for batches of up to about 20 seeds that is
    cheaper than numpy calls on ``(S,)`` arrays, and a non-finite estimate
    compares false without a warning.  ``fx`` holds the true values at the
    iterates (None when unknown), so f is evaluated at the trial points
    only.  Returns each seed's trace row for iteration ``k`` (its
    ``TRACE_COLUMNS`` values), the direction, the steps, and the new
    iterates, radii and true values.
    """
    direction, step, scales, stencil = propose(cfg, gen, oracles, sampler, x, radii, fx)
    norms = np.sqrt(sum_of_squares(step)).tolist()
    if scales is None:
        scales = norms
    counts = _sample_counts(sampler, scales)
    trial = x + step
    problem = oracles[0].problem
    truth = np.empty((len(radii), 2))
    truth[:, 0] = problem.true_values(x) if fx is None else fx
    truth[:, 1] = problem.true_values(trial)
    means = _means(oracles, truth, counts)
    theta, grow, shrink = cfg.theta, cfg.tau_bar, 1.0 - cfg.tau
    rows, new_radii, new_fx = [], [], []
    for r, norm, (f, f_trial), (cur, new), s, n, n_sten in zip(
        radii, norms, truth.tolist(), means.tolist(), scales, counts, stencil
    ):
        success = cur - new >= theta * s * s
        rows.append((k, success, r, norm, f, cur, new, n + n_sten, n))
        new_radii.append(min(cfg.delta_max, grow * r) if success else shrink * r)
        new_fx.append(f_trial if success else f)
    accepted = [row[1] for row in rows]
    if all(accepted):
        new_x = trial
    elif any(accepted):
        new_x = np.where(np.array(accepted)[:, None], trial, x)
    else:
        new_x = x
    return rows, direction, step, new_x, new_radii, new_fx


def run_steps(
    propose: Proposal,
    cfg,
    problem: TestProblem,
    noise: NoiseModel,
    gen: DirectionGenerator,
    x0,
    seeds: Sequence[int],
    sampler: SamplePolicy | None,
    delta_floor: float,
    vectors: bool = True,
) -> list[tuple[TrustRegionState, list[tuple]]]:
    """Run one seed per oracle stream from ``x0``, in lockstep until the batch goes apart.

    Returns each seed's final state and trace rows, in seed order.  A
    seed stops after ``max_iters`` iterations, when its radius falls below
    ``delta_floor``, or when ``theta * delta**2`` is no longer positive,
    since an acceptance test against a zero threshold would take any
    estimated non-increase; ``stop_reason`` on its final state names which.
    When ``sampler`` is omitted, the per-iteration count follows the
    declared noise statistics with ``k_f = default_k_f(cfg)``.  With
    ``vectors`` a row is an ``IterationRecord`` that carries the iterate,
    the direction and the step; without, it is the plain tuple of its
    ``TRACE_COLUMNS`` values, which is cheaper to build and writes and
    summarizes the same.

    After the first lockstep iteration in which two or more noisy seeds drew
    more than ``CHUNK_DRAWS`` values (a row's ``samples_current +
    samples_trial``; noiseless oracles draw none), the remaining seeds run
    apart (``_run_apart``) on threads that this call starts and joins;
    ``gen`` then ends where a lockstep batch would leave it.  Any error of
    a seed-iteration stops the batch and is raised here.
    """
    if not delta_floor >= 0.0:
        raise ValueError(f"delta_floor must be nonnegative, got {delta_floor}")
    start = problem.check_point(x0)
    if not np.all(np.isfinite(start)):
        raise ValueError(f"x0 must be finite, got {start.tolist()}")
    f0 = float(problem.true_values(start[np.newaxis])[0])
    if not math.isfinite(f0):
        raise ValueError(f"f(x0) must be finite, got {f0}")
    if gen.dimension != problem.dimension:
        raise ValueError("direction generator dimension does not match the problem")
    if not seeds:
        raise ValueError("at least one seed is required")
    if sampler is None:
        sampler = sample_policy(noise, k_f=default_k_f(cfg))
    oracles = [StochasticOracle(problem, noise, seed) for seed in seeds]
    live = list(range(len(seeds)))
    x = np.tile(start, (len(seeds), 1))
    radii = [cfg.delta0] * len(seeds)
    fx = [f0] * len(seeds)
    # Per seed: trace rows, and (x, delta, k, stop reason) once it stops.
    rows: list[list] = [[] for _ in seeds]
    ends: list = [None] * len(seeds)
    k = 0
    for k in range(cfg.max_iters):
        # delta < floor and theta * delta**2 <= 0 are monotone in delta, so
        # the smallest radius tells whether any seed stops.
        smallest = min(radii)
        if smallest < delta_floor or not cfg.theta * smallest * smallest > 0.0:
            kept = []
            for i, r in enumerate(radii):
                reason = _stop_reason(cfg, delta_floor, k, r)
                if reason is None:
                    kept.append(i)
                else:
                    ends[live[i]] = (x[i].copy(), r, k, reason)
            live, x, radii = [live[i] for i in kept], x[kept], [radii[i] for i in kept]
            oracles, fx = [oracles[i] for i in kept], [fx[i] for i in kept]
            if not live:
                break
        new_rows, direction, step, new_x, new_radii, fx = iterate(
            propose, cfg, gen, oracles, sampler, x, radii, fx, k
        )
        if vectors:
            for i, row, x_i, step_i in zip(live, new_rows, x, step):
                rows[i].append(IterationRecord(*row, x_i, direction, step_i))
        else:
            for i, row in zip(live, new_rows):
                rows[i].append(row)
        x, radii = new_x, new_radii
        if noise.kind != "none" and sum(row[7] + row[8] > CHUNK_DRAWS for row in new_rows) > 1:
            apart = [[k + 1, *seed] for seed in zip(live, oracles, x[:, np.newaxis], radii, fx)]
            _run_apart(propose, cfg, gen, sampler, delta_floor, vectors, apart, rows, ends)
            live = []
            break
    else:
        k = cfg.max_iters
    for i, x_i, r in zip(live, x, radii):
        ends[i] = (x_i.copy(), r, k, "max_iters")
    runs = []
    for (x_end, delta, iterations, reason), trace in zip(ends, rows):
        # The squared radii (row[2]) summed as ``diagnostics.summarize`` sums
        # them, so the two agree bit for bit.
        cum = sum([row[2] * row[2] for row in trace], 0.0)
        runs.append((TrustRegionState(x_end, delta, iterations, cum, reason), trace))
    return runs


def _stop_reason(cfg, delta_floor: float, k: int, r: float) -> str | None:
    """Why a seed at iteration ``k`` with radius ``r`` stops (``STOP_REASONS``), or None."""
    if k >= cfg.max_iters:
        return "max_iters"
    if r < delta_floor:
        return "delta_floor"
    if not cfg.theta * r * r > 0.0:
        return "threshold_underflow"
    return None


def _usable_cpus() -> int:
    """CPUs this process may run on: the cap on a batch's drawing threads."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _run_apart(propose, cfg, gen, sampler, delta_floor, vectors, seeds, rows, ends) -> None:
    """Run each seed of a batch that went apart to its stop, by itself.

    ``seeds`` holds ``[k, index, oracle, x (1, d), delta, f(x)]`` per live
    seed, all at one iteration ``k``.  A seed-iteration is a one-seed
    ``iterate`` on the seed's own oracle and its own clone of ``gen``, so
    no seed waits for another seed's estimates, and its row goes to
    ``rows[index]`` as the lockstep loop would put it; a stopped seed's
    ``(x, delta, k, reason)`` goes to ``ends[index]``.  ``min(seeds, usable
    CPUs)`` threads, this one and helpers named ``sdfo-draws-*`` that this
    call starts and joins, take one seed-iteration at a time, so a custom
    objective or sampler is called concurrently.  The seed with the largest
    radius goes first: the variance and moment rules' counts grow as radii
    shrink, so that seed has the most draws ahead, and the seeds' costliest
    last iterations do not all wait for the end, where one thread would run
    them alone.  The
    first error that a seed-iteration raises stops every thread from
    taking another; it is raised once all are joined.
    """
    gens = [gen.clone() for _ in seeds]

    def turn_of(j: int) -> tuple:
        """Seed ``j``'s place in ``ready``: largest radius, then lowest iteration."""
        return -seeds[j][4], seeds[j][0], j

    ready = sorted(map(turn_of, range(len(seeds))))  # a sorted list is a heap
    turn = threading.Condition()
    running, errors = 0, []

    def advance(j: int) -> bool:
        """Seed ``j``'s next iteration; False once the seed has stopped."""
        k, i, own, x, r, f = seeds[j]
        reason = _stop_reason(cfg, delta_floor, k, r)
        if reason is not None:
            ends[i] = (x[0].copy(), r, k, reason)
            return False
        (row,), direction, (step,), new_x, (r,), (f,) = iterate(
            propose, cfg, gens[j], [own], sampler, x, [r], [f], k
        )
        rows[i].append(IterationRecord(*row, x[0], direction, step) if vectors else row)
        seeds[j] = [k + 1, i, own, new_x, r, f]
        return True

    def work() -> None:
        nonlocal running
        j = going = None
        while True:
            with turn:
                if j is not None:  # hand back the seed-iteration just run
                    running -= 1
                    if going:
                        heapq.heappush(ready, turn_of(j))
                    turn.notify_all()
                while not ready and running and not errors:
                    turn.wait()
                if errors or not ready:
                    return
                j = heapq.heappop(ready)[-1]
                running += 1
            try:
                going = advance(j)
            except BaseException as error:
                going = False
                errors.append(error)

    helpers = [
        threading.Thread(target=work, name=f"sdfo-draws-{h}")
        for h in range(1, min(len(seeds), _usable_cpus()))
    ]
    started = []
    try:
        for helper in helpers:
            helper.start()
            started.append(helper)
        work()
    except BaseException as error:  # no thread to start, or an interrupt
        with turn:
            errors.append(error)
            turn.notify_all()
    for helper in started:
        helper.join()
    if errors:
        raise errors[0]
    # A lockstep batch advances the generator once per iteration of its
    # longest run.
    vars(gen).update(vars(max(gens, key=lambda g: g.cursor)))


def tr_run(
    cfg: TrustRegionConfig,
    problem: TestProblem,
    noise: NoiseModel,
    gen: DirectionGenerator,
    x0,
    seed: int = 0,
    sampler: SamplePolicy | None = None,
    delta_floor: float = DEFAULT_DELTA_FLOOR,
) -> tuple[TrustRegionState, list[IterationRecord]]:
    """Run the trust-region method from ``x0``; deterministic given the seed.

    The sample policy is keyed to the step norm for the acceptance
    estimates (stencil estimates use the radius as a proxy, taken before
    the step is known).  A one-seed ``run_steps``.
    """
    (run,) = run_steps(propose_tr, cfg, problem, noise, gen, x0, (seed,), sampler, delta_floor)
    return run
