"""Stochastic trust-region method and the iteration it shares with direct search.

Each trust-region iteration builds a quadratic model from a unit direction
and a symmetric matrix and minimizes it exactly over the trust-region ball.
``take_step`` then does what both optimizers do with a proposed step:
estimate the objective at the current and the trial point, accept when the
estimated decrease reaches ``theta * scale**2``, expand the radius by
``tau_bar`` (never beyond ``delta_max``) on success and contract it by
``1 - tau`` otherwise.  Direct search is the case of a zero model matrix,
no radius cap and the scale ``delta``; ``run_steps`` is the run loop of both.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .directions import DirectionGenerator
from .oracle import (
    NoiseModel,
    SamplePolicy,
    StochasticOracle,
    estimate_pair,
    sample_means,
    sample_policy,
)
from .problems import TestProblem
from .subproblem import QuadraticModel, solve_exact
from .trace import IterationRecord

DEFAULT_DELTA_FLOOR = 1e-8


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
    x: np.ndarray
    delta: float
    k: int = 0
    cum_delta_sq: float = 0.0


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
    which needs a positive ``eps_f_hint``.
    """
    if not 0.0 < cfg.delta0 < math.inf:
        raise ValueError(f"delta0 must be positive and finite, got {cfg.delta0}")
    if not cfg.delta_max >= cfg.delta0:
        raise ValueError("delta_max must be >= delta0")
    if not 0.0 < cfg.tau < 1.0:
        raise ValueError(f"tau must lie in (0, 1), got {cfg.tau}")
    if not 1.0 <= cfg.tau_bar <= 1.0 + cfg.tau:
        raise ValueError(f"tau_bar must lie in [1, 1 + tau], got {cfg.tau_bar}")
    if cfg.max_iters < 0:
        raise ValueError("max_iters must be nonnegative")
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


def build_model(
    state: TrustRegionState,
    gen: DirectionGenerator,
    oracle: StochasticOracle,
    policy: HessianPolicy,
    sampler: SamplePolicy,
) -> tuple[QuadraticModel, int]:
    """Quadratic model at the current state; returns the stencil sample count.

    The direction comes from the generator and never depends on function
    estimates.  The matrix obeys the clipped eigenvalue growth bounds by
    construction.
    """
    direction = gen.next_direction()
    n = state.x.shape[0]
    delta = state.delta
    if isinstance(policy, ZeroHessian):
        matrix = np.zeros((n, n))
        return QuadraticModel(g=direction, B=matrix, radius=delta), 0

    n_sten = sampler(delta)
    # Rows x, x + delta e_1, x - delta e_1, x + delta e_2, ...
    offsets = delta * np.eye(n)
    stencil = np.vstack([state.x, np.hstack([state.x + offsets, state.x - offsets]).reshape(2 * n, n)])
    (means,) = sample_means(oracle, stencil, n_sten)[1]
    curvature = (means[1::2] - 2.0 * means[0] + means[2::2]) / (delta * delta)
    hi = policy.M * delta ** (-policy.q)
    lo = -policy.m * delta ** (-policy.q)
    matrix = np.diag(np.clip(curvature, lo, hi))
    return QuadraticModel(g=direction, B=matrix, radius=delta), (2 * n + 1) * n_sten


def rho(est_current: float, est_trial: float, theta: float, step_norm: float) -> float:
    """Acceptance ratio: estimated decrease over ``theta * step_norm**2``."""
    if step_norm <= 0.0:
        raise ValueError("degenerate step: step_norm must be positive")
    return (est_current - est_trial) / (theta * step_norm * step_norm)


def take_step(
    state: TrustRegionState,
    cfg,
    oracle: StochasticOracle,
    sampler: SamplePolicy,
    direction: np.ndarray,
    step: np.ndarray,
    scale: float,
    stencil_samples: int = 0,
) -> tuple[TrustRegionState, IterationRecord]:
    """Test the proposed ``step`` and update the state; the shared iteration.

    Both points get ``sampler(scale)`` samples.  The step is accepted when
    the estimated decrease reaches ``theta * scale**2``.  ``stencil_samples``
    (spent on the model) are added to the current point's count.
    """
    delta = state.delta
    trial = state.x + step
    n = sampler(scale)
    pair = estimate_pair(oracle, state.x, trial, n, n)
    success = pair.est_current - pair.est_trial >= cfg.theta * scale * scale

    record = IterationRecord(
        k=state.k,
        success=success,
        delta=delta,
        step_norm=float(np.linalg.norm(step)),
        f_true_current=pair.f_true_current,
        est_current=pair.est_current,
        est_trial=pair.est_trial,
        samples_current=pair.samples_current + stencil_samples,
        samples_trial=pair.samples_trial,
        x=state.x.copy(),
        direction=direction,
        step=step,
    )
    new_state = TrustRegionState(
        x=trial if success else state.x,
        delta=min(cfg.delta_max, cfg.tau_bar * delta) if success else (1.0 - cfg.tau) * delta,
        k=state.k + 1,
        cum_delta_sq=state.cum_delta_sq + delta * delta,
    )
    return new_state, record


def tr_step(
    state: TrustRegionState,
    cfg: TrustRegionConfig,
    gen: DirectionGenerator,
    oracle: StochasticOracle,
    sampler: SamplePolicy,
) -> tuple[TrustRegionState, IterationRecord]:
    """One trust-region iteration: model, exact subproblem, test at scale ``||s||``.

    A zero model matrix needs neither: its minimizer is ``-delta * g``.
    """
    if isinstance(cfg.hessian_policy, ZeroHessian):
        direction = gen.next_direction()
        step, stencil_samples = -state.delta * direction, 0
    else:
        model, stencil_samples = build_model(state, gen, oracle, cfg.hessian_policy, sampler)
        direction, step = model.g, solve_exact(model).s
    scale = float(np.linalg.norm(step))
    return take_step(state, cfg, oracle, sampler, direction, step, scale, stencil_samples)


def run_steps(
    step,
    cfg,
    problem: TestProblem,
    noise: NoiseModel,
    gen: DirectionGenerator,
    x0,
    seed: int,
    sampler: SamplePolicy | None,
    delta_floor: float,
) -> tuple[TrustRegionState, list[IterationRecord]]:
    """Iterate ``step`` from ``x0`` until ``max_iters`` or a stop condition.

    The run stops when the radius falls below ``delta_floor`` or when
    ``theta * delta**2`` is no longer positive, since an acceptance test
    against a zero threshold would take any estimated non-increase.  When
    ``sampler`` is omitted, the per-iteration count follows the declared
    noise statistics with ``k_f = default_k_f(cfg)``.
    """
    if not delta_floor >= 0.0:
        raise ValueError(f"delta_floor must be nonnegative, got {delta_floor}")
    start = problem.check_point(x0)
    if not np.all(np.isfinite(start)):
        raise ValueError(f"x0 must be finite, got {start.tolist()}")
    f0 = float(problem.eval_true(start))
    if not math.isfinite(f0):
        raise ValueError(f"f(x0) must be finite, got {f0}")
    if gen.dimension != problem.dimension:
        raise ValueError("direction generator dimension does not match the problem")
    oracle = StochasticOracle(problem, noise, seed)
    if sampler is None:
        sampler = sample_policy(noise, k_f=default_k_f(cfg))
    state = TrustRegionState(x=start, delta=float(cfg.delta0))
    records: list[IterationRecord] = []
    for _ in range(cfg.max_iters):
        if state.delta < delta_floor or not cfg.theta * state.delta * state.delta > 0.0:
            break
        state, record = step(state, cfg, gen, oracle, sampler)
        records.append(record)
    return state, records


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
    the step is known).
    """
    return run_steps(tr_step, cfg, problem, noise, gen, x0, seed, sampler, delta_floor)
