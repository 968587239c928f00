"""Stochastic trust-region method with a capped radius update.

Each iteration builds a quadratic model from a unit direction and a
symmetric matrix, minimizes it exactly over the trust-region ball, and
accepts when the ratio of estimated decrease to ``theta * ||s||**2``
reaches one.  Successful radii expand but never beyond ``delta_max``;
unsuccessful radii contract by ``1 - tau``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .direct_search import ThetaVerdict, _finite_start, _resolve_theta
from .directions import DirectionGenerator
from .oracle import (
    NoiseModel,
    SamplePolicy,
    StochasticOracle,
    default_sample_policy,
    estimate_pair,
    sample_estimate,
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
        if self.m <= 0.0 or self.M <= 0.0:
            raise ValueError("m and M must be positive")


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
        if self.delta0 <= 0.0:
            raise ValueError("delta0 must be positive")
        if self.delta_max < self.delta0:
            raise ValueError("delta_max must be >= delta0")
        if not 0.0 < self.tau < 1.0:
            raise ValueError(f"tau must lie in (0, 1), got {self.tau}")
        if not 1.0 <= self.tau_bar <= 1.0 + self.tau:
            raise ValueError(f"tau_bar must lie in [1, 1 + tau], got {self.tau_bar}")
        if self.max_iters < 0:
            raise ValueError("max_iters must be nonnegative")
        if not isinstance(self.hessian_policy, (ZeroHessian, RegressionClipped)):
            raise ValueError(f"unknown hessian policy: {self.hessian_policy!r}")
        if self.eps_f_hint is not None and self.eps_f_hint < 0.0:
            raise ValueError("eps_f_hint must be nonnegative")
        if self.theta is None:
            floor = curvature_floor(self)
            bound = 4.0 * (self.eps_f_hint or 0.0) / (floor * (2.0 - self.tau))
            object.__setattr__(
                self, "theta", _resolve_theta(None, self.eps_f_hint, bound)
            )
        elif self.theta <= 0.0:
            raise ValueError("theta must be positive")


@dataclass(frozen=True)
class TrustRegionState:
    x: np.ndarray
    delta: float
    k: int = 0
    cum_delta_sq: float = 0.0


def curvature_floor(cfg: TrustRegionConfig) -> float:
    """min(1, 1 / (M^2 delta_max^(2 - 2q))): the step-norm-to-radius factor.

    Interior steps satisfy ``||s||^2 >= floor * delta**2``; with a zero
    model matrix every step sits on the boundary, so the factor is one.
    """
    policy = cfg.hessian_policy
    if isinstance(policy, ZeroHessian):
        return 1.0
    raw = 1.0 / (policy.M**2 * cfg.delta_max ** (2.0 - 2.0 * policy.q))
    return min(1.0, raw)


def validate_theta_tr(cfg: TrustRegionConfig) -> ThetaVerdict:
    """Check ``theta > 4 eps_f / (floor * (2 - tau))`` for the declared tail constant."""
    if cfg.eps_f_hint is None:
        raise ValueError("validate_theta_tr requires eps_f_hint")
    floor = curvature_floor(cfg)
    bound = 4.0 * cfg.eps_f_hint / (floor * (2.0 - cfg.tau))
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
    center = sample_estimate(oracle, state.x, n_sten)
    curvature = np.zeros(n)
    for i in range(n):
        offset = np.zeros(n)
        offset[i] = delta
        plus = sample_estimate(oracle, state.x + offset, n_sten)
        minus = sample_estimate(oracle, state.x - offset, n_sten)
        curvature[i] = (plus - 2.0 * center + minus) / (delta * delta)
    hi = policy.M * delta ** (-policy.q)
    lo = -policy.m * delta ** (-policy.q)
    matrix = np.diag(np.clip(curvature, lo, hi))
    return QuadraticModel(g=direction, B=matrix, radius=delta), (2 * n + 1) * n_sten


def rho(est_current: float, est_trial: float, theta: float, step_norm: float) -> float:
    """Acceptance ratio: estimated decrease over ``theta * step_norm**2``."""
    if step_norm <= 0.0:
        raise ValueError("degenerate step: step_norm must be positive")
    return (est_current - est_trial) / (theta * step_norm * step_norm)


def tr_step(
    state: TrustRegionState,
    cfg: TrustRegionConfig,
    gen: DirectionGenerator,
    oracle: StochasticOracle,
    sampler: SamplePolicy,
) -> tuple[TrustRegionState, IterationRecord]:
    """One trust-region iteration: model, exact subproblem, ratio test, update."""
    delta = state.delta
    model, stencil_samples = build_model(state, gen, oracle, cfg.hessian_policy, sampler)
    sol = solve_exact(model)
    step_norm = float(np.linalg.norm(sol.s))

    if step_norm <= 0.0:
        # Unreachable with unit directions; contract without oracle calls.
        record = IterationRecord(
            k=state.k,
            success=False,
            delta=delta,
            step_norm=0.0,
            f_true_current=float(oracle.problem.eval_true(state.x)),
            est_current=math.nan,
            est_trial=math.nan,
            samples_current=stencil_samples,
            samples_trial=0,
            x=state.x.copy(),
            direction=model.g,
            step=sol.s,
        )
        new_state = TrustRegionState(
            x=state.x,
            delta=(1.0 - cfg.tau) * delta,
            k=state.k + 1,
            cum_delta_sq=state.cum_delta_sq + delta * delta,
        )
        return new_state, record

    trial = state.x + sol.s
    n = sampler(step_norm)
    pair = estimate_pair(oracle, state.x, trial, n, n)
    ratio = rho(pair.est_current, pair.est_trial, cfg.theta, step_norm)
    success = ratio >= 1.0

    record = IterationRecord(
        k=state.k,
        success=success,
        delta=delta,
        step_norm=step_norm,
        f_true_current=pair.f_true_current,
        est_current=pair.est_current,
        est_trial=pair.est_trial,
        samples_current=pair.samples_current + stencil_samples,
        samples_trial=pair.samples_trial,
        x=state.x.copy(),
        direction=model.g,
        step=sol.s,
    )
    new_state = TrustRegionState(
        x=trial if success else state.x,
        delta=min(cfg.delta_max, cfg.tau_bar * delta) if success else (1.0 - cfg.tau) * delta,
        k=state.k + 1,
        cum_delta_sq=state.cum_delta_sq + delta * delta,
    )
    return new_state, record


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
    start = _finite_start(problem, x0)
    if gen.dimension != problem.dimension:
        raise ValueError("direction generator dimension does not match the problem")
    oracle = StochasticOracle(problem, noise, seed)
    if sampler is None:
        k_f = cfg.theta * curvature_floor(cfg) * (2.0 - cfg.tau) / 16.0
        sampler = default_sample_policy(noise, k_f)
    state = TrustRegionState(x=start, delta=float(cfg.delta0))
    records: list[IterationRecord] = []
    for _ in range(cfg.max_iters):
        if state.delta < delta_floor:
            break
        state, record = tr_step(state, cfg, gen, oracle, sampler)
        records.append(record)
    return state, records
