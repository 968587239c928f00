"""Stochastic direct search with a sufficient-decrease acceptance test.

Each iteration samples one unit direction, estimates the objective at the
current point and at the trial point one stepsize away, and accepts when
the estimated decrease reaches ``theta * delta**2``.  Successful steps
expand the stepsize by ``tau_bar``; unsuccessful ones contract it by
``1 - tau``.
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
    default_sample_policy,
    estimate_pair,
)
from .problems import TestProblem
from .trace import IterationRecord

DEFAULT_DELTA_FLOOR = 1e-8


def _finite_start(problem: TestProblem, x0) -> np.ndarray:
    """``x0`` as a checked point of ``problem``; a run cannot start from a
    non-finite point or a point with a non-finite objective value."""
    start = problem.check_point(x0)
    if not np.all(np.isfinite(start)):
        raise ValueError(f"x0 must be finite, got {start.tolist()}")
    f0 = float(problem.eval_true(start))
    if not math.isfinite(f0):
        raise ValueError(f"f(x0) must be finite, got {f0}")
    return start


def _resolve_theta(theta: float | None, eps_f_hint: float | None, bound: float) -> float:
    if theta is not None:
        return float(theta)
    if eps_f_hint is None or eps_f_hint <= 0.0:
        raise ValueError("theta omitted: a positive eps_f_hint is required to derive it")
    return 1.1 * bound


@dataclass(frozen=True)
class DirectSearchConfig:
    delta0: float
    tau: float
    tau_bar: float
    max_iters: int
    theta: float | None = None
    eps_f_hint: float | None = None

    def __post_init__(self) -> None:
        if self.delta0 <= 0.0:
            raise ValueError("delta0 must be positive")
        if not 0.0 < self.tau < 1.0:
            raise ValueError(f"tau must lie in (0, 1), got {self.tau}")
        if not 1.0 <= self.tau_bar <= 1.0 + self.tau:
            raise ValueError(f"tau_bar must lie in [1, 1 + tau], got {self.tau_bar}")
        if self.max_iters < 0:
            raise ValueError("max_iters must be nonnegative")
        if self.eps_f_hint is not None and self.eps_f_hint < 0.0:
            raise ValueError("eps_f_hint must be nonnegative")
        if self.theta is None:
            bound = 4.0 * (self.eps_f_hint or 0.0) / (2.0 - self.tau)
            object.__setattr__(
                self, "theta", _resolve_theta(None, self.eps_f_hint, bound)
            )
        elif self.theta <= 0.0:
            raise ValueError("theta must be positive")


@dataclass(frozen=True)
class DirectSearchState:
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


def validate_theta(cfg: DirectSearchConfig) -> ThetaVerdict:
    """Check ``theta > 4 eps_f / (2 - tau)`` for the declared tail constant."""
    if cfg.eps_f_hint is None:
        raise ValueError("validate_theta requires eps_f_hint")
    bound = 4.0 * cfg.eps_f_hint / (2.0 - cfg.tau)
    if cfg.theta > bound:
        return ThetaVerdict(True, cfg.theta, bound, "theta exceeds the admissibility bound")
    return ThetaVerdict(
        False,
        cfg.theta,
        bound,
        f"theta={cfg.theta} does not exceed the minimal admissible value {bound}",
    )


def ds_step(
    state: DirectSearchState,
    cfg: DirectSearchConfig,
    gen: DirectionGenerator,
    oracle: StochasticOracle,
    sampler: SamplePolicy,
) -> tuple[DirectSearchState, IterationRecord]:
    """One direct-search iteration: sample a direction, test, update."""
    direction = gen.next_direction()
    delta = state.delta
    step = delta * direction
    trial = state.x + step
    n = sampler(delta)
    pair = estimate_pair(oracle, state.x, trial, n, n)
    success = pair.est_current - pair.est_trial >= cfg.theta * delta * delta

    record = IterationRecord(
        k=state.k,
        success=success,
        delta=delta,
        step_norm=float(np.linalg.norm(step)),
        f_true_current=pair.f_true_current,
        est_current=pair.est_current,
        est_trial=pair.est_trial,
        samples_current=pair.samples_current,
        samples_trial=pair.samples_trial,
        x=state.x.copy(),
        direction=direction,
        step=step,
    )
    new_state = DirectSearchState(
        x=trial if success else state.x,
        delta=cfg.tau_bar * delta if success else (1.0 - cfg.tau) * delta,
        k=state.k + 1,
        cum_delta_sq=state.cum_delta_sq + delta * delta,
    )
    return new_state, record


def ds_run(
    cfg: DirectSearchConfig,
    problem: TestProblem,
    noise: NoiseModel,
    gen: DirectionGenerator,
    x0,
    seed: int = 0,
    sampler: SamplePolicy | None = None,
    delta_floor: float = DEFAULT_DELTA_FLOOR,
) -> tuple[DirectSearchState, list[IterationRecord]]:
    """Run direct search from ``x0`` until ``max_iters`` or the stepsize floor.

    The run is deterministic given the oracle seed and the generator state.
    When ``sampler`` is omitted, the per-iteration count follows the
    declared noise statistics with ``k_f = theta (2 - tau) / 16`` (so the
    derived tail constant satisfies the theta bound with a factor-2 margin).
    """
    start = _finite_start(problem, x0)
    if gen.dimension != problem.dimension:
        raise ValueError("direction generator dimension does not match the problem")
    oracle = StochasticOracle(problem, noise, seed)
    if sampler is None:
        k_f = cfg.theta * (2.0 - cfg.tau) / 16.0
        sampler = default_sample_policy(noise, k_f)
    state = DirectSearchState(x=start, delta=float(cfg.delta0))
    records: list[IterationRecord] = []
    for _ in range(cfg.max_iters):
        if state.delta < delta_floor:
            break
        state, record = ds_step(state, cfg, gen, oracle, sampler)
        records.append(record)
    return state, records
