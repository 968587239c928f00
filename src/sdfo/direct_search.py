"""Stochastic direct search: the zero-model case of the shared iteration.

Each iteration samples one unit direction ``d`` and proposes the step
``delta * d``.  ``trust_region.iterate`` estimates the objective at the
current and the trial point and accepts when the estimated decrease
reaches ``theta * delta**2``.  Successful steps expand the stepsize by
``tau_bar``; unsuccessful ones contract it by ``1 - tau``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .directions import DirectionGenerator
from .oracle import NoiseModel, SamplePolicy
from .problems import TestProblem
from .trace import IterationRecord
from .trust_region import (
    DEFAULT_DELTA_FLOOR,
    TrustRegionState,
    ZeroHessian,
    check_step_config,
    run_steps,
)


@dataclass(frozen=True)
class DirectSearchConfig:
    """Direct-search parameters: no stepsize cap and a zero model matrix."""

    delta_max: ClassVar[float] = math.inf
    hessian_policy: ClassVar[ZeroHessian] = ZeroHessian()

    delta0: float
    tau: float
    tau_bar: float
    max_iters: int
    theta: float | None = None
    eps_f_hint: float | None = None

    def __post_init__(self) -> None:
        check_step_config(self)


def propose_ds(cfg, gen, oracles, sampler, x, radii, fx):
    """Direct-search steps ``delta * d`` along the shared direction, tested at scale ``delta``."""
    direction = gen.next_direction()
    return direction, np.multiply.outer(radii, direction), radii, [0] * len(radii)


def ds_run(
    cfg: DirectSearchConfig,
    problem: TestProblem,
    noise: NoiseModel,
    gen: DirectionGenerator,
    x0,
    seed: int = 0,
    sampler: SamplePolicy | None = None,
    delta_floor: float = DEFAULT_DELTA_FLOOR,
) -> tuple[TrustRegionState, list[IterationRecord]]:
    """Run direct search from ``x0``; deterministic given the oracle seed
    and the generator state.  A one-seed ``trust_region.run_steps``, which
    says when a run stops."""
    (run,) = run_steps(propose_ds, cfg, problem, noise, gen, x0, (seed,), sampler, delta_floor)
    return run
