"""Benchmark objectives with known optima for experiments and diagnostics."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np


@dataclass(frozen=True)
class TestProblem:
    """A deterministic objective used as the ground truth behind a noisy oracle.

    ``eval_true`` must be deterministic.  ``optimum_value`` and
    ``stationary_points`` are populated for benchmark problems where they
    are known; diagnostics that need them raise otherwise.
    """

    dimension: int
    eval_true: Callable[[np.ndarray], float]
    optimum_value: float | None = None
    name: str = ""
    stationary_points: tuple[tuple[float, ...], ...] | None = None

    def __post_init__(self) -> None:
        if self.dimension < 1:
            raise ValueError(f"dimension must be >= 1, got {self.dimension}")

    def check_point(self, x) -> np.ndarray:
        pt = np.asarray(x, dtype=float)
        if pt.shape != (self.dimension,):
            raise ValueError(
                f"point has shape {pt.shape}, expected ({self.dimension},)"
            )
        return pt


def _sphere(x: np.ndarray) -> float:
    return float(x @ x)


def _rosenbrock(x: np.ndarray) -> float:
    return float(np.sum(100.0 * (x[1:] - x[:-1] ** 2) ** 2 + (1.0 - x[:-1]) ** 2))


def _l1norm(x: np.ndarray) -> float:
    return float(np.abs(x).sum())


def _max_quadratics(x: np.ndarray) -> float:
    # Three convex quadratics whose pointwise max has a kink through the
    # origin; the global minimizer is exactly 0 with value 0.
    sq = float(x @ x)
    j = 1 if x.shape[0] >= 2 else 0
    q1 = 0.5 * sq + float(x[0])
    q2 = 0.5 * sq - float(x[0])
    q3 = sq + 0.3 * float(x[j])
    return max(q1, q2, q3)


def _piecewise_linear(x: np.ndarray) -> float:
    # max_i(+/- x_i - 1) = ||x||_inf - 1: piecewise linear, minimum -1 at 0.
    return float(np.max(np.abs(x))) - 1.0


# name -> (objective, optimum value, coordinate of the stationary point
# (c, ..., c), smallest dimension).
PROBLEMS: dict[str, tuple[Callable[[np.ndarray], float], float, float, int]] = {
    "sphere": (_sphere, 0.0, 0.0, 1),
    "rosenbrock": (_rosenbrock, 0.0, 1.0, 2),
    "l1norm": (_l1norm, 0.0, 0.0, 1),
    "max_quadratics": (_max_quadratics, 0.0, 0.0, 1),
    "piecewise_linear": (_piecewise_linear, -1.0, 0.0, 1),
}


def list_problems() -> tuple[str, ...]:
    return tuple(sorted(PROBLEMS))


def get_problem(name: str, dimension: int) -> TestProblem:
    try:
        objective, optimum, coordinate, smallest = PROBLEMS[name]
    except KeyError:
        known = ", ".join(list_problems())
        raise ValueError(f"unknown problem {name!r}; registry contains: {known}") from None
    problem = TestProblem(
        dimension=dimension,
        eval_true=objective,
        optimum_value=optimum,
        name=name,
        stationary_points=((coordinate,) * dimension,),
    )
    if dimension < smallest:
        raise ValueError(f"{name} requires dimension >= {smallest}")
    return problem
