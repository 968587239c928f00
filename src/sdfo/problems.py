"""Benchmark objectives with known optima for experiments and diagnostics.

Each registry objective is written once, row-wise over the last axis: the
same function takes one point ``(d,)`` to a 0-d value and an ``(N, d)``
stack to ``N`` values, each bit-identical to the one-point call.  Use
numpy operations that act per row, such as ``stats.sum_of_squares(x)``,
``reduce(..., axis=-1)``, ``x[..., i]`` and ``np.where`` in place of
Python's ``max``.  ``sum_of_squares`` makes no BLAS call, so the values
are the same on every CPU.  ``TestProblem.true_values`` evaluates a whole
stack in one call when ``eval_true`` is an objective of the ``PROBLEMS``
table, and point by point otherwise: a custom ``TestProblem``, or a
registry problem whose ``eval_true`` was replaced, needs no row form.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .stats import check_integer, sum_of_squares


@dataclass(frozen=True)
class TestProblem:
    """A deterministic objective used as the ground truth behind a noisy oracle.

    ``eval_true`` must be deterministic, and safe to call from several
    threads at once: once a run batch goes apart (``trust_region.run_steps``)
    its seeds evaluate f on up to one thread per usable CPU.  The
    ``PROBLEMS`` objectives are numpy code that keeps no state.
    ``optimum_value`` and ``stationary_points`` are populated for benchmark
    problems where they are known; diagnostics that need them raise
    otherwise.
    """

    dimension: int
    eval_true: Callable[[np.ndarray], float]
    optimum_value: float | None = None
    name: str = ""
    stationary_points: tuple[tuple[float, ...], ...] | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "dimension", check_integer("dimension", self.dimension))
        object.__setattr__(self, "_row_wise", any(self.eval_true is row[0] for row in PROBLEMS.values()))

    def check_point(self, x) -> np.ndarray:
        pt = np.asarray(x, dtype=float)
        if pt.shape != (self.dimension,):
            raise ValueError(
                f"point has shape {pt.shape}, expected ({self.dimension},)"
            )
        return pt

    def true_values(self, points: np.ndarray) -> np.ndarray:
        """``(N,)`` true values at the rows of an ``(N, d)`` float stack.

        One ``eval_true`` call on the C-contiguous stack when ``eval_true``
        is a row-wise ``PROBLEMS`` objective, else one call per row.
        """
        if self._row_wise:
            return self.eval_true(np.ascontiguousarray(points))
        return np.array([float(self.eval_true(point)) for point in points])


def _sphere(x: np.ndarray) -> np.ndarray:
    return sum_of_squares(x)


def _rosenbrock(x: np.ndarray) -> np.ndarray:
    head = x[..., :-1]
    return np.sum(100.0 * (x[..., 1:] - head**2) ** 2 + (1.0 - head) ** 2, axis=-1)


def _l1norm(x: np.ndarray) -> np.ndarray:
    return np.abs(x).sum(axis=-1)


def _max_quadratics(x: np.ndarray) -> np.ndarray:
    # Three convex quadratics whose pointwise max has a kink through the
    # origin; the global minimizer is exactly 0 with value 0.
    sq = sum_of_squares(x)
    j = 1 if x.shape[-1] >= 2 else 0
    # Python float arithmetic, which overflows to inf and makes NaN silently.
    with np.errstate(over="ignore", invalid="ignore"):
        q1 = 0.5 * sq + x[..., 0]
        q2 = 0.5 * sq - x[..., 0]
        q3 = sq + 0.3 * x[..., j]
    # max(q1, q2, q3): a later value wins only when it compares greater, so
    # a NaN is kept when it comes first and passed over after.
    m = np.where(q2 > q1, q2, q1)
    return np.where(q3 > m, q3, m)[()]


def _piecewise_linear(x: np.ndarray) -> np.ndarray:
    # max_i(+/- x_i - 1) = ||x||_inf - 1: piecewise linear, minimum -1 at 0.
    return np.abs(x).max(axis=-1) - 1.0


# name -> (row-wise objective, optimum value, coordinate of the stationary
# point (c, ..., c), smallest dimension).
PROBLEMS: dict[str, tuple[Callable[[np.ndarray], np.ndarray], float, float, int]] = {
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
    dimension = check_integer("dimension", dimension)
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
