"""Benchmark problem registry contents and declared optima."""

import numpy as np
import pytest

from sdfo import get_problem, list_problems
from sdfo.problems import PROBLEMS


def test_registry_contents():
    assert list_problems() == (
        "l1norm",
        "max_quadratics",
        "piecewise_linear",
        "rosenbrock",
        "sphere",
    )


def test_unknown_problem_lists_registry():
    with pytest.raises(ValueError, match="l1norm"):
        get_problem("does_not_exist", 2)


def test_rosenbrock_dimension_constraint():
    with pytest.raises(ValueError):
        get_problem("rosenbrock", 1)
    prob = get_problem("rosenbrock", 3)
    assert prob.eval_true(np.ones(3)) == 0.0


@pytest.mark.parametrize("name", ["sphere", "l1norm", "max_quadratics", "piecewise_linear"])
def test_declared_optimum_attained_at_stationary_point(name):
    prob = get_problem(name, 2)
    point = np.asarray(prob.stationary_points[0])
    assert prob.eval_true(point) == prob.optimum_value


@pytest.mark.parametrize(
    "name", ["sphere", "l1norm", "max_quadratics", "piecewise_linear", "rosenbrock"]
)
def test_optimum_is_lower_bound_on_random_points(name):
    prob = get_problem(name, 2)
    rng = np.random.default_rng(1)
    values = [prob.eval_true(rng.uniform(-3, 3, 2)) for _ in range(500)]
    assert min(values) >= prob.optimum_value


def test_eval_true_deterministic():
    prob = get_problem("max_quadratics", 3)
    x = np.array([0.3, -1.2, 0.8])
    assert prob.eval_true(x) == prob.eval_true(x.copy())


def test_values():
    assert get_problem("sphere", 2).eval_true(np.array([1.0, 1.0])) == 2.0
    assert get_problem("l1norm", 2).eval_true(np.array([-1.5, 2.0])) == 3.5
    assert get_problem("piecewise_linear", 3).eval_true(np.array([0.5, -2.0, 1.0])) == 1.0
    # max_quadratics at a kink point: q1 = q2 when x[0] = 0.
    prob = get_problem("max_quadratics", 2)
    assert prob.eval_true(np.array([0.0, 1.0])) == pytest.approx(1.3)


def test_table_rows_build_problems():
    for name, (objective, optimum, coordinate, smallest) in PROBLEMS.items():
        prob = get_problem(name, smallest + 1)
        assert (prob.name, prob.eval_true, prob.optimum_value) == (name, objective, optimum)
        assert prob.stationary_points == ((coordinate,) * (smallest + 1),)
        assert prob.eval_true(np.asarray(prob.stationary_points[0])) == optimum
    assert list_problems() == tuple(sorted(PROBLEMS))


@pytest.mark.parametrize(("name", "dimension", "message"), [
    ("rosenbrock", 1, "rosenbrock requires dimension >= 2"),
    ("sphere", 0, "dimension must be >= 1, got 0"),
    ("rosenbrock", 0, "dimension must be >= 1, got 0"),
])
def test_dimension_messages(name, dimension, message):
    with pytest.raises(ValueError, match=message):
        get_problem(name, dimension)
