"""Benchmark problem registry contents, declared optima and row-wise objectives."""

import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sdfo import get_problem, list_problems
from sdfo.problems import PROBLEMS
from sdfo.problems import TestProblem as Problem
from sdfo.stats import sum_of_squares


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
    ("sphere", 0, "dimension must be an integer >= 1, got 0"),
    ("rosenbrock", 0, "dimension must be an integer >= 1, got 0"),
    # True used to give a problem of dimension True, and 2.0 a TypeError.
    ("sphere", True, "dimension must be an integer >= 1, got True"),
    ("sphere", 2.0, "dimension must be an integer >= 1, got 2.0"),
    ("sphere", "2", "dimension must be an integer >= 1, got '2'"),
])
def test_dimension_messages(name, dimension, message):
    with pytest.raises(ValueError, match=message):
        get_problem(name, dimension)


def test_numpy_integer_dimension_is_an_int():
    problem = get_problem("rosenbrock", np.int64(3))
    assert type(problem.dimension) is int and problem == get_problem("rosenbrock", 3)


# The registry objectives as one-point functions of Python floats: the
# reference each row-wise objective must match bit for bit.
def _sphere(x):
    return float(np.add.reduce(x * x))


def _rosenbrock(x):
    return float(np.sum(100.0 * (x[1:] - x[:-1] ** 2) ** 2 + (1.0 - x[:-1]) ** 2))


def _l1norm(x):
    return float(np.abs(x).sum())


def _max_quadratics(x):
    sq = float(np.add.reduce(x * x))
    j = 1 if x.shape[0] >= 2 else 0
    q1 = 0.5 * sq + float(x[0])
    q2 = 0.5 * sq - float(x[0])
    q3 = sq + 0.3 * float(x[j])
    return max(q1, q2, q3)


def _piecewise_linear(x):
    return float(np.max(np.abs(x))) - 1.0


REFERENCE = {
    "sphere": _sphere,
    "rosenbrock": _rosenbrock,
    "l1norm": _l1norm,
    "max_quadratics": _max_quadratics,
    "piecewise_linear": _piecewise_linear,
}

SPECIAL = [0.0, -0.0, 1e154, -1e154, 1e200, 1e300, -1e300, 1.7e308, -1.7e308,
           math.inf, -math.inf, math.nan, 5e-324]
COORDINATE = st.one_of(st.floats(-10.0, 10.0), st.sampled_from(SPECIAL), st.floats())


def _kinds(call):
    """``call()`` and the kinds ("overflow", "invalid", ...) of the RuntimeWarnings it raised."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        value = call()
    return value, {str(w.message).split()[0] for w in caught if issubclass(w.category, RuntimeWarning)}


def _bits(values):
    return np.asarray(values, dtype=float).view(np.int64)


VIEWS = {
    "contiguous": lambda block, rows, d: np.ascontiguousarray(block[:rows, :d]),
    "every_other_row_and_column": lambda block, rows, d: block[::2, ::2],
    "odd_rows_and_columns": lambda block, rows, d: block[1::2, 1::2],
    "reversed": lambda block, rows, d: block[:rows, :d][::-1, ::-1],
    "fortran": lambda block, rows, d: np.asfortranarray(block[:rows, :d]),
}


@st.composite
def square_blocks(draw):
    """A ``(2 N, 2 d)`` float block with inf and NaN entries, and N and d.

    d reaches past 128, where numpy's pairwise sum splits its blocks.
    """
    rows, d = draw(st.integers(1, 40)), draw(st.integers(1, 300))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    block = rng.standard_normal((2 * rows, 2 * d)) * draw(st.sampled_from([1.0, 1e-160, 1e150]))
    spots = st.tuples(
        st.integers(0, 2 * rows - 1),
        st.integers(0, 2 * d - 1),
        st.sampled_from([math.inf, -math.inf, math.nan, 1e300]),
    )
    for i, j, value in draw(st.lists(spots, max_size=6)):
        block[i, j] = value
    return block, rows, d


@pytest.mark.parametrize("view", VIEWS)
@settings(derandomize=True, max_examples=60, deadline=None)
@given(square_blocks())
def test_sum_of_squares_of_a_stack_is_each_rows_bit_for_bit(view, block_rows_d):
    # The batched step norms and the row-wise objectives rest on this.
    stack = VIEWS[view](*block_rows_d)
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        got = sum_of_squares(stack)
        expected = [sum_of_squares(row) for row in stack]
    assert got.shape == (len(stack),)
    assert np.array_equal(_bits(got), _bits(expected))


@pytest.mark.parametrize("name", sorted(PROBLEMS))
@settings(max_examples=60, deadline=None)
@given(data=st.data(), d=st.integers(1, 50), rows=st.integers(1, 3))
def test_row_form_is_the_scalar_objective_bit_for_bit(name, data, d, rows):
    objective, _, _, smallest = PROBLEMS[name]
    d = max(d, smallest)
    # A (2 rows, 2 d) block: its contiguous head and its every-other row and
    # column view, so rows are both contiguous and strided.
    values = data.draw(st.lists(COORDINATE, min_size=4 * rows * d, max_size=4 * rows * d))
    block = np.array(values).reshape(2 * rows, 2 * d)
    for stack in (np.ascontiguousarray(block[:rows, :d]), block[::2, ::2], block[1::2, 1::2]):
        expected, expected_kinds = _kinds(lambda: [REFERENCE[name](row) for row in stack])
        got, got_kinds = _kinds(lambda: objective(stack))
        assert got.shape == (rows,)
        assert np.array_equal(_bits(got), _bits(expected))
        assert got_kinds <= expected_kinds
        point, point_kinds = _kinds(lambda: objective(stack[0]))
        assert np.ndim(point) == 0
        assert _bits(point) == _bits(expected[0])
        assert point_kinds <= expected_kinds


@pytest.mark.parametrize("name", sorted(PROBLEMS))
def test_row_form_on_special_points(name):
    # In max_quadratics, max(q1, q2, q3) keeps a NaN that comes first and
    # passes over a later one; these points put NaN in q1, q2 and q3 alone
    # and together, and overflow each of them.
    objective = PROBLEMS[name][0]
    stack = np.array([[math.inf, -math.inf], [-math.inf, math.inf], [math.inf, math.nan],
                      [1e308, 1e308], [-1e308, -1e308], [0.0, -0.0], [math.nan, 1.0]])
    expected, expected_kinds = _kinds(lambda: [REFERENCE[name](row) for row in stack])
    got, got_kinds = _kinds(lambda: objective(stack))
    assert np.array_equal(_bits(got), _bits(expected))
    assert got_kinds <= expected_kinds


def test_registry_problems_evaluate_rows_in_one_call():
    for name, (objective, _, _, smallest) in PROBLEMS.items():
        prob = get_problem(name, smallest + 2)
        assert prob.eval_true is objective
        stack = np.random.default_rng(3).uniform(-2.0, 2.0, (5, smallest + 2))
        # A Fortran-ordered stack is evaluated as its C-ordered copy.
        for points in (stack, np.asfortranarray(stack)):
            assert np.array_equal(prob.true_values(points), [prob.eval_true(row) for row in stack])


def _counted(shapes, f):
    def counted(x):
        shapes.append(x.shape)
        return f(x)

    return counted


def test_custom_problem_is_evaluated_point_by_point():
    shapes = []
    prob = Problem(dimension=3, eval_true=_counted(shapes, lambda x: float(x.sum())))
    values = prob.true_values(np.arange(12.0).reshape(4, 3))
    assert values.tolist() == [3.0, 12.0, 21.0, 30.0]
    assert shapes == [(3,)] * 4


def test_replaced_objective_of_a_registry_problem_is_evaluated():
    # Row-wise evaluation follows eval_true itself: a registry problem whose
    # objective is swapped evaluates the new one, point by point.
    shapes = []
    prob = dataclasses.replace(get_problem("sphere", 2), eval_true=_counted(shapes, lambda x: float(x[0])))
    assert prob.true_values(np.array([[1.0, 5.0], [-2.0, 7.0]])).tolist() == [1.0, -2.0]
    assert shapes == [(2,), (2,)]
