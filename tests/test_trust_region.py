"""Trust-region stepping, model construction and radius law."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sdfo import (
    DirectionGenerator,
    FixedCycle,
    NoiseModel,
    QuasiRandomSphere,
    RegressionClipped,
    StochasticOracle,
    TrustRegionConfig,
    ds_run,
    fixed_sample_policy,
    get_problem,
    tr_run,
    validate_theta_tr,
)
from sdfo.direct_search import DirectSearchConfig
from sdfo.oracle import CHUNK_DRAWS
from sdfo.problems import PROBLEMS
from sdfo.problems import TestProblem as Problem
from sdfo.subproblem import QuadraticModel, solve_exact
from sdfo.trace import IterationRecord
from sdfo.trust_region import curvature_floor, iterate, propose_tr, stencil_models

def reference_estimate(oracle, x, n):
    """One estimate as a single draw call and mean."""
    value = float(oracle.problem.eval_true(oracle.problem.check_point(x)))
    oracle.draws += n
    if oracle.noise.kind == "none":
        return value
    return float(np.mean(value + oracle.noise.draw(oracle._rng, n)))


def reference_stencil_model(x, delta, gen, oracle, policy, sampler):
    """The stencil model as a loop of 2d + 1 single-point estimates: its
    direction, clipped curvature and samples."""
    direction = gen.next_direction()
    n = x.shape[0]
    n_sten = sampler(delta)
    center = reference_estimate(oracle, x, n_sten)
    curvature = np.zeros(n)
    for i in range(n):
        offset = np.zeros(n)
        offset[i] = delta
        plus = reference_estimate(oracle, x + offset, n_sten)
        minus = reference_estimate(oracle, x - offset, n_sten)
        curvature[i] = (plus - 2.0 * center + minus) / (delta * delta)
    hi = policy.M * delta ** (-policy.q)
    lo = -policy.m * delta ** (-policy.q)
    return direction, np.clip(curvature, lo, hi), (2 * n + 1) * n_sten


PARABOLA = Problem(dimension=1, eval_true=lambda x: float(x[0] ** 2), name="parabola")


def one_sample(delta):
    return 1


def stencil_model(x, delta, gen, oracle, policy, sampler):
    """One seed's model around the generator's next direction: the
    direction, its ``stencil_models`` curvature row and samples."""
    (curvature,), (used,) = stencil_models([oracle], policy, x[None], [delta], sampler)
    return gen.next_direction(), curvature, used


def one_step(cfg, gen, oracle, x, delta):
    """One ``iterate`` of a single seed: its trace record, new iterate and new radius."""
    (row,), _, _, new_x, (new_delta,), _ = iterate(
        propose_tr, cfg, gen, [oracle], one_sample, np.array([x]), [delta], None, 0
    )
    return IterationRecord(*row), new_x[0], new_delta


def tr_cfg(**kw):
    base = dict(delta0=1.0, delta_max=2.0, tau=0.5, tau_bar=1.25, max_iters=10, theta=1.0)
    base.update(kw)
    return TrustRegionConfig(**base)


class TestConfig:
    def test_delta_max_floor(self):
        with pytest.raises(ValueError):
            tr_cfg(delta_max=0.5)

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            RegressionClipped(q=1.5, m=1.0, M=1.0)
        with pytest.raises(ValueError):
            RegressionClipped(q=0.5, m=-1.0, M=1.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
    def test_policy_rejects_non_finite(self, bad):
        for kw in ({"q": bad}, {"m": bad}, {"M": bad}):
            with pytest.raises(ValueError):
                RegressionClipped(**{"q": 0.5, "m": 1.0, "M": 1.0, **kw})

    @pytest.mark.parametrize(
        "M,delta_max",
        [(1e200, 2.0), (1e-160, 1e300), (1e150, 1e10)],
        ids=["M_squared_overflows", "delta_power_overflows", "product_overflows"],
    )
    def test_config_needs_positive_curvature_floor(self, M, delta_max):
        # M = 1e200 used to raise OverflowError from M**2 in curvature_floor.
        policy = RegressionClipped(q=0.05, m=1.0, M=M)
        with pytest.raises(ValueError, match="no positive curvature floor"):
            tr_cfg(hessian_policy=policy, delta_max=delta_max, theta=None, eps_f_hint=1.0)
        with pytest.raises(ValueError, match="no positive curvature floor"):
            tr_cfg(hessian_policy=policy, delta_max=delta_max)

    def test_theta_default_uses_curvature_floor(self):
        cfg = tr_cfg(
            theta=None,
            eps_f_hint=1.0,
            hessian_policy=RegressionClipped(q=0.5, m=2.0, M=2.0),
            delta_max=4.0,
        )
        floor = curvature_floor(cfg)
        assert floor == pytest.approx(min(1.0, 1.0 / (4.0 * 4.0)))
        assert cfg.theta == pytest.approx(1.1 * 4.0 / (floor * 1.5))


class TestValidateThetaTr:
    def test_unit_floor_case(self):
        cfg = tr_cfg(
            theta=5.0,
            eps_f_hint=1.0,
            delta0=1.0,
            delta_max=1.0,
            hessian_policy=RegressionClipped(q=0.5, m=1.0, M=1.0),
        )
        verdict = validate_theta_tr(cfg)
        assert verdict.ok and verdict.bound == pytest.approx(8.0 / 3.0)

    def test_small_floor_warns(self):
        cfg = tr_cfg(
            theta=5.0,
            eps_f_hint=1.0,
            delta0=1.0,
            delta_max=1.0,
            hessian_policy=RegressionClipped(q=0.5, m=2.0, M=2.0),
        )
        verdict = validate_theta_tr(cfg)
        assert not verdict.ok
        assert verdict.bound == pytest.approx(32.0 / 3.0)

    def test_zero_tail_constant(self):
        cfg = tr_cfg(theta=1e-6, eps_f_hint=0.0)
        assert validate_theta_tr(cfg).ok


class TestBuildModel:
    def test_zero_policy(self):
        # A zero model matrix needs no stencil: its minimizer is -delta * g.
        oracle = StochasticOracle(get_problem("sphere", 2), NoiseModel.none())
        gen = DirectionGenerator(2, QuasiRandomSphere())
        direction, step, scales, used = propose_tr(
            tr_cfg(), gen, [oracle], one_sample, np.zeros((1, 2)), [0.7], None
        )
        assert np.array_equal(step, [-0.7 * direction])
        assert scales is None
        assert used == [0]
        assert oracle.draws == 0

    @pytest.mark.parametrize(
        "diag", [(2.0, 8.0), (-3.0, 1.5), (0.0, 4.0)], ids=["pd", "indef", "psd"]
    )
    def test_regression_recovers_diagonal_quadratic(self, diag):
        # Zero noise: central differences on a quadratic are exact, so the
        # fitted matrix matches the clipped true Hessian.
        a = np.array(diag)

        def quad(x):
            return float(0.5 * np.sum(a * x * x))

        prob = Problem(dimension=2, eval_true=quad, name="quad")
        oracle = StochasticOracle(prob, NoiseModel.none())
        gen = DirectionGenerator(2, QuasiRandomSphere())
        policy = RegressionClipped(q=0.5, m=10.0, M=10.0)
        _, curvature, used = stencil_model(np.array([0.4, -0.2]), 0.05, gen, oracle, policy, one_sample)
        assert used == 5
        assert np.allclose(curvature, a, atol=1e-7)

    @pytest.mark.parametrize("d", [2, 3, 20])
    @pytest.mark.parametrize(
        "noise",
        [NoiseModel.none(), NoiseModel.gaussian(0.01), NoiseModel.student_t(3.0),
         NoiseModel.student_t(1.5), NoiseModel.pareto_symmetric(1.5)],
        ids=["none", "gaussian", "t3", "t1.5", "pareto1.5"],
    )
    def test_stencil_matches_point_loop_bit_for_bit(self, d, noise):
        problem = get_problem("rosenbrock", d)
        policy = RegressionClipped(q=0.5, m=10.0, M=10.0)
        a = StochasticOracle(problem, noise, seed=4)
        b = StochasticOracle(problem, noise, seed=4)
        gen_a = DirectionGenerator(d, QuasiRandomSphere())
        gen_b = DirectionGenerator(d, QuasiRandomSphere())
        rng = np.random.default_rng(d)
        for delta, n in ((1.0, 1), (0.3, 4), (0.05, 25), (0.01, 700)):
            x = rng.uniform(-1.5, 1.5, d)
            g, curvature, used = stencil_model(x, delta, gen_a, a, policy, fixed_sample_policy(n))
            ref_g, ref, ref_used = reference_stencil_model(x, delta, gen_b, b, policy, fixed_sample_policy(n))
            assert np.array_equal(curvature, ref)
            assert np.array_equal(g, ref_g)
            assert used == ref_used == (2 * d + 1) * n
        assert a.draws == b.draws
        assert a._rng.random() == b._rng.random()

    def test_known_centre_values_are_not_evaluated_again(self):
        calls = []

        def counted(x):
            calls.append(1)
            return float(x @ x)

        d = 3
        problem = Problem(dimension=d, eval_true=counted, name="counted_sphere")
        policy = RegressionClipped(q=0.5, m=10.0, M=10.0)
        x = np.random.default_rng(7).uniform(-1.5, 1.5, (2, d))
        radii = [0.3, 0.05]
        oracles = [StochasticOracle(problem, NoiseModel.gaussian(1.0), seed=s) for s in range(2)]
        curvature, used = stencil_models(oracles, policy, x, radii, fixed_sample_policy(4), [float(p @ p) for p in x])
        assert len(calls) == 2 * 2 * d
        for s in range(2):
            alone = StochasticOracle(problem, NoiseModel.gaussian(1.0), seed=s)
            ref = reference_stencil_model(x[s], radii[s], DirectionGenerator(d, QuasiRandomSphere()), alone, policy,
                                          fixed_sample_policy(4))[1]
            assert curvature[s].tobytes() == ref.tobytes()
        assert used == [(2 * d + 1) * 4] * 2

    @pytest.mark.parametrize(
        "counts",
        [[2.5, 2.5], [True, True], [4, 0], [4, -1], [4.0, 4], ["4", 4], [4, None]],
        ids=["fraction", "bool", "zero", "negative", "float", "str", "none"],
    )
    def test_bad_counts_leave_the_streams_and_draws_unmoved(self, counts):
        problem = get_problem("sphere", 2)
        policy = RegressionClipped(q=0.5, m=10.0, M=10.0)
        oracles = [StochasticOracle(problem, NoiseModel.gaussian(1.0), seed=s) for s in range(2)]
        sampler = {0.5: counts[0], 0.25: counts[1]}.get
        with pytest.raises(ValueError, match=r"^sample count at scale 0\.\d+ must be an integer >= 1, got "):
            stencil_models(oracles, policy, np.zeros((2, 2)), [0.5, 0.25], sampler)
        for s, oracle in enumerate(oracles):
            assert oracle.draws == 0
            assert oracle._rng.random() == StochasticOracle(problem, NoiseModel.gaussian(1.0), seed=s)._rng.random()

    def test_numpy_integer_counts_are_whole_counts(self):
        problem = get_problem("sphere", 3)
        policy = RegressionClipped(q=0.5, m=10.0, M=10.0)
        x = np.random.default_rng(8).uniform(-1.5, 1.5, (2, 3))
        batch = [StochasticOracle(problem, NoiseModel.gaussian(1.0), seed=s) for s in (0, 1)]
        alone = [StochasticOracle(problem, NoiseModel.gaussian(1.0), seed=s) for s in (0, 1)]
        numpy_counts = {0.5: np.int64(4), 0.25: np.int32(CHUNK_DRAWS + 1)}.get
        python_counts = {0.5: 4, 0.25: CHUNK_DRAWS + 1}.get
        curvature, used = stencil_models(batch, policy, x, [0.5, 0.25], numpy_counts)
        assert curvature.tobytes() == stencil_models(alone, policy, x, [0.5, 0.25], python_counts)[0].tobytes()
        assert [(type(n), n) for n in used] == [(int, 7 * 4), (int, 7 * (CHUNK_DRAWS + 1))]
        assert [(type(o.draws), o.draws) for o in batch] == [(int, 7 * 4), (int, 7 * (CHUNK_DRAWS + 1))]

    def test_clipping_enforces_eigen_bounds(self):
        a = np.array([50.0, -50.0])

        def quad(x):
            return float(0.5 * np.sum(a * x * x))

        prob = Problem(dimension=2, eval_true=quad, name="steep")
        oracle = StochasticOracle(prob, NoiseModel.none())
        gen = DirectionGenerator(2, QuasiRandomSphere())
        policy = RegressionClipped(q=0.5, m=2.0, M=3.0)
        delta = 0.25
        _, curvature, _ = stencil_model(np.array([0.1, 0.1]), delta, gen, oracle, policy, one_sample)
        # The diagonal model's eigenvalues: its curvature in ascending order.
        w = np.sort(curvature)
        assert w[-1] <= policy.M * delta ** (-policy.q) + 1e-10
        assert -w[0] <= policy.m * delta ** (-policy.q) + 1e-10
        # Both bounds actually bind for this curvature.
        assert w[-1] == pytest.approx(3.0 * delta**-0.5)
        assert w[0] == pytest.approx(-2.0 * delta**-0.5)


    def test_all_zero_curvature_is_a_linear_step(self):
        # l1norm is linear away from its kinks; with dyadic coordinates the
        # noiseless central differences are exactly zero, so the model is
        # linear and its minimizer -delta * g, after a full stencil.
        d, delta = 3, 0.25
        oracle = StochasticOracle(get_problem("l1norm", d), NoiseModel.none())
        gen = DirectionGenerator(d, QuasiRandomSphere())
        cfg = tr_cfg(hessian_policy=RegressionClipped(q=0.5, m=10.0, M=10.0))
        x = np.array([[1.0, 2.0, -1.5]])
        direction, step, scales, used = propose_tr(
            cfg, gen, [oracle], fixed_sample_policy(4), x, [delta], None
        )
        assert np.array_equal(step, [-delta * direction])
        assert scales is None
        assert used == [(2 * d + 1) * 4]


@st.composite
def diagonal_batches(draw):
    """A shared unit direction and a few seeds' curvature rows and radii.

    Values come from a small pool as often as not, so ties, zeros and
    negative curvature are common.  The first row may be made nonnegative,
    a row may be all zero, and the direction may vanish on the first
    row's lowest entries when they are not positive: the hard case.
    """
    n = draw(st.integers(1, 25))
    pool = st.sampled_from([-5.0, -1.0, -0.25, 0.0, 0.0, 0.5, 1.0, 3.0])
    row = st.lists(pool | st.floats(-10.0, 10.0), min_size=n, max_size=n)
    curvature = np.array(draw(st.lists(row, min_size=1, max_size=3)))
    if draw(st.booleans()):
        curvature[0] = np.abs(curvature[0])
    if draw(st.booleans()):
        curvature[draw(st.integers(0, len(curvature) - 1))] = 0.0
    g = np.array(draw(st.lists(pool | st.floats(-1.0, 1.0), min_size=n, max_size=n)))
    if draw(st.booleans()) and curvature[0].min() <= 0.0:
        g[curvature[0] == curvature[0].min()] = 0.0
    if np.linalg.norm(g) < 1e-3:
        g = np.eye(n)[draw(st.integers(0, n - 1))]
    g /= np.linalg.norm(g)
    radii = draw(st.lists(st.floats(0.05, 20.0), min_size=len(curvature), max_size=len(curvature)))
    return curvature, g, radii


class TestDiagonalSolve:
    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(diagonal_batches())
    def test_step_equals_dense_solve_exact(self, batch):
        # Equal values, compared with == rather than by bytes: the dense
        # path's Q @ coef turns a -0.0 into +0.0.
        curvature, g, radii = batch
        counts = [0] * len(radii)
        cfg = tr_cfg(hessian_policy=RegressionClipped(q=0.5, m=10.0, M=10.0))
        gen = DirectionGenerator(g.size, FixedCycle([g]))
        # A tiny positive curvature overflows the Newton point to inf on both paths.
        with np.errstate(over="ignore"), mock.patch(
            "sdfo.trust_region.stencil_models", return_value=(curvature, counts)
        ):
            _, steps, _, _ = propose_tr(
                cfg, gen, [None] * len(radii), one_sample, np.zeros(curvature.shape), radii, None
            )
            for step, c, r in zip(steps, curvature, radii):
                assert np.array_equal(step, solve_exact(QuadraticModel(g, np.diag(c), r)).s)


class TestStep:
    def test_successful_step_arithmetic(self):
        # f(x)=x^2 at x=1, B=0, g=+1 so s=-delta*g=-0.5: decrease 0.75,
        # 0.75 >= theta * ||s||^2 = 0.25.
        cfg = tr_cfg(theta=1.0, delta_max=2.0)
        oracle = StochasticOracle(PARABOLA, NoiseModel.none())
        gen = DirectionGenerator(1, FixedCycle([(1.0,)]))
        rec, x, delta = one_step(cfg, gen, oracle, [1.0], 0.5)
        assert rec.success
        assert x[0] == 0.5
        assert delta == min(2.0, 1.25 * 0.5)
        assert rec.step_norm == 0.5

    def test_radius_cap_binds(self):
        cfg = tr_cfg(theta=0.1, delta_max=1.0, delta0=1.0)
        oracle = StochasticOracle(PARABOLA, NoiseModel.none())
        gen = DirectionGenerator(1, FixedCycle([(1.0,)]))
        rec, _, delta = one_step(cfg, gen, oracle, [4.0], 1.0)
        assert rec.success
        assert delta == 1.0  # min(delta_max, 1.25) = delta_max

    def test_failure_at_minimizer(self):
        cfg = tr_cfg(theta=1.0)
        oracle = StochasticOracle(PARABOLA, NoiseModel.none())
        gen = DirectionGenerator(1, FixedCycle([(1.0,)]))
        rec, x, delta = one_step(cfg, gen, oracle, [0.0], 0.5)
        assert not rec.success
        assert x[0] == 0.0
        assert delta == 0.25


class TestRun:
    @pytest.mark.parametrize("x0", [(math.nan, 1.0), (1.0, -math.inf)], ids=["nan", "inf"])
    def test_non_finite_start_rejected(self, x0):
        with pytest.raises(ValueError, match="x0 must be finite"):
            tr_run(tr_cfg(), get_problem("sphere", 2), NoiseModel.none(),
                   DirectionGenerator(2, QuasiRandomSphere()), x0)

    def test_non_finite_start_value_rejected(self):
        prob = Problem(dimension=1, eval_true=lambda x: math.inf, name="inf")
        with pytest.raises(ValueError, match=r"f\(x0\) must be finite"):
            tr_run(tr_cfg(), prob, NoiseModel.none(), DirectionGenerator(1, FixedCycle([(1.0,)])), (0.0,))

    def test_nan_stencil_curvature_rejected(self):
        # The first stencil reaches x[0] = 2, where f is NaN.
        prob = Problem(
            dimension=2, eval_true=lambda x: math.nan if x[0] > 1.2 else float(x @ x), name="nan_wall"
        )
        cfg = tr_cfg(hessian_policy=RegressionClipped(q=0.5, m=10.0, M=10.0))
        with pytest.raises(ValueError, match="finite"):
            tr_run(cfg, prob, NoiseModel.none(), DirectionGenerator(2, QuasiRandomSphere()),
                   (1.0, 0.3), sampler=one_sample)

    def test_true_evaluations_per_iteration(self):
        # The d-dimensional stencil evaluates the 2d points x +/- delta e_i
        # and the acceptance pair the trial point; f at the current point
        # (the stencil centre and the trace's f_true_current) is f(x0) from
        # the start check or the last accepted trial value.
        calls = []

        def counted(x):
            calls.append(1)
            return float(x @ x)

        d = 3
        prob = Problem(dimension=d, eval_true=counted, name="counted_sphere")
        cfg = tr_cfg(max_iters=12, hessian_policy=RegressionClipped(q=0.5, m=1.0, M=1.0))
        _, trace = tr_run(
            cfg, prob, NoiseModel.gaussian(0.01), DirectionGenerator(d, QuasiRandomSphere()),
            (1.0, -1.0, 0.5), seed=4, sampler=one_sample, delta_floor=0.0,
        )
        assert len(trace) == 12
        assert len(calls) == 1 + (2 * d + 1) * len(trace)
        for rec in trace:
            assert rec.f_true_current == float(rec.x @ rec.x)

    def test_registry_problem_rows_per_iteration(self, monkeypatch):
        # A registry problem is evaluated row-wise: the same 1 + (2d + 1)K
        # points, counted as rows, in one stencil call and one acceptance
        # call per iteration.
        d = 3
        objective, *rest = PROBLEMS["sphere"]
        shapes = []

        def counted(x):
            shapes.append(x.shape)
            return objective(x)

        monkeypatch.setitem(PROBLEMS, "sphere", (counted, *rest))
        prob = get_problem("sphere", d)
        cfg = tr_cfg(max_iters=12, hessian_policy=RegressionClipped(q=0.5, m=1.0, M=1.0))
        _, trace = tr_run(
            cfg, prob, NoiseModel.gaussian(0.01), DirectionGenerator(d, QuasiRandomSphere()),
            (1.0, -1.0, 0.5), seed=4, sampler=one_sample, delta_floor=0.0,
        )
        assert len(trace) == 12
        assert sum(rows for rows, _ in shapes) == 1 + (2 * d + 1) * len(trace)
        assert shapes == [(1, d)] + [(2 * d, d), (1, d)] * len(trace)
        for rec in trace:
            assert rec.f_true_current == objective(rec.x)

    def test_zero_iterations(self):
        cfg = tr_cfg(max_iters=0)
        prob = get_problem("sphere", 2)
        state, trace = tr_run(
            cfg, prob, NoiseModel.none(), DirectionGenerator(2, QuasiRandomSphere()), (1.0, 1.0)
        )
        assert trace == []
        assert np.array_equal(state.x, np.array([1.0, 1.0]))

    def test_zero_hessian_mirrors_direct_search(self):
        # With B = 0 the step is exactly -delta * g, so feeding the negated
        # direction stream reproduces direct search (radii below the cap).
        prob = get_problem("sphere", 2)
        cycle = [(1.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (0.0, -1.0)]
        neg_cycle = [(-a, -b) for a, b in cycle]
        ds_cfg = DirectSearchConfig(delta0=1.0, tau=0.5, tau_bar=1.25, max_iters=40, theta=0.5)
        _, ds_trace = ds_run(
            ds_cfg, prob, NoiseModel.none(), DirectionGenerator(2, FixedCycle(cycle)),
            (2.0, 2.0), delta_floor=0.0,
        )
        cfg = tr_cfg(theta=0.5, delta_max=64.0, max_iters=40)
        _, tr_trace = tr_run(
            cfg, prob, NoiseModel.none(), DirectionGenerator(2, FixedCycle(neg_cycle)),
            (2.0, 2.0), delta_floor=0.0,
        )
        for a, b in zip(ds_trace, tr_trace):
            assert a.success == b.success
            assert a.delta == b.delta
            assert np.array_equal(a.x, b.x)

    def test_radius_law_and_cap(self):
        prob = get_problem("l1norm", 2)
        cfg = tr_cfg(theta=0.3, delta0=1.0, delta_max=1.5, tau=0.3, tau_bar=1.3, max_iters=150)
        gen = DirectionGenerator(2, QuasiRandomSphere())
        _, trace = tr_run(
            cfg, prob, NoiseModel.gaussian(0.05), gen, (2.0, 2.0), seed=6,
            sampler=fixed_sample_policy(4), delta_floor=0.0,
        )
        assert any(r.success for r in trace) and any(not r.success for r in trace)
        for rec in trace:
            assert rec.delta <= cfg.delta_max + 1e-15
        for prev, nxt in zip(trace, trace[1:]):
            if prev.success:
                assert nxt.delta == min(cfg.delta_max, cfg.tau_bar * prev.delta)
            else:
                assert nxt.delta == (1.0 - cfg.tau) * prev.delta

    def test_step_norm_bounds(self):
        # Interior steps obey ||s||^2 >= floor * delta^2; boundary steps have
        # ||s|| = delta.
        a = np.array([6.0, 2.0])

        def quad(x):
            return float(0.5 * np.sum(a * x * x))

        prob = Problem(dimension=2, eval_true=quad, name="quad")
        policy = RegressionClipped(q=0.5, m=8.0, M=8.0)
        cfg = tr_cfg(
            theta=0.2, delta0=1.0, delta_max=2.0, tau=0.2, tau_bar=1.2,
            max_iters=120, hessian_policy=policy,
        )
        gen = DirectionGenerator(2, QuasiRandomSphere())
        _, trace = tr_run(cfg, prob, NoiseModel.none(), gen, (1.2, -0.9), delta_floor=0.0)
        floor = curvature_floor(cfg)
        interior = 0
        for rec in trace:
            if abs(rec.step_norm - rec.delta) <= 1e-8 * rec.delta:
                continue
            interior += 1
            assert rec.step_norm**2 >= floor * rec.delta**2 * (1.0 - 1e-8)
        assert interior > 0

    def test_deterministic_given_seed(self):
        prob = get_problem("sphere", 2)
        cfg = tr_cfg(theta=0.3, tau=0.2, tau_bar=1.2, max_iters=60)

        def run():
            gen = DirectionGenerator(2, QuasiRandomSphere())
            return tr_run(
                cfg, prob, NoiseModel.gaussian(0.1), gen, (1.0, -1.0), seed=21,
                sampler=fixed_sample_policy(3), delta_floor=0.0,
            )

        (sa, ta), (sb, tb) = run(), run()
        assert np.array_equal(sa.x, sb.x)
        assert [r.est_trial for r in ta] == [r.est_trial for r in tb]

    def test_noisy_clipped_run_aligns_in_tail(self):
        # With a clipped model matrix the step tracks -delta * g once the
        # radius is small: ||s/||s|| + g|| = O(delta^(1-q)).
        from sdfo import alignment_profile

        a = np.array([3.0, 1.0])

        def quad(x):
            return float(0.5 * np.sum(a * x * x))

        prob = Problem(dimension=2, eval_true=quad, name="quad")
        cfg = tr_cfg(
            theta=0.4, delta0=1.0, delta_max=2.0, tau=0.5, tau_bar=1.25,
            max_iters=500, hessian_policy=RegressionClipped(q=0.5, m=10.0, M=10.0),
        )
        gen = DirectionGenerator(2, QuasiRandomSphere())
        _, trace = tr_run(
            cfg, prob, NoiseModel.gaussian(1e-4), gen, (1.0, -0.8), seed=2,
            sampler=fixed_sample_policy(4), delta_floor=0.0,
        )
        residuals = alignment_profile(trace)
        assert max(residuals[3 * len(residuals) // 4 :]) < 0.1

    def test_stencil_samples_accounted(self):
        prob = get_problem("sphere", 2)
        policy = RegressionClipped(q=0.5, m=5.0, M=5.0)
        cfg = tr_cfg(theta=0.5, max_iters=1, hessian_policy=policy)
        gen = DirectionGenerator(2, QuasiRandomSphere())
        _, trace = tr_run(
            cfg, prob, NoiseModel.gaussian(1.0), gen, (1.0, 1.0), seed=0,
            sampler=fixed_sample_policy(7), delta_floor=0.0,
        )
        rec = trace[0]
        # 5 stencil points x 7 samples on top of the acceptance estimate.
        assert rec.samples_current == 7 + 5 * 7
        assert rec.samples_trial == 7
