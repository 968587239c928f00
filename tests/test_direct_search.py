"""Direct-search stepping, acceptance arithmetic and run contracts."""

import math

import numpy as np
import pytest

from sdfo import (
    DirectSearchConfig,
    DirectionGenerator,
    FixedCycle,
    NoiseModel,
    QuasiRandomSphere,
    StochasticOracle,
    ds_run,
    fixed_sample_policy,
    get_problem,
    validate_theta_tr,
)
from sdfo.direct_search import propose_ds
from sdfo.problems import PROBLEMS
from sdfo.problems import TestProblem as Problem
from sdfo.trace import IterationRecord
from sdfo.trust_region import iterate

PARABOLA = Problem(dimension=1, eval_true=lambda x: float(x[0] ** 2), name="parabola")


def one_sample(delta):
    return 1


def one_step(cfg, gen, oracle, x, delta):
    """One ``iterate`` of a single seed: its trace record, new iterate and new stepsize."""
    (row,), _, _, new_x, (new_delta,), _ = iterate(
        propose_ds, cfg, gen, [oracle], one_sample, np.array([x]), [delta], None, 0
    )
    return IterationRecord(*row), new_x[0], new_delta


class TestConfigValidation:
    def test_parameter_ranges(self):
        with pytest.raises(ValueError):
            DirectSearchConfig(delta0=0.0, tau=0.5, tau_bar=1.0, max_iters=1, theta=1.0)
        with pytest.raises(ValueError):
            DirectSearchConfig(delta0=1.0, tau=1.5, tau_bar=1.0, max_iters=1, theta=1.0)
        with pytest.raises(ValueError):
            DirectSearchConfig(delta0=1.0, tau=0.5, tau_bar=1.6, max_iters=1, theta=1.0)
        with pytest.raises(ValueError):
            DirectSearchConfig(delta0=1.0, tau=0.5, tau_bar=0.9, max_iters=1, theta=1.0)
        with pytest.raises(ValueError):
            DirectSearchConfig(delta0=1.0, tau=0.5, tau_bar=1.0, max_iters=1, theta=-2.0)

    def test_theta_defaults_from_hint(self):
        cfg = DirectSearchConfig(delta0=1.0, tau=0.5, tau_bar=1.0, max_iters=1, eps_f_hint=1.0)
        assert cfg.theta == pytest.approx(1.1 * 4.0 / 1.5)

    def test_theta_default_needs_positive_hint(self):
        with pytest.raises(ValueError):
            DirectSearchConfig(delta0=1.0, tau=0.5, tau_bar=1.0, max_iters=1)


class TestValidateTheta:
    def test_admissible(self):
        cfg = DirectSearchConfig(
            delta0=1.0, tau=0.5, tau_bar=1.0, max_iters=1, theta=5.0, eps_f_hint=1.0
        )
        verdict = validate_theta_tr(cfg)
        assert verdict.ok
        assert verdict.bound == pytest.approx(8.0 / 3.0)

    def test_warning_with_bound(self):
        cfg = DirectSearchConfig(
            delta0=1.0, tau=0.5, tau_bar=1.0, max_iters=1, theta=2.0, eps_f_hint=1.0
        )
        verdict = validate_theta_tr(cfg)
        assert not verdict.ok
        assert verdict.bound == pytest.approx(8.0 / 3.0)

    def test_zero_tail_constant_always_ok(self):
        cfg = DirectSearchConfig(
            delta0=1.0, tau=0.5, tau_bar=1.0, max_iters=1, theta=1e-9, eps_f_hint=0.0
        )
        assert validate_theta_tr(cfg).ok

    def test_requires_hint(self):
        cfg = DirectSearchConfig(delta0=1.0, tau=0.5, tau_bar=1.0, max_iters=1, theta=1.0)
        with pytest.raises(ValueError):
            validate_theta_tr(cfg)


class TestStep:
    def test_successful_step_arithmetic(self):
        cfg = DirectSearchConfig(delta0=1.0, tau=0.5, tau_bar=1.25, max_iters=10, theta=0.5)
        oracle = StochasticOracle(PARABOLA, NoiseModel.none())
        gen = DirectionGenerator(1, FixedCycle([(-1.0,)]))
        rec, x, delta = one_step(cfg, gen, oracle, [1.0], 1.0)
        # decrease f(1) - f(0) = 1 >= theta * 1
        assert rec.success
        assert x[0] == 0.0
        assert delta == 1.25
        assert rec.est_current == 1.0 and rec.est_trial == 0.0

    def test_unsuccessful_at_minimizer(self):
        cfg = DirectSearchConfig(delta0=1.0, tau=0.5, tau_bar=1.25, max_iters=10, theta=0.5)
        oracle = StochasticOracle(PARABOLA, NoiseModel.none())
        gen = DirectionGenerator(1, FixedCycle([(1.0,)]))
        rec, x, delta = one_step(cfg, gen, oracle, [0.0], 1.0)
        assert not rec.success
        assert x[0] == 0.0
        assert delta == 0.5

    def test_contraction_factor(self):
        cfg = DirectSearchConfig(delta0=0.8, tau=0.5, tau_bar=1.25, max_iters=10, theta=0.5)
        oracle = StochasticOracle(PARABOLA, NoiseModel.none())
        gen = DirectionGenerator(1, FixedCycle([(1.0,)]))
        _, _, delta = one_step(cfg, gen, oracle, [0.0], 0.8)
        assert delta == pytest.approx(0.4)

    def test_tie_counts_as_success(self):
        # f(1) - f(0) = 1 with theta * delta^2 = 1 exactly.
        cfg = DirectSearchConfig(delta0=1.0, tau=0.5, tau_bar=1.25, max_iters=10, theta=1.0)
        oracle = StochasticOracle(PARABOLA, NoiseModel.none())
        gen = DirectionGenerator(1, FixedCycle([(-1.0,)]))
        rec, _, _ = one_step(cfg, gen, oracle, [1.0], 1.0)
        assert rec.success

    def test_cumulates_squared_stepsizes(self):
        for iters, expected in ((1, 1.0), (2, 1.25), (3, 1.3125)):
            cfg = DirectSearchConfig(delta0=1.0, tau=0.5, tau_bar=1.25, max_iters=iters, theta=0.5)
            gen = DirectionGenerator(1, FixedCycle([(1.0,)]))
            state, _ = ds_run(cfg, PARABOLA, NoiseModel.none(), gen, (0.0,), sampler=one_sample)
            assert (state.k, state.cum_delta_sq) == (iters, pytest.approx(expected))


class TestRun:
    def test_zero_iterations(self):
        cfg = DirectSearchConfig(delta0=1.0, tau=0.5, tau_bar=1.0, max_iters=0, theta=0.5)
        prob = get_problem("l1norm", 2)
        state, trace = ds_run(
            cfg, prob, NoiseModel.none(), DirectionGenerator(2, QuasiRandomSphere()), (2.0, 2.0)
        )
        assert trace == []
        assert np.array_equal(state.x, np.array([2.0, 2.0]))
        assert state.delta == 1.0

    def test_zero_noise_matches_reference_loop(self):
        # Independent reference implementation of the deterministic scheme.
        prob = get_problem("l1norm", 2)
        cycle = [
            np.array([1.0, 0.0]),
            np.array([0.0, -1.0]),
            np.array([-1.0, 0.0]),
            np.array([0.0, 1.0]),
        ]
        theta, tau, tau_bar = 0.5, 0.5, 1.25
        x = np.array([2.0, 2.0])
        delta = 1.0
        ref = []
        for k in range(30):
            d = cycle[k % 4]
            trial = x + delta * d
            success = prob.eval_true(x) - prob.eval_true(trial) >= theta * delta * delta
            ref.append((x.copy(), delta, success))
            if success:
                x, delta = trial, tau_bar * delta
            else:
                delta = (1.0 - tau) * delta

        cfg = DirectSearchConfig(delta0=1.0, tau=tau, tau_bar=tau_bar, max_iters=30, theta=theta)
        gen = DirectionGenerator(2, FixedCycle([tuple(v) for v in cycle]))
        _, trace = ds_run(cfg, prob, NoiseModel.none(), gen, (2.0, 2.0), delta_floor=0.0)
        assert len(trace) == 30
        for rec, (rx, rdelta, rsuccess) in zip(trace, ref):
            assert np.array_equal(rec.x, rx)
            assert rec.delta == rdelta
            assert rec.success == rsuccess

    def test_acceptance_flag_matches_estimates_bitwise(self):
        prob = get_problem("l1norm", 2)
        cfg = DirectSearchConfig(delta0=1.0, tau=0.3, tau_bar=1.2, max_iters=200, theta=0.4)
        gen = DirectionGenerator(2, QuasiRandomSphere())
        _, trace = ds_run(
            cfg, prob, NoiseModel.gaussian(0.05), gen, (1.0, -1.0), seed=3,
            sampler=fixed_sample_policy(4), delta_floor=0.0,
        )
        for rec in trace:
            assert rec.success == (
                rec.est_current - rec.est_trial >= cfg.theta * rec.delta * rec.delta
            )

    def test_monotone_state_law(self):
        prob = get_problem("l1norm", 2)
        cfg = DirectSearchConfig(delta0=1.0, tau=0.3, tau_bar=1.2, max_iters=150, theta=0.4)
        gen = DirectionGenerator(2, QuasiRandomSphere())
        _, trace = ds_run(
            cfg, prob, NoiseModel.gaussian(0.05), gen, (1.0, -1.0), seed=4,
            sampler=fixed_sample_policy(4), delta_floor=0.0,
        )
        for prev, nxt in zip(trace, trace[1:]):
            expected = cfg.tau_bar * prev.delta if prev.success else (1.0 - cfg.tau) * prev.delta
            assert nxt.delta == expected
            if prev.success:
                assert np.array_equal(nxt.x, prev.x + prev.step)
            else:
                assert np.array_equal(nxt.x, prev.x)

    def test_unsuccessful_step_lower_bound_zero_noise(self):
        # On unsuccessful zero-noise iterations the directional difference
        # quotient is bounded below by -theta * delta.
        prob = get_problem("l1norm", 2)
        cfg = DirectSearchConfig(delta0=1.0, tau=0.5, tau_bar=1.25, max_iters=60, theta=0.8)
        gen = DirectionGenerator(2, QuasiRandomSphere())
        _, trace = ds_run(cfg, prob, NoiseModel.none(), gen, (0.4, -0.3), delta_floor=0.0)
        unsuccessful = [r for r in trace if not r.success]
        assert unsuccessful
        for rec in unsuccessful:
            quotient = (prob.eval_true(rec.x + rec.step) - prob.eval_true(rec.x)) / rec.delta
            assert quotient >= -cfg.theta * rec.delta - 1e-12

    def test_deterministic_given_seed(self):
        prob = get_problem("sphere", 2)
        cfg = DirectSearchConfig(delta0=1.0, tau=0.2, tau_bar=1.1, max_iters=80, theta=0.3)

        def run():
            gen = DirectionGenerator(2, QuasiRandomSphere())
            return ds_run(
                cfg, prob, NoiseModel.gaussian(0.1), gen, (1.5, 1.5), seed=12,
                sampler=fixed_sample_policy(3), delta_floor=0.0,
            )

        state_a, trace_a = run()
        state_b, trace_b = run()
        assert np.array_equal(state_a.x, state_b.x)
        assert state_a.delta == state_b.delta
        assert [r.est_current for r in trace_a] == [r.est_current for r in trace_b]

    def test_delta_floor_stops_run(self):
        prob = get_problem("sphere", 1)
        cfg = DirectSearchConfig(delta0=1.0, tau=0.5, tau_bar=1.0, max_iters=1000, theta=5.0)
        gen = DirectionGenerator(1, FixedCycle([(1.0,)]))
        state, trace = ds_run(
            cfg, prob, NoiseModel.none(), gen, (0.0,), delta_floor=1e-3
        )
        assert state.delta < 1e-3
        assert len(trace) < 1000

    def test_default_sampler_uses_variance_rule(self):
        prob = get_problem("sphere", 1)
        cfg = DirectSearchConfig(delta0=1.0, tau=0.5, tau_bar=1.0, max_iters=1, theta=8.0)
        gen = DirectionGenerator(1, FixedCycle([(1.0,)]))
        _, trace = ds_run(cfg, prob, NoiseModel.gaussian(1.0), gen, (0.5,), seed=0)
        k_f = cfg.theta * (2.0 - cfg.tau) / 16.0
        expected = math.ceil(1.0 / (k_f**2 * cfg.delta0**4))
        assert trace[0].samples_current == expected

    def test_dimension_mismatch(self):
        prob = get_problem("sphere", 2)
        cfg = DirectSearchConfig(delta0=1.0, tau=0.5, tau_bar=1.0, max_iters=1, theta=1.0)
        with pytest.raises(ValueError):
            ds_run(cfg, prob, NoiseModel.none(), DirectionGenerator(3, QuasiRandomSphere()), (1.0, 1.0))
        with pytest.raises(ValueError):
            ds_run(cfg, prob, NoiseModel.none(), DirectionGenerator(2, QuasiRandomSphere()), (1.0, 1.0, 1.0))

    @pytest.mark.parametrize("x0", [(math.nan, 1.0), (1.0, math.inf)], ids=["nan", "inf"])
    def test_non_finite_start_rejected(self, x0):
        cfg = DirectSearchConfig(delta0=1.0, tau=0.5, tau_bar=1.0, max_iters=5, theta=1.0)
        with pytest.raises(ValueError, match="x0 must be finite"):
            ds_run(cfg, get_problem("sphere", 2), NoiseModel.none(),
                   DirectionGenerator(2, QuasiRandomSphere()), x0)

    def test_non_finite_start_value_rejected(self):
        prob = Problem(dimension=1, eval_true=lambda x: math.nan, name="nan")
        cfg = DirectSearchConfig(delta0=1.0, tau=0.5, tau_bar=1.0, max_iters=5, theta=1.0)
        with pytest.raises(ValueError, match=r"f\(x0\) must be finite"):
            ds_run(cfg, prob, NoiseModel.none(), DirectionGenerator(1, FixedCycle([(1.0,)])), (0.0,))

    def test_one_true_evaluation_per_iteration(self):
        # f(x + s) at each trial point, plus the start check f(x0) once per
        # run.  f at the current point (the trace's f_true_current) is
        # f(x0) or the last accepted trial value, never evaluated again.
        calls = []

        def counted(x):
            calls.append(1)
            return float(x @ x)

        prob = Problem(dimension=2, eval_true=counted, name="counted_sphere")
        cfg = DirectSearchConfig(delta0=1.0, tau=0.5, tau_bar=1.25, max_iters=25, theta=0.5)
        _, trace = ds_run(
            cfg, prob, NoiseModel.gaussian(0.01), DirectionGenerator(2, QuasiRandomSphere()),
            (1.0, -1.0), seed=2, sampler=fixed_sample_policy(3), delta_floor=0.0,
        )
        assert len(trace) == 25
        assert len(calls) == 1 + len(trace)
        for rec in trace:
            assert rec.f_true_current == float(rec.x @ rec.x)

    def test_registry_problem_rows_per_iteration(self, monkeypatch):
        # A registry problem is evaluated row-wise, one call per iteration:
        # the same 1 + K points, counted as rows.
        objective, *rest = PROBLEMS["sphere"]
        shapes = []

        def counted(x):
            shapes.append(x.shape)
            return objective(x)

        monkeypatch.setitem(PROBLEMS, "sphere", (counted, *rest))
        prob = get_problem("sphere", 2)
        cfg = DirectSearchConfig(delta0=1.0, tau=0.5, tau_bar=1.25, max_iters=25, theta=0.5)
        _, trace = ds_run(
            cfg, prob, NoiseModel.gaussian(0.01), DirectionGenerator(2, QuasiRandomSphere()),
            (1.0, -1.0), seed=2, sampler=fixed_sample_policy(3), delta_floor=0.0,
        )
        assert len(trace) == 25
        assert sum(rows for rows, _ in shapes) == 1 + len(trace)
        assert shapes == [(1, 2)] * (1 + len(trace))
        for rec in trace:
            assert rec.f_true_current == objective(rec.x)
