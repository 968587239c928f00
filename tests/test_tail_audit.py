"""Tail-bound auditor: soundness against closed forms, pass/fail behavior."""

import math
import tracemalloc

import numpy as np
import pytest

from sdfo import (
    NoiseModel,
    StochasticOracle,
    TailAuditSpec,
    audit_a1,
    audit_a2,
    audit_generalized,
    audit_variance_condition,
    estimate_pair,
    fixed_sample_policy,
    get_problem,
    required_samples,
    sampler_estimator,
    variance_sample_policy,
)
from sdfo.stats import wilson_upper
from sdfo.tail_audit import (
    CONDITIONS,
    _collect_errors,
    audit_condition,
    format_report,
    tail_order,
    write_report_csv,
)

X = np.array([0.5, -0.25])
G = np.array([1.0, 1.0]) / math.sqrt(2.0)


def gaussian_oracle(variance=1.0, seed=0):
    return StochasticOracle(get_problem("sphere", 2), NoiseModel.gaussian(variance), seed=seed)


def small_spec(**kw):
    base = dict(eps_f=2.0, eps_q=4.0, p_grid=(0.5, 0.25, 0.1), delta_grid=(1.0, 0.5), trials=5000)
    base.update(kw)
    return TailAuditSpec(**base)


class TestSpecValidation:
    def test_trials_floor(self):
        with pytest.raises(ValueError):
            small_spec(trials=999)

    def test_grids_nonempty_and_valid(self):
        with pytest.raises(ValueError):
            small_spec(p_grid=())
        with pytest.raises(ValueError):
            small_spec(p_grid=(1.5,))
        with pytest.raises(ValueError):
            small_spec(delta_grid=(0.0,))

    def test_h_and_confidence(self):
        with pytest.raises(ValueError):
            small_spec(h=1.5)
        with pytest.raises(ValueError):
            small_spec(confidence=1.0)

    # A NaN threshold compares false with every error, and an infinite one
    # is never reached, so such a spec used to pass at frequency zero.
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize(
        "field", ["eps_f", "eps_q", "h", "delta_grid", "alpha_grid", "alpha_grid_mixed"]
    )
    def test_non_finite_parameters_rejected(self, field, bad):
        values = {
            "delta_grid": (bad,),
            "alpha_grid": (bad,),
            "alpha_grid_mixed": (4.0, bad),
        }
        name = field.removesuffix("_mixed")
        with pytest.raises(ValueError, match=name):
            small_spec(**{name: values.get(field, bad)})

    def test_tail_order(self):
        assert tail_order(2.0) == 2.0
        assert tail_order(3.0) == 1.0
        with pytest.raises(ValueError):
            tail_order(1.0)


class TestWilson:
    def test_upper_bound_dominates_frequency(self):
        assert wilson_upper(0, 1000) > 0.0
        assert wilson_upper(500, 1000) > 0.5
        assert wilson_upper(1000, 1000) == 1.0

    def test_coverage_of_known_binomial(self):
        # Wilson upper at 99% should exceed the true p in ~99% of draws.
        rng = np.random.default_rng(0)
        p_true = 0.07
        covered = sum(
            wilson_upper(int(rng.binomial(2000, p_true)), 2000, 0.99) >= p_true
            for _ in range(400)
        )
        assert covered >= 380


class TestHarnessSoundness:
    def test_uniform_error_matches_closed_form(self):
        # Inject a synthetic uniform[-a, a] estimate error instead of a real
        # oracle and compare each cell against the exact exceedance
        # probability P(|U| >= t) = max(0, 1 - t/a).
        a = 3.0

        def uniform_estimator(oracle, x, y, delta, trials):
            estimates = np.tile([oracle.problem.eval_true(x), oracle.problem.eval_true(y)], (trials, 1))
            estimates[:, 0] += a * (2.0 * oracle._rng.random(trials) - 1.0)
            return estimates, 1

        oracle = gaussian_oracle(seed=13)
        spec = TailAuditSpec(
            eps_f=1.0, eps_q=1.0, p_grid=(0.9, 0.5, 0.25), delta_grid=(1.0, 1.2),
            trials=10**5, seed=2,
        )
        report = audit_a1(oracle, uniform_estimator, X, G, spec)
        for cell in report.cells:
            p_true = max(0.0, 1.0 - cell.threshold / a)
            se = math.sqrt(max(p_true * (1 - p_true), 1e-12) / cell.trials)
            assert abs(cell.frequency - p_true) <= 5.0 * se + 1e-9
            if p_true > 0.0:
                assert cell.wilson_upper >= p_true - 5.0 * se

    def test_monotone_in_threshold(self):
        oracle = gaussian_oracle(seed=3)
        est = sampler_estimator(variance_sample_policy(1.0, 1.0))
        report = audit_a2(oracle, est, X, G, small_spec())
        by_delta = {}
        for cell in report.cells:
            by_delta.setdefault(cell.delta, []).append(cell)
        for cells in by_delta.values():
            cells.sort(key=lambda c: c.threshold)
            freqs = [c.frequency for c in cells]
            assert freqs == sorted(freqs, reverse=True)


class TestBatchPath:
    @pytest.mark.parametrize(
        "noise",
        [NoiseModel.gaussian(1.0), NoiseModel.student_t(3.0), NoiseModel.student_t(1.5), NoiseModel.none()],
        ids=["gaussian", "t3", "t1.5", "none"],
    )
    @pytest.mark.parametrize("n,trials", [(1, 1000), (16, 1000), (256, 1000), (16, 5000)])
    def test_batch_matches_per_trial_fallback(self, noise, n, trials):
        # The reference estimator builds a cell one estimate_pair at a
        # time; the sampler estimator draws it in chunks.  n = 256 and
        # (16, 5000) span several chunks.
        est = sampler_estimator(fixed_sample_policy(n))

        def per_trial(oracle, x, y, delta, trials):
            pairs = [estimate_pair(oracle, x, y, n, n) for _ in range(trials)]
            return np.array([(p.est_current, p.est_trial) for p in pairs]), n

        oracle = StochasticOracle(get_problem("sphere", 2), noise, seed=21)
        for key in ((1, 0, 0, 0), (4, 2, 9)):
            batch = _collect_errors(oracle, est, X, G, 0.5, trials, key)
            loop = _collect_errors(oracle, per_trial, X, G, 0.5, trials, key)
            for a, b in zip(batch[:3], loop[:3]):
                assert np.array_equal(a, b)
            assert batch[3:] == loop[3:] == (n, 2 * n * trials)
        spec = small_spec(p_grid=(0.5,), delta_grid=(0.5,), trials=trials)
        assert audit_a1(oracle, est, X, G, spec) == audit_a1(oracle, per_trial, X, G, spec)
        assert audit_variance_condition(
            oracle, est, X, G, 1.0, delta_grid=(0.5,), trials=trials
        ) == audit_variance_condition(oracle, per_trial, X, G, 1.0, delta_grid=(0.5,), trials=trials)

    def test_estimator_shape_checked(self):
        def short(oracle, x, y, delta, trials):
            return np.zeros((trials - 1, 2)), 1

        spec = small_spec(p_grid=(0.5,), delta_grid=(0.5,), trials=1000)
        with pytest.raises(ValueError, match="expected \\(1000, 2\\)"):
            audit_a1(gaussian_oracle(), short, X, G, spec)

    def test_report_counts_draws(self):
        est = sampler_estimator(variance_sample_policy(1.0, 1.0))
        report = audit_a1(gaussian_oracle(seed=2), est, X, G, small_spec())
        # Three p-cells at n = 1 (delta 1) and n = 16 (delta 0.5).
        assert report.draws == 3 * 2 * (1 + 16) * 5000

    def test_cell_memory_is_chunked(self):
        # 1000 trials at n = 4096 draw 8.2e6 values: 64 MB unchunked.
        est = sampler_estimator(fixed_sample_policy(4096))
        spec = small_spec(p_grid=(0.5,), delta_grid=(1.0,), trials=1000)
        oracle = gaussian_oracle(seed=3)
        tracemalloc.start()
        try:
            audit_a1(oracle, est, X, G, spec)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20


AUDITS = {
    "a1": lambda oracle, est, x, g: audit_a1(oracle, est, x, g, small_spec(trials=1000)),
    "a2": lambda oracle, est, x, g: audit_a2(oracle, est, x, g, small_spec(trials=1000)),
    "a2h": lambda oracle, est, x, g: audit_generalized(
        oracle, est, x, g, small_spec(trials=1000, alpha_grid=(4.0,))
    ),
    "variance": lambda oracle, est, x, g: audit_variance_condition(oracle, est, x, g, 1.0, trials=1000),
}


class TestNonFiniteInputs:
    # A non-finite error compares false against every threshold, so such
    # a point used to pass every cell with frequency zero.
    @pytest.mark.parametrize("audit", AUDITS, ids=list(AUDITS))
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
    def test_point_rejected(self, audit, bad):
        oracle = gaussian_oracle()
        with pytest.raises(ValueError, match="audit point must be finite"):
            AUDITS[audit](oracle, sampler_estimator(fixed_sample_policy(1)), (bad, 0.5), G)
        assert oracle.draws == 0

    @pytest.mark.parametrize("audit", AUDITS, ids=list(AUDITS))
    @pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
    def test_direction_rejected(self, audit, bad):
        oracle = gaussian_oracle()
        with pytest.raises(ValueError, match="finite unit vector"):
            AUDITS[audit](oracle, sampler_estimator(fixed_sample_policy(1)), X, (bad, 0.0))


class TestAuditCondition:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, 0.0], ids=["nan", "inf", "zero"])
    def test_variance_k_f_rejected(self, bad):
        oracle = gaussian_oracle()
        est = sampler_estimator(fixed_sample_policy(1))
        with pytest.raises(ValueError, match="k_f must be positive and finite"):
            audit_variance_condition(oracle, est, X, G, bad, trials=1000)
        with pytest.raises(ValueError, match="k_f must be positive and finite"):
            audit_condition("variance", oracle, est, X, G, small_spec(), k_f=bad)
        assert oracle.draws == 0

    @pytest.mark.parametrize("name", ["a1", "a2", "a2h", "variance"])
    def test_public_audits_are_table_rows(self, name):
        spec = small_spec(trials=1000, alpha_grid=(2.0, 4.0, 8.0), h=3.0)
        est = sampler_estimator(fixed_sample_policy(3))
        public = {
            "a1": lambda o: audit_a1(o, est, X, G, spec),
            "a2": lambda o: audit_a2(o, est, X, G, spec),
            "a2h": lambda o: audit_generalized(o, est, X, G, spec),
            "variance": lambda o: audit_variance_condition(
                o, est, X, G, 0.5, delta_grid=spec.delta_grid, trials=spec.trials, seed=spec.seed
            ),
        }
        expected = public[name](gaussian_oracle(seed=5))
        report = audit_condition(name, gaussian_oracle(seed=5), est, X, G, spec, k_f=0.5)
        assert report == expected
        assert report.condition == name
        grid = {"a1": 3, "a2": 3, "a2h": 2, "variance": 2}[name]  # alpha 2 < eps_q drops
        assert len(report.cells) == grid * len(spec.delta_grid)

    def test_condition_table_names(self):
        assert list(CONDITIONS) == ["a1", "a2", "a2h", "variance"]
        assert len({c.code for c in CONDITIONS.values()}) == len(CONDITIONS)


class TestVacuousCells:
    # A NaN error or an infinite threshold makes every cell pass at frequency 0.
    def test_infinite_threshold_rejected(self):
        oracle = gaussian_oracle()
        est = sampler_estimator(fixed_sample_policy(1))
        with pytest.raises(ValueError, match=r"threshold at delta=1e\+155, p=0.5 is not finite"):
            audit_a1(oracle, est, X, G, small_spec(delta_grid=(1e155,), trials=1000))
        assert oracle.draws == 0

    def test_overflowing_generalized_threshold_rejected(self):
        spec = small_spec(delta_grid=(2.0,), h=2000.0, alpha_grid=(4.0,), trials=1000)
        with pytest.raises(ValueError, match="threshold at delta=2.0, alpha=4.0 is not finite"):
            audit_generalized(gaussian_oracle(), sampler_estimator(fixed_sample_policy(1)), X, G, spec)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # f(x + delta g) overflows
    @pytest.mark.parametrize("name", ["a1", "variance"])
    def test_non_finite_objective_rejected(self, name):
        oracle = gaussian_oracle()
        est = sampler_estimator(fixed_sample_policy(1))
        spec = small_spec(eps_f=1e-10, delta_grid=(1e155,), trials=1000)
        with pytest.raises(ValueError, match=r"f\(x\) and f\(x \+ delta g\) must be finite"):
            audit_condition(name, oracle, est, X, G, spec)
        assert oracle.draws == 0


class TestGaussianAudits:
    def test_a1_passes_with_proven_constants(self):
        # n = required_samples and eps_f = 2 k_f: the closed-form normal
        # exceedance is far below every p in the grid.
        k_f = 1.0
        oracle = gaussian_oracle(seed=4)
        est = sampler_estimator(variance_sample_policy(1.0, k_f))
        report = audit_a1(oracle, est, X, G, small_spec(eps_f=2 * k_f))
        assert report.passed
        for cell in report.cells:
            assert cell.samples_per_estimate == required_samples(1.0, k_f, cell.delta)

    def test_a2_passes_with_proven_constants(self):
        k_f = 1.0
        oracle = gaussian_oracle(seed=5)
        est = sampler_estimator(variance_sample_policy(1.0, k_f))
        report = audit_a2(oracle, est, X, G, small_spec(eps_q=4 * k_f**2))
        assert report.passed

    def test_closed_form_cross_check(self):
        # Cell frequencies agree with the exact normal tail: the error is
        # N(0, 2V/n) with n = required_samples.
        from scipy.stats import norm

        k_f = 1.0
        oracle = gaussian_oracle(seed=6)
        est = sampler_estimator(variance_sample_policy(1.0, k_f))
        spec = small_spec(eps_f=2 * k_f, trials=20000)
        report = audit_a1(oracle, est, X, G, spec)
        for cell in report.cells:
            n = required_samples(1.0, k_f, cell.delta)
            sigma = math.sqrt(2.0 / n)
            p_true = 2.0 * norm.sf(cell.threshold / sigma)
            se = math.sqrt(max(p_true * (1 - p_true), 1e-12) / cell.trials)
            assert abs(cell.frequency - p_true) <= 5.0 * se + 5e-4

    def test_undersized_eps_f_fails_smallest_p(self):
        # Deliberately shrink eps_f: at p = 0.05 the threshold drops to
        # 0.4 k_f delta^2 where the normal exceedance is ~0.78 >> 0.05.
        k_f = 1.0
        oracle = gaussian_oracle(seed=7)
        est = sampler_estimator(variance_sample_policy(1.0, k_f))
        spec = small_spec(eps_f=0.01 * 2 * k_f, p_grid=(0.05,), delta_grid=(1.0,))
        report = audit_a1(oracle, est, X, G, spec)
        assert not report.passed

    def test_zero_noise_all_frequencies_zero(self):
        oracle = StochasticOracle(get_problem("sphere", 2), NoiseModel.none())
        est = sampler_estimator(lambda d: 1)
        report = audit_a1(oracle, est, X, G, small_spec())
        assert report.passed
        assert all(cell.frequency == 0.0 for cell in report.cells)

    def test_student_t_with_finite_variance_passes(self):
        noise = NoiseModel.student_t(2.5)
        oracle = StochasticOracle(get_problem("sphere", 2), noise, seed=8)
        k_f = 1.0
        est = sampler_estimator(variance_sample_policy(noise.declared_variance, k_f))
        report = audit_a2(oracle, est, X, G, small_spec(eps_q=4 * k_f**2))
        assert report.passed

    def test_reproducible_bit_for_bit(self):
        def run():
            oracle = gaussian_oracle(seed=9)
            est = sampler_estimator(variance_sample_policy(1.0, 1.0))
            return audit_a1(oracle, est, X, G, small_spec(seed=77))

        assert run() == run()


class TestVarianceAudit:
    def test_zero_noise_moment_is_zero(self):
        oracle = StochasticOracle(get_problem("sphere", 2), NoiseModel.none())
        est = sampler_estimator(lambda d: 1)
        report = audit_variance_condition(oracle, est, X, G, 1.0, trials=2000)
        assert report.passed
        assert all(cell.empirical_moment == 0.0 for cell in report.cells)

    def test_required_samples_meets_bound(self):
        oracle = gaussian_oracle(seed=10)
        est = sampler_estimator(variance_sample_policy(1.0, 1.0))
        report = audit_variance_condition(oracle, est, X, G, 1.0, trials=20000, seed=1)
        assert report.passed

    def test_half_samples_fail(self):
        # Half the required count doubles V/n past the bound at delta=0.5.
        oracle = gaussian_oracle(seed=11)
        est = sampler_estimator(lambda d: max(1, required_samples(1.0, 1.0, d) // 2))
        report = audit_variance_condition(
            oracle, est, X, G, 1.0, delta_grid=(0.5,), trials=20000, seed=2
        )
        assert not report.passed


class TestGeneralizedAudit:
    def test_h2_reduces_to_a2_thresholds(self):
        # At h=2 with alpha = sqrt(eps_q / p), thresholds and bounds match
        # the quadratic tail audit cells algebraically (alphas >= eps_q here).
        eps_q = 1.0
        p_grid = (0.5, 0.25)
        alphas = tuple(math.sqrt(eps_q / p) for p in p_grid)
        oracle = gaussian_oracle(seed=12)
        est = sampler_estimator(variance_sample_policy(1.0, 1.0))
        spec_a2 = small_spec(eps_q=eps_q, p_grid=p_grid, delta_grid=(0.5,))
        spec_gen = small_spec(eps_q=eps_q, delta_grid=(0.5,), h=2.0, alpha_grid=alphas)
        rep_a2 = audit_a2(oracle, est, X, G, spec_a2)
        rep_gen = audit_generalized(oracle, est, X, G, spec_gen)
        for ca, cg in zip(rep_a2.cells, rep_gen.cells):
            assert cg.threshold == pytest.approx(ca.threshold, rel=1e-12)
            assert cg.bound == pytest.approx(ca.p, rel=1e-12)

    def test_alpha_points_below_eps_q_excluded(self):
        oracle = StochasticOracle(
            get_problem("sphere", 2), NoiseModel.pareto_symmetric(1.5), seed=13
        )
        r, bound = oracle.noise.declared_moment
        est = sampler_estimator(lambda d: 50)
        spec = small_spec(eps_q=2.0, h=3.0, alpha_grid=(0.5, 1.0, 2.0, 4.0), delta_grid=(1.0,))
        report = audit_generalized(oracle, est, X, G, spec)
        assert all(cell.alpha >= 2.0 for cell in report.cells)
        with pytest.raises(ValueError):
            audit_generalized(
                oracle, est, X, G, small_spec(eps_q=8.0, h=3.0, alpha_grid=(0.5,), delta_grid=(1.0,))
            )

    def test_moment_order_consistency_enforced(self):
        # h=5 needs r >= 0.5 (fine), but h=2 needs r >= 2 which the
        # pareto noise with r=1.5 cannot supply.
        oracle = StochasticOracle(
            get_problem("sphere", 2), NoiseModel.pareto_symmetric(1.5), seed=14
        )
        est = sampler_estimator(lambda d: 10)
        with pytest.raises(ValueError):
            audit_generalized(
                oracle, est, X, G, small_spec(h=2.0, alpha_grid=(4.0,), delta_grid=(1.0,))
            )

    def test_requires_alpha_grid(self):
        oracle = gaussian_oracle()
        est = sampler_estimator(lambda d: 1)
        with pytest.raises(ValueError):
            audit_generalized(oracle, est, X, G, small_spec(h=3.0))


class TestReportOutput:
    def test_csv_schema_and_text(self, tmp_path):
        oracle = gaussian_oracle(seed=15)
        est = sampler_estimator(variance_sample_policy(1.0, 1.0))
        report = audit_a1(oracle, est, X, G, small_spec(p_grid=(0.5,), delta_grid=(1.0,)))
        path = tmp_path / "report.csv"
        write_report_csv(path, report, metadata={"seed": 15})
        lines = path.read_text().splitlines()
        assert lines[0] == "# seed=15"
        assert lines[1] == "p,delta,threshold,freq,wilson_upper,pass"
        assert len(lines) == 2 + len(report.cells)
        text = format_report(report)
        assert "tail audit [a1]" in text
        assert ("PASS" in text) or ("FAIL" in text)
