"""Oracle construction, sample averaging and sample-size rules."""

import math
import tracemalloc

import numpy as np
import pytest

from sdfo import (
    EstimatePair,
    NoiseModel,
    StochasticOracle,
    estimate_pair,
    estimate_pairs,
    get_problem,
    moment_oracle_samples,
    required_samples,
    sample_estimate,
)
from sdfo.oracle import (
    CHUNK_DRAWS,
    default_sample_policy,
    fixed_sample_policy,
    moment_sample_policy,
    sample_means,
    sample_policy,
    variance_sample_policy,
)


def make_oracle(noise, seed=0, name="sphere", dim=2):
    return StochasticOracle(get_problem(name, dim), noise, seed=seed)


class TestSampleEstimate:
    def test_zero_noise_exact_value(self):
        oracle = make_oracle(NoiseModel.none())
        assert sample_estimate(oracle, (1.0, 1.0), 1) == 2.0

    def test_zero_noise_averaging_constants(self):
        oracle = make_oracle(NoiseModel.none())
        x = (0.1, -0.7)
        assert sample_estimate(oracle, x, 5) == sample_estimate(oracle, x, 1)

    def test_gaussian_mean_concentrates(self):
        # Mean of 1e6 unit-variance draws: sampling error std is 1e-3, so
        # |mean| < 0.01 with overwhelming margin (and fixed seed).
        def zero(x):
            return 0.0

        from sdfo.problems import TestProblem as Problem

        prob = Problem(dimension=1, eval_true=zero, name="flat")
        oracle = StochasticOracle(prob, NoiseModel.gaussian(1.0), seed=123)
        assert abs(sample_estimate(oracle, (0.0,), 10**6)) < 0.01

    def test_stream_advances_by_n(self):
        oracle = make_oracle(NoiseModel.gaussian(1.0))
        sample_estimate(oracle, (0.0, 0.0), 7)
        assert oracle.draws == 7
        sample_estimate(oracle, (1.0, 0.0), 3)
        assert oracle.draws == 10

    def test_sequences_are_seed_deterministic(self):
        a = make_oracle(NoiseModel.gaussian(2.0), seed=42)
        b = make_oracle(NoiseModel.gaussian(2.0), seed=42)
        xs = [(0.0, 0.0), (1.0, 2.0), (0.5, -0.5)]
        va = [sample_estimate(a, x, n) for x, n in zip(xs, (1, 4, 9))]
        vb = [sample_estimate(b, x, n) for x, n in zip(xs, (1, 4, 9))]
        assert va == vb

    def test_dimension_mismatch_rejected(self):
        oracle = make_oracle(NoiseModel.none())
        with pytest.raises(ValueError):
            sample_estimate(oracle, (1.0, 2.0, 3.0), 1)

    def test_zero_samples_rejected(self):
        oracle = make_oracle(NoiseModel.none())
        with pytest.raises(ValueError):
            sample_estimate(oracle, (1.0, 1.0), 0)


class TestRequiredSamples:
    @pytest.mark.parametrize(
        "variance,k_f,delta,expected",
        [(1.0, 1.0, 0.5, 16), (1.0, 1.0, 1.0, 1), (2.0, 1.0, 1.0, 2)],
    )
    def test_formula_values(self, variance, k_f, delta, expected):
        assert required_samples(variance, k_f, delta) == expected

    @pytest.mark.parametrize("bad", [(0.0, 1, 1), (1, -1, 1), (1, 1, 0.0)])
    def test_nonpositive_inputs_rejected(self, bad):
        with pytest.raises(ValueError):
            required_samples(*bad)

    def test_variance_after_averaging_meets_bound(self):
        # n = required_samples gives Var[mean] = V/n <= k_f^2 delta^4.
        for variance, k_f, delta in [(1.0, 1.0, 0.5), (3.0, 0.7, 0.8), (0.2, 2.0, 0.3)]:
            n = required_samples(variance, k_f, delta)
            assert variance / n <= k_f**2 * delta**4 * (1 + 1e-12)


class TestEstimatePair:
    def test_zero_noise_values(self):
        from sdfo.problems import TestProblem as Problem

        prob = Problem(dimension=1, eval_true=lambda x: float(x[0] ** 2))
        oracle = StochasticOracle(prob, NoiseModel.none())
        pair = estimate_pair(oracle, (1.0,), (0.0,), 1, 1)
        assert (pair.est_current, pair.est_trial) == (1.0, 0.0)

    def test_difference_variance_of_independent_means(self):
        # est_current - est_trial is a difference of two independent
        # 16-sample means of unit-variance noise: variance 2/16 = 0.125.
        from sdfo.problems import TestProblem as Problem

        prob = Problem(dimension=1, eval_true=lambda x: 0.0)
        oracle = StochasticOracle(prob, NoiseModel.gaussian(1.0), seed=7)
        x = np.zeros(1)
        diffs = np.empty(10**5)
        for i in range(diffs.size):
            pair = estimate_pair(oracle, x, x, 16, 16)
            diffs[i] = pair.est_current - pair.est_trial
        assert abs(float(np.var(diffs)) / 0.125 - 1.0) < 0.05

    def test_student_t_estimates_finite(self):
        from sdfo.problems import TestProblem as Problem

        prob = Problem(dimension=1, eval_true=lambda x: 0.0)
        oracle = StochasticOracle(prob, NoiseModel.student_t(3.0), seed=5)
        pair = estimate_pair(oracle, (0.0,), (0.0,), 100, 100)
        assert math.isfinite(pair.est_current) and math.isfinite(pair.est_trial)

    def test_counts_recorded_and_validated(self):
        oracle = make_oracle(NoiseModel.none())
        pair = estimate_pair(oracle, (0.0, 0.0), (1.0, 1.0), 3, 5)
        assert (pair.samples_current, pair.samples_trial) == (3, 5)
        with pytest.raises(ValueError):
            EstimatePair(0.0, 0.0, 0, 1)

    def test_disjoint_stream_segments(self):
        # The pair consumes the same draws as two sequential estimates.
        a = make_oracle(NoiseModel.gaussian(1.0), seed=9)
        b = make_oracle(NoiseModel.gaussian(1.0), seed=9)
        x, y = np.zeros(2), np.ones(2)
        pair = estimate_pair(a, x, y, 4, 6)
        assert pair.est_current == sample_estimate(b, x, 4)
        assert pair.est_trial == sample_estimate(b, y, 6)


ALL_NOISE = [
    NoiseModel.none(),
    NoiseModel.gaussian(1.0),
    NoiseModel.student_t(3.0),
    NoiseModel.student_t(1.5),
    NoiseModel.pareto_symmetric(1.5),
    NoiseModel.pareto_symmetric(1.9),
]
ALL_NOISE_IDS = ["none", "gaussian", "t3", "t1.5", "pareto1.5", "pareto1.9"]


class TestEstimatePairs:
    @pytest.mark.parametrize("noise", ALL_NOISE, ids=ALL_NOISE_IDS)
    @pytest.mark.parametrize("n,trials", [(1, 20000), (16, 3000), (256, 300), (20000, 3)])
    def test_matches_pair_by_pair_loop_bit_for_bit(self, noise, n, trials):
        # The first three span several chunks; at n = 20000 one pair
        # exceeds a chunk on its own.
        a = make_oracle(noise, seed=5)
        b = make_oracle(noise, seed=5)
        x, y = (0.5, -0.25), (1.2, 0.3)
        batch = estimate_pairs(a, x, y, n, trials)
        pairs = [estimate_pair(b, x, y, n, n) for _ in range(trials)]
        loop = np.array([(p.est_current, p.est_trial) for p in pairs])
        assert np.array_equal(batch, loop)
        assert a.draws == b.draws == 2 * n * trials
        # Both streams stop at the same place.
        assert sample_estimate(a, x, 3) == sample_estimate(b, x, 3)

    def test_zero_samples_rejected(self):
        with pytest.raises(ValueError):
            estimate_pairs(make_oracle(NoiseModel.gaussian(1.0)), (0.0, 0.0), (1.0, 0.0), 0, 10)


def reference_estimate(oracle, x, n):
    """One estimate as a single draw call and mean: the per-point reference."""
    point = oracle.problem.check_point(x)
    value = float(oracle.problem.eval_true(point))
    oracle.draws += n
    if oracle.noise.kind == "none":
        return value
    draws = oracle.noise.draw(oracle._rng, n)
    return float(np.mean(value + draws))


D = 3
STACK_POINTS = np.random.default_rng(11).uniform(-2.0, 2.0, size=(2 * D + 1, D))


class TestSampleMeans:
    @pytest.mark.parametrize("noise", ALL_NOISE, ids=ALL_NOISE_IDS)
    @pytest.mark.parametrize("k", [1, 2, 2 * D + 1])
    @pytest.mark.parametrize("repeats", [1, 3])
    # 4096 with k = 7 puts chunk boundaries inside a round of points
    # (k n > CHUNK_DRAWS); CHUNK_DRAWS + 5 gives every estimate its own chunk.
    @pytest.mark.parametrize("n", [1, 16, 256, 4096, CHUNK_DRAWS + 5])
    def test_matches_per_point_reference_bit_for_bit(self, noise, k, repeats, n):
        a = make_oracle(noise, seed=17, dim=D)
        b = make_oracle(noise, seed=17, dim=D)
        points = STACK_POINTS[:k]
        truth, means = sample_means(a, points, n, repeats)
        reference = [[reference_estimate(b, x, n) for x in points] for _ in range(repeats)]
        assert means.shape == (repeats, k)
        assert np.array_equal(means, np.array(reference))
        assert np.array_equal(truth, [a.problem.eval_true(x) for x in points])
        assert a.draws == b.draws == repeats * k * n
        # Both streams stop at the same place.
        assert a._rng.random() == b._rng.random()

    @pytest.mark.parametrize("noise", ALL_NOISE, ids=ALL_NOISE_IDS)
    def test_callers_match_reference(self, noise):
        a = make_oracle(noise, seed=3, dim=D)
        b = make_oracle(noise, seed=3, dim=D)
        x, y = STACK_POINTS[0], STACK_POINTS[1]
        assert sample_estimate(a, x, 9) == reference_estimate(b, x, 9)
        for n_trial in (5, 7):
            pair = estimate_pair(a, x, y, 5, n_trial)
            assert pair.est_current == reference_estimate(b, x, 5)
            assert pair.est_trial == reference_estimate(b, y, n_trial)
            assert pair.f_true_current == a.problem.eval_true(x)
        assert a.draws == b.draws
        assert a._rng.random() == b._rng.random()

    def test_rejects_bad_shapes_and_counts(self):
        oracle = make_oracle(NoiseModel.gaussian(1.0))
        for points in ([], [0.0, 0.0], [[0.0, 0.0, 0.0]], np.zeros((2, 2, 2))):
            with pytest.raises(ValueError):
                sample_means(oracle, points, 4)
        with pytest.raises(ValueError):
            sample_means(oracle, [[0.0, 0.0]], 0)
        assert oracle.draws == 0

    def test_stencil_memory_is_chunked(self):
        # 41 points at n = 200,000 draw 8.2e6 values: 66 MB as one stack.
        oracle = make_oracle(NoiseModel.gaussian(1.0), dim=20)
        points = np.random.default_rng(0).standard_normal((41, 20))
        tracemalloc.start()
        try:
            sample_means(oracle, points, 200_000)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20
        assert oracle.draws == 41 * 200_000


class TestMomentOracleSamples:
    def test_finite_variance_case_matches_required_samples_scale(self):
        # h=2 forces r=2; with eps_q = 4 k_f^2 the count is the variance
        # rule up to the constant 2/(4) = 1/2.
        variance, k_f = 1.0, 1.0
        for delta in (1.0, 0.5, 0.25):
            n_moment = moment_oracle_samples(variance, 2.0, delta, 2.0, 4.0 * k_f**2)
            n_var = required_samples(variance, k_f, delta)
            assert n_moment == max(1, math.ceil(n_var / 2))

    def test_delta_halved_scales_by_sixteen(self):
        n1 = moment_oracle_samples(1.0, 2.0, 0.5, 2.0, 1.0)
        n2 = moment_oracle_samples(1.0, 2.0, 0.25, 2.0, 1.0)
        assert abs(n2 - 16 * n1) <= 16

    def test_boundary_moment_order_rejected(self):
        with pytest.raises(ValueError):
            moment_oracle_samples(1.0, 1.0, 0.5, 3.0, 1.0)

    def test_moment_order_below_exponent_rejected(self):
        # h=2 needs r >= 2; r=1.5 cannot close the bound.
        with pytest.raises(ValueError):
            moment_oracle_samples(1.0, 1.5, 0.5, 2.0, 1.0)

    def test_heavy_tail_pairing_accepted(self):
        # r=1.5 with h=3 (exponent 2/(h-1)=1) is a valid pairing.
        n = moment_oracle_samples(9.65685424949238, 1.5, 1.0, 3.0, 1.0)
        assert n == 374

    def test_monotone_nonincreasing_in_delta(self):
        deltas = (0.25, 0.5, 1.0, 2.0)
        counts = [moment_oracle_samples(2.0, 1.5, d, 3.0, 1.0) for d in deltas]
        assert counts == sorted(counts, reverse=True)


class TestNoiseModels:
    def test_gaussian_requires_variance(self):
        with pytest.raises(ValueError):
            NoiseModel(kind="gaussian")

    def test_student_t_low_df_requires_moment(self):
        with pytest.raises(ValueError):
            NoiseModel(kind="student_t", df=1.5)
        model = NoiseModel.student_t(1.5)
        r, bound = model.declared_moment
        assert 1.0 < r < 1.5 and bound > 0.0

    def test_student_t_high_df_declares_variance(self):
        model = NoiseModel.student_t(3.0)
        assert model.declared_variance == pytest.approx(3.0)

    def test_pareto_declares_consistent_moment(self):
        model = NoiseModel.pareto_symmetric(1.5)
        r, bound = model.declared_moment
        assert r == 1.5
        assert model.declared_variance is None  # tail index 2: infinite variance
        # Empirical r-th absolute moment respects the declared bound.
        draws = model.draw(np.random.default_rng(17), 10**6)
        assert float(np.mean(np.abs(draws) ** r)) <= bound

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize(
        "make",
        [
            lambda bad: NoiseModel.gaussian(bad),
            lambda bad: NoiseModel.student_t(3.0, scale=bad),
            lambda bad: NoiseModel.student_t(1.5, scale=bad),
            lambda bad: NoiseModel.pareto_symmetric(1.5, scale=bad),
            lambda bad: NoiseModel(kind="student_t", df=1.5, declared_moment=(1.25, bad)),
            lambda bad: NoiseModel(kind="student_t", df=3.0, declared_variance=bad),
        ],
        ids=["gaussian", "t3_scale", "t1.5_scale", "pareto_scale", "moment_bound", "variance"],
    )
    def test_non_finite_parameters_rejected(self, make, bad):
        # NoiseModel.gaussian(nan) used to draw NaN, and gaussian(inf) +-inf.
        with pytest.raises(ValueError, match="positive and finite"):
            make(bad)

    def test_pareto_tail_index_validated(self):
        with pytest.raises(ValueError):
            NoiseModel.pareto_symmetric(1.0)
        with pytest.raises(ValueError):
            NoiseModel.pareto_symmetric(2.5)

    @pytest.mark.parametrize(
        "noise",
        [
            NoiseModel.gaussian(1.0),
            NoiseModel.student_t(3.0),
            NoiseModel.student_t(1.8),
            NoiseModel.pareto_symmetric(1.5),
            NoiseModel.pareto_symmetric(1.9),
        ],
        ids=["gaussian", "t3", "t1.8", "pareto1.5", "pareto1.9"],
    )
    def test_zero_mean_within_four_standard_errors(self, noise):
        draws = noise.draw(np.random.default_rng(99), 10**6)
        se = float(np.std(draws)) / math.sqrt(draws.size)
        assert abs(float(np.mean(draws))) <= 4.0 * se

    @pytest.mark.parametrize("noise", ALL_NOISE, ids=ALL_NOISE_IDS)
    @pytest.mark.parametrize("a,b", [(1, 1), (3, 1000), (1000, 7)])
    def test_split_draws_continue_one_stream(self, noise, a, b):
        whole = noise.draw(np.random.default_rng(21), a + b)
        rng = np.random.default_rng(21)
        parts = np.concatenate([noise.draw(rng, a), noise.draw(rng, b)])
        assert np.array_equal(whole, parts)

    def test_zero_noise_collapse(self):
        oracle = make_oracle(NoiseModel.none())
        x = (0.3, 0.4)
        truth = oracle.problem.eval_true(np.asarray(x))
        for n in (1, 2, 10, 1000):
            assert sample_estimate(oracle, x, n) == truth


class TestSpawn:
    def test_spawned_streams_are_independent_and_reproducible(self):
        base = make_oracle(NoiseModel.gaussian(1.0), seed=3)
        a1 = base.spawn(1)
        a2 = base.spawn(2)
        b1 = make_oracle(NoiseModel.gaussian(1.0), seed=3).spawn(1)
        x = (0.0, 0.0)
        va1 = sample_estimate(a1, x, 10)
        assert va1 == sample_estimate(b1, x, 10)
        assert va1 != sample_estimate(a2, x, 10)


DELTAS = (2.0, 1.0, 0.5, 0.1, 0.01)


class TestSamplePolicy:
    def counts(self, policy):
        return [policy(delta) for delta in DELTAS]

    def test_fixed(self):
        assert self.counts(sample_policy(NoiseModel.gaussian(1.0), "fixed", n=7)) == [7] * 5

    def test_variance_rule(self):
        policy = sample_policy(NoiseModel.gaussian(2.0), "variance", k_f=0.5)
        assert self.counts(policy) == [required_samples(2.0, 0.5, d) for d in DELTAS]

    def test_moment_rule_parameters(self):
        noise = NoiseModel.pareto_symmetric(1.5)
        r, bound = noise.declared_moment
        policy = sample_policy(noise, "moment", k_f=0.5)
        # h = 1 + 2/r and eps_q = 4 k_f^2 when no eps_q is given.
        assert self.counts(policy) == [moment_oracle_samples(bound, r, d, 1.0 + 2.0 / r, 1.0) for d in DELTAS]
        policy = sample_policy(noise, "moment", k_f=0.5, eps_q=3.0)
        assert self.counts(policy) == [moment_oracle_samples(bound, r, d, 1.0 + 2.0 / r, 3.0) for d in DELTAS]

    @pytest.mark.parametrize(
        ("noise", "kind"),
        [
            (NoiseModel.none(), "fixed"),
            (NoiseModel.gaussian(1.0), "variance"),
            (NoiseModel.student_t(3.0), "variance"),
            (NoiseModel.pareto_symmetric(1.8), "variance"),
            (NoiseModel.pareto_symmetric(1.5), "moment"),
            (NoiseModel.student_t(1.5), "moment"),
        ],
    )
    def test_auto_follows_declared_statistics(self, noise, kind):
        auto = self.counts(sample_policy(noise, k_f=0.3, eps_q=0.2))
        assert auto == self.counts(sample_policy(noise, kind, n=1, k_f=0.3, eps_q=0.2))
        assert auto == self.counts(default_sample_policy(noise, 0.3, eps_q=0.2))

    def test_declared_statistics_required(self):
        with pytest.raises(ValueError, match="variance sampler needs noise with a declared variance"):
            sample_policy(NoiseModel.pareto_symmetric(1.5), "variance", k_f=1.0)
        with pytest.raises(ValueError, match="moment sampler needs noise with a declared moment"):
            sample_policy(NoiseModel.gaussian(1.0), "moment", k_f=1.0)

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown sampler kind"):
            sample_policy(NoiseModel.gaussian(1.0), "adaptive", k_f=1.0)


class TestPolicyConstantsCheckedAtBuild:
    @pytest.mark.parametrize(
        ("variance", "k_f"),
        [(1.0, -1.0), (1.0, 0.0), (1.0, math.inf), (1.0, math.nan), (-1.0, 1.0), (math.inf, 1.0)],
    )
    def test_variance_policy(self, variance, k_f):
        with pytest.raises(ValueError, match="positive and finite"):
            variance_sample_policy(variance, k_f)

    @pytest.mark.parametrize(
        ("bound", "r", "h", "eps_q"),
        [
            (-1.0, 1.5, 3.0, 1.0),
            (math.nan, 1.5, 3.0, 1.0),
            (1.0, 1.5, 3.0, math.inf),
            (1.0, 1.5, 3.0, 0.0),
            (1.0, 1.5, math.inf, 1.0),
            (1.0, 1.5, 1.5, 1.0),
            (1.0, 2.5, 3.0, 1.0),
            (1.0, 1.2, 2.0, 1.0),
        ],
    )
    def test_moment_policy(self, bound, r, h, eps_q):
        with pytest.raises(ValueError):
            moment_sample_policy(bound, r, h, eps_q)

    def test_fixed_policy(self):
        with pytest.raises(ValueError):
            fixed_sample_policy(0)
