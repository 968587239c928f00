"""Oracle construction, sample averaging and sample-size rules."""

import math
import os
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sdfo import (
    EstimatePair,
    NoiseModel,
    StochasticOracle,
    estimate_pair,
    get_problem,
    moment_oracle_samples,
    required_samples,
)
from sdfo import oracle as oracle_module
from sdfo.oracle import (
    CHUNK_DRAWS,
    READ_AHEAD,
    fixed_sample_policy,
    moment_sample_policy,
    sample_means,
    sample_policy,
    variance_sample_policy,
)


def make_oracle(noise, seed=0, name="sphere", dim=2):
    return StochasticOracle(get_problem(name, dim), noise, seed=seed)


def next_value(oracle):
    """The next value of the oracle's stream, read through its reader."""
    return oracle_module._read([oracle], 1)[0, 0]


def kept(oracle):
    """How many values the oracle's reader holds past its stream position."""
    return oracle._block.values.shape[1] - oracle._block.pos


def engine_means(oracles, points, counts):
    """``(S, k)`` true values at ``points`` ``(S, k, d)`` and the estimate
    engine's means of ``counts[s]`` samples at each point of row ``s``, as
    the run loop calls the engine: one oracle per seed, one problem."""
    batch, k, dimension = points.shape
    truth = oracles[0].problem.true_values(points.reshape(-1, dimension)).reshape(batch, k)
    return truth, oracle_module._means(list(oracles), truth, list(counts))


def draw_thread_counts(monkeypatch):
    """Route the engine's draw threads through a recorder: the returned
    list gets the thread count of each call that starts them."""
    counts = []
    draw_threads = oracle_module._draw_threads

    def recorded(count):
        counts.append(count)
        return draw_threads(count)

    monkeypatch.setattr(oracle_module, "_draw_threads", recorded)
    return counts


def no_draw_threads(monkeypatch, why):
    def refuse(count):
        raise AssertionError(why)

    monkeypatch.setattr(oracle_module, "_draw_threads", refuse)


def live_draw_threads():
    return [thread.name for thread in threading.enumerate() if thread.name.startswith("sdfo-draws")]


class TestSampleEstimate:
    def test_zero_noise_exact_value(self):
        oracle = make_oracle(NoiseModel.none())
        assert sample_means(oracle, ((1.0, 1.0),), 1)[1][0, 0] == 2.0

    def test_zero_noise_averaging_constants(self):
        oracle = make_oracle(NoiseModel.none())
        x = (0.1, -0.7)
        assert sample_means(oracle, (x,), 5)[1][0, 0] == sample_means(oracle, (x,), 1)[1][0, 0]

    def test_gaussian_mean_concentrates(self):
        # Mean of 1e6 unit-variance draws: sampling error std is 1e-3, so
        # |mean| < 0.01 with overwhelming margin (and fixed seed).
        def zero(x):
            return 0.0

        from sdfo.problems import TestProblem as Problem

        prob = Problem(dimension=1, eval_true=zero, name="flat")
        oracle = StochasticOracle(prob, NoiseModel.gaussian(1.0), seed=123)
        assert abs(sample_means(oracle, ((0.0,),), 10**6)[1][0, 0]) < 0.01

    def test_stream_advances_by_n(self):
        oracle = make_oracle(NoiseModel.gaussian(1.0))
        sample_means(oracle, ((0.0, 0.0),), 7)
        assert oracle.draws == 7
        sample_means(oracle, ((1.0, 0.0),), 3)
        assert oracle.draws == 10

    def test_sequences_are_seed_deterministic(self):
        a = make_oracle(NoiseModel.gaussian(2.0), seed=42)
        b = make_oracle(NoiseModel.gaussian(2.0), seed=42)
        xs = [(0.0, 0.0), (1.0, 2.0), (0.5, -0.5)]
        va = [sample_means(a, (x,), n)[1][0, 0] for x, n in zip(xs, (1, 4, 9))]
        vb = [sample_means(b, (x,), n)[1][0, 0] for x, n in zip(xs, (1, 4, 9))]
        assert va == vb

    def test_dimension_mismatch_rejected(self):
        oracle = make_oracle(NoiseModel.none())
        with pytest.raises(ValueError):
            sample_means(oracle, ((1.0, 2.0, 3.0),), 1)

    def test_zero_samples_rejected(self):
        oracle = make_oracle(NoiseModel.none())
        with pytest.raises(ValueError):
            sample_means(oracle, ((1.0, 1.0),), 0)


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

    def test_one_sample_where_delta_power_overflows(self):
        # delta**4 is past the float range at delta = 1e100.
        assert required_samples(1.0, 1.0, 1e100) == 1
        assert required_samples(1.0, 1e-100, 1e100) == 1
        assert moment_oracle_samples(1.0, 1.5, 1e100, 3.0, 1.0) == 1
        assert moment_oracle_samples(1.0, 2.0, 1e100, 2.0, 1e-300) == 1

    @pytest.mark.parametrize(
        "rule,args",
        [
            # delta**4 (delta**(h r)) underflows to 0.
            (required_samples, (1.0, 1.0, 1e-100)),
            (moment_oracle_samples, (1.0, 1.5, 1e-200, 3.0, 1.0)),
            # The count itself is past the float range.
            (required_samples, (1.0, 1.0, 1e-80)),
            (moment_oracle_samples, (1.0, 1.5, 1e-60, 3.0, 1.0)),
        ],
    )
    def test_non_finite_count_names_delta(self, rule, args):
        with pytest.raises(ValueError, match=f"delta={args[2]} is not a finite number"):
            rule(*args)

    def test_finite_count_keeps_the_formula_near_the_float_range(self):
        assert required_samples(1.0, 1.0, 1e-60) == math.ceil(1.0 / (1e-60) ** 4)
        assert moment_oracle_samples(1.0, 2.0, 1e-30, 2.0, 1.0) == math.ceil(2.0 / (1e-30) ** 4)

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
        assert pair.est_current == sample_means(b, (x,), 4)[1][0, 0]
        assert pair.est_trial == sample_means(b, (y,), 6)[1][0, 0]


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
        batch = sample_means(a, (x, y), n, trials)[1]
        pairs = [estimate_pair(b, x, y, n, n) for _ in range(trials)]
        loop = np.array([(p.est_current, p.est_trial) for p in pairs])
        assert np.array_equal(batch, loop)
        assert a.draws == b.draws == 2 * n * trials
        # Both streams stop at the same place.
        assert sample_means(a, (x,), 3)[1][0, 0] == sample_means(b, (x,), 3)[1][0, 0]

    def test_zero_samples_rejected(self):
        with pytest.raises(ValueError):
            sample_means(make_oracle(NoiseModel.gaussian(1.0)), ((0.0, 0.0), (1.0, 0.0)), 0, 10)


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
    # (k n > CHUNK_DRAWS); past CHUNK_DRAWS an estimate is drawn in chunks.
    @pytest.mark.parametrize("n", [1, 16, 256, 4096, CHUNK_DRAWS + 5, 3 * CHUNK_DRAWS + 7])
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
        # Both streams stop at the same place.  a's generator may be past it,
        # by what its reader read ahead, so a's next value is its reader's.
        assert next_value(a) == b.noise.draw(b._rng, 1)[0]

    @pytest.mark.parametrize("noise", ALL_NOISE, ids=ALL_NOISE_IDS)
    @pytest.mark.parametrize(
        "k,repeats,n",
        [
            (1, 1, CHUNK_DRAWS),
            (2, 2, CHUNK_DRAWS // 4),
            (1, 1, CHUNK_DRAWS + 1),
            (5, 1, (CHUNK_DRAWS + 1) // 5),
        ],
    )
    def test_one_chunk_boundary_matches_reference(self, noise, k, repeats, n):
        # repeats * k * n at CHUNK_DRAWS is one draw call; one past it is not.
        assert repeats * k * n in (CHUNK_DRAWS, CHUNK_DRAWS + 1)
        self.test_matches_per_point_reference_bit_for_bit(noise, k, repeats, n)

    @pytest.mark.parametrize("noise", ALL_NOISE, ids=ALL_NOISE_IDS)
    def test_callers_match_reference(self, noise):
        a = make_oracle(noise, seed=3, dim=D)
        b = make_oracle(noise, seed=3, dim=D)
        x, y = STACK_POINTS[0], STACK_POINTS[1]
        assert sample_means(a, (x,), 9)[1][0, 0] == reference_estimate(b, x, 9)
        for n_trial in (5, 7):
            pair = estimate_pair(a, x, y, 5, n_trial)
            assert pair.est_current == reference_estimate(b, x, 5)
            assert pair.est_trial == reference_estimate(b, y, n_trial)
            assert pair.f_true_current == a.problem.eval_true(x)
        assert a.draws == b.draws
        assert next_value(a) == b.noise.draw(b._rng, 1)[0]

    @pytest.mark.parametrize("noise", ALL_NOISE, ids=ALL_NOISE_IDS)
    @pytest.mark.parametrize("repeats", [1, 3])
    def test_no_points_give_empty_means_and_leave_the_stream(self, noise, repeats):
        # The stacking divided CHUNK_DRAWS by k * n = 0 for noisy oracles.
        a = make_oracle(noise, seed=5, dim=D)
        b = make_oracle(noise, seed=5, dim=D)
        truth, means = sample_means(a, np.empty((0, D)), 4, repeats)
        assert truth.shape == (0,) and means.shape == (repeats, 0)
        truth, means = engine_means([a, a.spawn(1)], np.empty((2, 0, D)), [4, CHUNK_DRAWS + 1])
        assert truth.shape == means.shape == (2, 0)
        assert a.draws == 0
        assert next_value(a) == b.noise.draw(b._rng, 1)[0]

    def test_rejects_bad_shapes_and_counts(self):
        oracle = make_oracle(NoiseModel.gaussian(1.0))
        for points in ([], [0.0, 0.0], [[0.0, 0.0, 0.0]], np.zeros((2, 2, 2))):
            with pytest.raises(ValueError):
                sample_means(oracle, points, 4)
        with pytest.raises(ValueError):
            sample_means(oracle, [[0.0, 0.0]], 0)
        assert oracle.draws == 0

    @pytest.mark.parametrize(
        "n,repeats,name",
        [(0, 1, "n"), (-1, 1, "n"), (2.5, 1, "n"), (4.0, 1, "n"), ("4", 1, "n"), (True, 1, "n")]
        + [(4, 0, "repeats"), (4, -1, "repeats"), (4, 1.5, "repeats"), (4, None, "repeats"), (4, True, "repeats")],
    )
    def test_bad_counts_leave_the_stream_and_draws_unmoved(self, n, repeats, name):
        oracle = make_oracle(NoiseModel.gaussian(1.0), seed=9)
        with pytest.raises(ValueError, match=rf"^{name} must be an integer >= 1, got "):
            sample_means(oracle, [[0.0, 0.0], [1.0, 0.5]], n, repeats)
        assert oracle.draws == 0
        assert oracle._rng.random() == make_oracle(NoiseModel.gaussian(1.0), seed=9)._rng.random()

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

    @pytest.mark.parametrize("noise", ALL_NOISE[1:], ids=ALL_NOISE_IDS[1:])
    def test_large_estimate_memory_is_chunked(self, noise):
        # One estimate of 2**21 draws: 16.8 MB as one array (83.9 MB peak
        # for Pareto noise, whose draw holds several temporaries).
        oracle = make_oracle(noise)
        tracemalloc.start()
        try:
            sample_means(oracle, ((0.5, -0.25),), 2**21)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        assert oracle.draws == 2**21


class TestBatchMeans:
    """The engine's means for a seed batch equal each seed's own ``sample_means``."""

    @pytest.mark.parametrize("noise", ALL_NOISE, ids=ALL_NOISE_IDS)
    @pytest.mark.parametrize("k", [2, 2 * D + 1])
    @pytest.mark.parametrize(
        "counts",
        [
            lambda k: [16] * 5,
            # Each seed fits one chunk; the five together do not.
            lambda k: [CHUNK_DRAWS // (2 * k)] * 5,
            lambda k: [1, 16, 16, CHUNK_DRAWS + 5, 256],
            lambda k: [CHUNK_DRAWS + 3] * 2,
            # Four seeds past a chunk, with unequal counts, on the draw
            # pool; the last one's n fits a chunk while its k * n does not.
            lambda k: [CHUNK_DRAWS + 5, 1, 3 * CHUNK_DRAWS + 7, 16, 2 * CHUNK_DRAWS, CHUNK_DRAWS // 2 + 1],
        ],
        ids=["equal", "stack-past-a-chunk", "ragged", "past-a-chunk", "pool"],
    )
    def test_matches_each_seed_bit_for_bit(self, noise, k, counts, monkeypatch):
        # More draw threads than a small machine has CPUs: no value may
        # depend on how many there are.
        monkeypatch.setattr(oracle_module, "_usable_cpus", lambda: 3)
        started = draw_thread_counts(monkeypatch)
        counts = counts(k)
        seeds = range(len(counts))
        problem = get_problem("sphere", D)
        batch = [StochasticOracle(problem, noise, seed=s) for s in seeds]
        alone = [make_oracle(noise, seed=s, dim=D) for s in seeds]
        points = np.stack([np.roll(STACK_POINTS[:k], s, axis=0) for s in seeds])
        truth, means = engine_means(batch, points, counts)
        assert truth.shape == means.shape == (len(counts), k)
        # Two or more seeds past a chunk draw on min(S, 3) threads, this one
        # and the others the call starts (a noiseless batch draws nothing);
        # none outlives the call.
        threaded = noise.kind != "none" and sum(k * n > CHUNK_DRAWS for n in counts) > 1
        assert started == ([min(len(counts), 3) - 1] if threaded else [])
        assert live_draw_threads() == []
        for s, n in enumerate(counts):
            own_truth, own_means = sample_means(alone[s], points[s], n)
            assert truth[s].tobytes() == own_truth.tobytes()
            assert means[s].tobytes() == own_means[0].tobytes()
            assert batch[s].draws == alone[s].draws == k * n
            assert batch[s]._rng.random() == alone[s]._rng.random()

    def test_draw_threads_under_frequent_switches(self, monkeypatch):
        # Eight seeds past a chunk on four threads (this one and three
        # started), with the interpreter switching threads every microsecond.
        monkeypatch.setattr(oracle_module, "_usable_cpus", lambda: 4)
        started = draw_thread_counts(monkeypatch)
        counts = [CHUNK_DRAWS + 1 + 97 * s for s in range(8)]
        noise = NoiseModel.student_t(3.0)
        problem = get_problem("sphere", D)
        points = np.stack([np.roll(STACK_POINTS[:2], s, axis=0) for s in range(8)])
        oracles = [StochasticOracle(problem, noise, seed=s) for s in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            means = engine_means(oracles, points, counts)[1]
        finally:
            sys.setswitchinterval(interval)
        assert started == [3]
        for s, n in enumerate(counts):
            alone = make_oracle(noise, seed=s, dim=D)
            assert means[s].tobytes() == sample_means(alone, points[s], n)[1][0].tobytes()
            assert oracles[s]._rng.random() == alone._rng.random()

    def test_shared_block_under_draw_threads(self, monkeypatch):
        # Eight seeds share one block; then four of them draw past a chunk
        # while the other four read what they kept of the same block, all on
        # four threads, with the interpreter switching threads every
        # microsecond.
        monkeypatch.setattr(oracle_module, "_usable_cpus", lambda: 4)
        started = draw_thread_counts(monkeypatch)
        noise = NoiseModel.student_t(3.0)
        problem = get_problem("sphere", D)
        points = np.stack([np.roll(STACK_POINTS[:2], s, axis=0) for s in range(8)])
        plan = [[25] * 8, [CHUNK_DRAWS + 1 + 97 * s if s % 2 else 16 for s in range(8)], [16] * 8]
        oracles = [StochasticOracle(problem, noise, seed=s) for s in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            means = [engine_means(oracles, points, counts)[1] for counts in plan]
        finally:
            sys.setswitchinterval(interval)
        assert started == [3]
        for s in range(8):
            alone = make_oracle(noise, seed=s, dim=D)
            for counts, batch in zip(plan, means):
                assert batch[s].tobytes() == sample_means(alone, points[s], counts[s])[1][0].tobytes()
            assert next_value(oracles[s]) == next_value(alone)

    def test_one_cpu_draws_in_the_calling_thread(self, monkeypatch):
        monkeypatch.setattr(oracle_module, "_usable_cpus", lambda: 1)
        no_draw_threads(monkeypatch, "one usable CPU must not start draw threads")
        counts = [CHUNK_DRAWS + 5, 2 * CHUNK_DRAWS]
        noise = NoiseModel.gaussian(1.0)
        problem = get_problem("sphere", D)
        points = np.stack([STACK_POINTS[:2]] * 2)
        means = engine_means([StochasticOracle(problem, noise, seed=s) for s in (0, 1)], points, counts)[1]
        for s, n in enumerate(counts):
            assert means[s].tobytes() == sample_means(make_oracle(noise, seed=s, dim=D), points[s], n)[1][0].tobytes()

    @pytest.mark.parametrize("cpus", [1, 3])
    def test_noiseless_batch_keeps_its_truths_and_reads_no_stream(self, cpus, monkeypatch):
        # Seeds that fit a chunk, and three seeds past a chunk that a noisy
        # batch would draw on threads: none of them draws.
        monkeypatch.setattr(oracle_module, "_usable_cpus", lambda: cpus)
        no_draw_threads(monkeypatch, "a noiseless batch must not start draw threads")
        counts = [16, CHUNK_DRAWS + 5, 16, 2 * CHUNK_DRAWS + 9, CHUNK_DRAWS // 2 + 1]
        k = 2 * D + 1
        problem = get_problem("sphere", D)
        oracles = [StochasticOracle(problem, NoiseModel.none(), seed=s) for s in range(len(counts))]
        points = np.stack([np.roll(STACK_POINTS[:k], s, axis=0) for s in range(len(counts))])
        truth, means = engine_means(oracles, points, counts)
        assert means is not truth
        assert means.tobytes() == truth.tobytes()
        for s, n in enumerate(counts):
            fresh = StochasticOracle(problem, NoiseModel.none(), seed=s)
            assert oracles[s].draws == k * n
            assert kept(oracles[s]) == 0
            assert oracles[s]._rng.random() == fresh._rng.random()

    def test_no_draw_thread_outlives_the_call(self, monkeypatch):
        # Two seeds past a chunk draw on this thread and one that the call
        # starts and joins, and so do three: a forked process inherits no
        # thread.
        monkeypatch.setattr(oracle_module, "_usable_cpus", lambda: 2)
        started = draw_thread_counts(monkeypatch)
        noise = NoiseModel.gaussian(1.0)
        problem = get_problem("sphere", D)
        points = np.stack([STACK_POINTS[:2]] * 3)
        oracles = [StochasticOracle(problem, noise, seed=s) for s in range(3)]
        for counts in ([CHUNK_DRAWS + 5, 16, 2 * CHUNK_DRAWS], [CHUNK_DRAWS + 1] * 3):
            engine_means(oracles, points, counts)
            assert live_draw_threads() == []
        assert started == [1, 1]

    def test_stacked_draws_stay_within_one_chunk(self):
        # 40 seeds of 2 x 8192 draws: 5.2 MB as one stack.
        problem = get_problem("sphere", 2)
        oracles = [StochasticOracle(problem, NoiseModel.gaussian(1.0), seed=s) for s in range(40)]
        points = np.zeros((40, 2, 2))
        tracemalloc.start()
        try:
            engine_means(oracles, points, [CHUNK_DRAWS // 2] * 40)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * 8 * CHUNK_DRAWS


# Request sizes on both sides of READ_AHEAD and of a chunk.
READ_SIZES = st.one_of(
    st.integers(1, 2 * READ_AHEAD),
    st.sampled_from(
        [READ_AHEAD - 1, READ_AHEAD, READ_AHEAD + 1, CHUNK_DRAWS - 1, CHUNK_DRAWS, CHUNK_DRAWS + 1, 2 * CHUNK_DRAWS + 3]
    ),
)


PLAN_ORACLES = 4
PLAN_POINTS = np.random.default_rng(12).uniform(-2.0, 2.0, size=(3, 2))
# Small counts repeat, so the oracles of a batch share blocks; the others
# straddle READ_AHEAD and a chunk.
PLAN_COUNTS = st.one_of(
    st.sampled_from([1, 3, 25]),
    st.integers(1, READ_AHEAD),
    st.sampled_from([READ_AHEAD - 1, READ_AHEAD, READ_AHEAD + 1, CHUNK_DRAWS // 2 + 1, CHUNK_DRAWS + 3]),
)


@st.composite
def read_plans(draw):
    """Calls on ``PLAN_ORACLES`` oracles: ``(seeds, k, counts, repeats)`` each.

    A call reads the batch as it stands, the batch after a seed left it,
    another ordered subset, or one oracle alone (``sample_means``, with
    ``repeats`` >= 1; a batch call into the engine has ``repeats`` 0).  Counts
    are equal across a call's seeds or ragged.
    """
    batch = list(range(PLAN_ORACLES))
    plan = []
    for _ in range(draw(st.integers(1, 14))):
        kind = draw(st.sampled_from(["batch", "batch", "leave", "subset", "alone"]))
        if kind == "leave" and len(batch) > 1:
            batch.remove(draw(st.sampled_from(batch)))
        seeds = list(batch)
        if kind == "subset":
            seeds = list(draw(st.permutations(range(PLAN_ORACLES))))[: draw(st.integers(1, PLAN_ORACLES))]
        elif kind == "alone":
            seeds = [draw(st.integers(0, PLAN_ORACLES - 1))]
        n = draw(PLAN_COUNTS)
        counts = [n] * len(seeds) if draw(st.booleans()) else [draw(PLAN_COUNTS) for _ in seeds]
        plan.append((seeds, draw(st.integers(1, 3)), counts, draw(st.integers(1, 2)) if kind == "alone" else 0))
    return plan


class TestReader:
    @pytest.mark.parametrize("noise", ALL_NOISE, ids=ALL_NOISE_IDS)
    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(counts=st.lists(READ_SIZES, min_size=1, max_size=12))
    def test_reads_continue_one_draw_bit_for_bit(self, noise, counts):
        oracle = make_oracle(noise, seed=13)
        reference = make_oracle(noise, seed=13)
        taken = []
        for count in counts:
            values = oracle_module._read([oracle], count)
            assert values.shape == (1, count)
            taken.append(values[0].copy())
            # The caller may write into what it gets.
            values[:] = np.nan
            assert kept(oracle) < READ_AHEAD
            if count >= READ_AHEAD:
                # A large request reads no further than it uses.
                assert kept(oracle) == 0
        whole = reference.noise.draw(reference._rng, sum(counts))
        assert np.concatenate(taken).tobytes() == whole.tobytes()
        if counts[-1] >= READ_AHEAD:
            assert oracle._rng.random() == reference._rng.random()

    @pytest.mark.parametrize("noise", ALL_NOISE, ids=ALL_NOISE_IDS)
    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(plan=read_plans())
    def test_interleaved_batches_continue_one_draw_bit_for_bit(self, noise, plan):
        problem = get_problem("sphere", 2)
        oracles = [StochasticOracle(problem, noise, seed=s) for s in range(PLAN_ORACLES)]
        # Per oracle: the true values, count and means of each of its calls,
        # and whether its last call read at least READ_AHEAD values a time.
        calls = [[] for _ in oracles]
        large = [False] * len(oracles)
        for seeds, k, counts, repeats in plan:
            points = PLAN_POINTS[:k]
            if repeats:
                (s,), (n,) = seeds, counts
                truth, means = sample_means(oracles[s], points, n, repeats)
                calls[s].append((np.tile(truth, repeats), n, means.ravel()))
            else:
                stack = np.stack([np.roll(points, s, axis=0) for s in seeds])
                truth, means = engine_means([oracles[s] for s in seeds], stack, counts)
                for s, n, t, row in zip(seeds, counts, truth, means):
                    calls[s].append((t, n, row))
            for s, n in zip(seeds, counts):
                large[s] = n >= READ_AHEAD
            for s, oracle in enumerate(oracles):
                assert kept(oracle) < READ_AHEAD
                if large[s] and k and noise.kind != "none":
                    # A large request reads no further than it uses.
                    assert kept(oracle) == 0
        for s, oracle in enumerate(oracles):
            reference = make_oracle(noise, seed=s)
            whole = reference.noise.draw(reference._rng, oracle.draws)
            used = 0
            for truth, n, means in calls[s]:
                expected = []
                for value in truth:
                    draws = whole[used : used + n]
                    expected.append(value if noise.kind == "none" else np.add.reduce(value + draws) / n)
                    used += n
                assert means.tobytes() == np.array(expected, dtype=float).tobytes()
            assert used == oracle.draws
            if large[s] and noise.kind != "none":
                assert oracle._rng.random() == reference._rng.random()


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

    @pytest.mark.parametrize("variance", [1e-4, 0.5, 1.0, 3.0, 1e6, 1e300])
    @pytest.mark.parametrize("n", [1, 7, READ_AHEAD, CHUNK_DRAWS + 3])
    def test_gaussian_draws_are_numpys_normal_bit_for_bit(self, variance, n):
        # Standard normals times sigma, where normal(0, sigma) adds 0 to them.
        a, b = np.random.default_rng(8), np.random.default_rng(8)
        draws = NoiseModel.gaussian(variance).draw(a, n)
        assert draws.tobytes() == b.normal(0.0, math.sqrt(variance), n).tobytes()
        assert a.random() == b.random()

    @pytest.mark.parametrize("r", [1.01, 1.2, 1.5, 2.0])
    @pytest.mark.parametrize("scale", [0.3, 1.0, 7.0])
    @pytest.mark.parametrize("n", [1, 7, READ_AHEAD, CHUNK_DRAWS + 3])
    def test_pareto_draws_are_the_inversion_formula_bit_for_bit(self, r, scale, n):
        # The in-place draw rounds each step of this one-line formula.
        a, b = np.random.default_rng(8), np.random.default_rng(8)
        draws = NoiseModel.pareto_symmetric(r, scale).draw(a, n)
        shape = r + 0.5
        u = 2.0 * b.random(n)
        upper = np.floor(u)
        expected = scale * (1.0 - 2.0 * upper) * ((1.0 + upper - u) ** (-1.0 / shape) - shape / (shape - 1.0))
        assert draws.tobytes() == expected.tobytes()
        assert a.random() == b.random()

    def test_draws_but_pareto_do_not_depend_on_numpys_simd_dispatch(self):
        # Pareto draws do: numpy dispatches np.power's float64 loop by CPU.
        from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__

        targets = [t for t in __cpu_dispatch__ if __cpu_features__[t]]
        if not targets:
            pytest.skip("numpy dispatches no SIMD target on this CPU")
        script = (
            "import sys, numpy as np\n"
            "from sdfo.oracle import NoiseModel\n"
            "for noise in (NoiseModel.none(), NoiseModel.gaussian(0.01), NoiseModel.student_t(3.0, 0.1),"
            " NoiseModel.student_t(1.5, 0.1)):\n"
            f"    sys.stdout.buffer.write(noise.draw(np.random.default_rng(5), {CHUNK_DRAWS + 3}).tobytes())\n"
        )
        src = str(Path(oracle_module.__file__).parents[1])
        env = {
            **os.environ,
            "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]),
            "NPY_DISABLE_CPU_FEATURES": " ".join(targets),
        }
        child = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, timeout=60, check=True)
        noises = [NoiseModel.none(), NoiseModel.gaussian(0.01), NoiseModel.student_t(3.0, 0.1), NoiseModel.student_t(1.5, 0.1)]
        here = b"".join(noise.draw(np.random.default_rng(5), CHUNK_DRAWS + 3).tobytes() for noise in noises)
        assert child.stdout == here

    @pytest.mark.parametrize("df", [1.5, 3.0])
    @pytest.mark.parametrize("scale", [0.3, 7.0])
    @pytest.mark.parametrize("n", [1, CHUNK_DRAWS + 3])
    def test_student_t_draws_are_numpys_scaled_bit_for_bit(self, df, scale, n):
        a, b = np.random.default_rng(8), np.random.default_rng(8)
        draws = NoiseModel.student_t(df, scale).draw(a, n)
        assert draws.tobytes() == (scale * b.standard_t(df, n)).tobytes()
        assert a.random() == b.random()

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
            assert sample_means(oracle, (x,), n)[1][0, 0] == truth


class TestSpawn:
    def test_spawned_streams_are_independent_and_reproducible(self):
        base = make_oracle(NoiseModel.gaussian(1.0), seed=3)
        a1 = base.spawn(1)
        a2 = base.spawn(2)
        b1 = make_oracle(NoiseModel.gaussian(1.0), seed=3).spawn(1)
        x = (0.0, 0.0)
        va1 = sample_means(a1, (x,), 10)[1][0, 0]
        assert va1 == sample_means(b1, (x,), 10)[1][0, 0]
        assert va1 != sample_means(a2, (x,), 10)[1][0, 0]

    # A float or bool seed used to be truncated by int() and ran seed 1's stream.
    @pytest.mark.parametrize("seed", [1.5, True, "1", -1], ids=["float", "bool", "str", "negative"])
    def test_seed_must_be_an_integer(self, seed):
        with pytest.raises(ValueError, match=r"^seed must be an integer >= 0, got "):
            make_oracle(NoiseModel.gaussian(1.0), seed=seed)

    @pytest.mark.parametrize("key", [1.5, True, "1", -1], ids=["float", "bool", "str", "negative"])
    def test_spawn_key_must_be_an_integer(self, key):
        with pytest.raises(ValueError, match=r"^spawn key must be an integer >= 0, got "):
            make_oracle(NoiseModel.gaussian(1.0), seed=3).spawn(key)

    def test_numpy_integer_seed_and_key_run_their_streams(self):
        a = make_oracle(NoiseModel.gaussian(1.0), seed=np.int64(1))
        assert a._rng.random() == make_oracle(NoiseModel.gaussian(1.0), seed=1)._rng.random()
        b = make_oracle(NoiseModel.gaussian(1.0), seed=3).spawn(np.int32(2))
        assert b._rng.random() == make_oracle(NoiseModel.gaussian(1.0), seed=3).spawn(2)._rng.random()


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

    # A bool is not a count, as for sample_means and the run loop: True
    # would give a 1-sample policy.
    @pytest.mark.parametrize("n", [None, 2.5, 3.0, "3", 0, -1, True, False, np.bool_(True)])
    def test_fixed_count_must_be_an_integer(self, n):
        with pytest.raises(ValueError, match=r"^n must be an integer >= 1, got "):
            fixed_sample_policy(n)
        with pytest.raises(ValueError, match=r"^n must be an integer >= 1, got "):
            sample_policy(NoiseModel.gaussian(1.0), "fixed", n=n)

    def test_fixed_count_is_a_python_int(self):
        assert type(fixed_sample_policy(np.int64(3))(0.5)) is int
        assert type(fixed_sample_policy(np.uint8(3))(0.5)) is int

    @pytest.mark.parametrize("k_f", [None, 0.0, -1.0, math.inf, math.nan, "1"])
    @pytest.mark.parametrize(
        ("noise", "kind"),
        [(NoiseModel.gaussian(1.0), "variance"), (NoiseModel.pareto_symmetric(1.5), "moment"),
         (NoiseModel.gaussian(1.0), "auto")],
    )
    def test_k_f_must_be_positive_and_finite(self, noise, kind, k_f):
        with pytest.raises(ValueError, match=r"^k_f must be positive and finite, got "):
            sample_policy(noise, kind, k_f=k_f)

    def test_moment_rule_with_eps_q_reads_no_k_f(self):
        noise = NoiseModel.pareto_symmetric(1.5)
        assert sample_policy(noise, "moment", eps_q=3.0)(0.5) == sample_policy(
            noise, "moment", k_f=0.5, eps_q=3.0
        )(0.5)
