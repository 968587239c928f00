"""Seed batches, in lockstep and apart: one-seed equality bit for bit, stop reasons, non-finite values."""

import math
import re
import struct
import sys
import threading
import warnings

import numpy as np
import pytest

from sdfo import (
    DirectSearchConfig,
    DirectionGenerator,
    FixedCycle,
    NoiseModel,
    QuasiRandomSphere,
    RegressionClipped,
    TrustRegionConfig,
    ds_run,
    estimate_pair,
    fixed_sample_policy,
    get_problem,
    sample_policy,
    tr_run,
    write_trace_csv,
)
from sdfo import oracle as oracle_module
from sdfo import trust_region
from sdfo.direct_search import propose_ds
from sdfo.oracle import CHUNK_DRAWS, StochasticOracle
from sdfo.problems import TestProblem as Problem
from sdfo.trace import TRACE_COLUMNS, IterationRecord
from sdfo.trust_region import STOP_REASONS, TrustRegionState, propose_tr, run_steps

BASE = {"delta0": 1.0, "tau": 0.1, "tau_bar": 1.1, "theta": 0.25}

# name -> (proposal, one-seed run, config factory, problem, x0)
METHODS = {
    "direct_search": (
        propose_ds, ds_run, lambda **kw: DirectSearchConfig(**{**BASE, **kw}),
        get_problem("l1norm", 2), (2.0, -1.5),
    ),
    "trust_region_zero": (
        propose_tr, tr_run, lambda **kw: TrustRegionConfig(**{**BASE, "delta_max": 2.0, **kw}),
        get_problem("l1norm", 2), (2.0, -1.5),
    ),
    "regression_clipped": (
        propose_tr, tr_run,
        lambda **kw: TrustRegionConfig(
            **{**BASE, "delta_max": 2.0, "hessian_policy": RegressionClipped(0.5, 10.0, 10.0), **kw}
        ),
        get_problem("rosenbrock", 3), (1.5, -0.5, 0.8),
    ),
}

NOISES = {
    "none": NoiseModel.none(),
    "gaussian": NoiseModel.gaussian(0.01),
    "student_t": NoiseModel.student_t(3.0, 0.1),
    "pareto_symmetric": NoiseModel.pareto_symmetric(1.5, 0.1),
}

SEEDS = (0, 1, 2, 3, 4)


def bits(value):
    """A value's exact identity: type and bytes, so NaN and -0.0 compare too."""
    if isinstance(value, np.ndarray):
        return ("array", value.dtype.str, value.shape, value.tobytes())
    if isinstance(value, float):
        return ("float", struct.pack("<d", value))
    return (type(value).__name__, value)


def assert_same_run(batch_run, single_run):
    (state_b, trace_b), (state_s, trace_s) = batch_run, single_run
    for name in ("x", "delta", "k", "cum_delta_sq", "stop_reason"):
        assert bits(getattr(state_b, name)) == bits(getattr(state_s, name)), name
    assert len(trace_b) == len(trace_s)
    for rec_b, rec_s in zip(trace_b, trace_s):
        if type(rec_b) is tuple:  # a row without vectors: its TRACE_COLUMNS values
            assert tuple(map(bits, rec_b)) == tuple(bits(getattr(rec_s, name)) for name in TRACE_COLUMNS)
            continue
        for name in TRACE_COLUMNS + ("x", "direction", "step"):
            assert bits(getattr(rec_b, name)) == bits(getattr(rec_s, name)), (rec_b.k, name)


def batch_and_singles(method, seeds, noise=NOISES["gaussian"], sampler=None, delta_floor=0.0, x0=None, **cfg):
    """A batch over ``seeds`` and one one-seed run per seed, with records,
    checked to agree bit for bit; ``x0`` defaults to the method's."""
    propose, run, make_cfg, problem, start = METHODS[method]
    config, x0 = make_cfg(**cfg), start if x0 is None else x0

    def gen():
        return DirectionGenerator(problem.dimension, QuasiRandomSphere())

    batch = run_steps(propose, config, problem, noise, gen(), x0, seeds, sampler, delta_floor)
    singles = [
        run(config, problem, noise, gen(), x0, seed=seed, sampler=sampler, delta_floor=delta_floor)
        for seed in seeds
    ]
    for batch_run, single_run in zip(batch, singles):
        assert_same_run(batch_run, single_run)
    return batch, singles


@pytest.mark.parametrize("noise", sorted(NOISES))
@pytest.mark.parametrize("method", sorted(METHODS))
def test_batch_equals_one_seed_runs(method, noise):
    batch, singles = batch_and_singles(
        method, SEEDS, NOISES[noise], fixed_sample_policy(3), max_iters=40
    )
    if noise != "none":
        # The seeds' own streams give them different traces.
        assert len({tuple(rec.est_current for rec in trace) for _, trace in singles}) == len(SEEDS)


@pytest.mark.parametrize("method", ["direct_search", "trust_region_zero"])
def test_auto_sampler(method):
    batch_and_singles(method, SEEDS, NoiseModel.gaussian(0.05), None, 0.2, max_iters=40)


def ragged_policy(scale):
    """Counts that follow the scale, so seeds at different radii draw different counts."""
    return 1 + int(20 * scale)


@pytest.mark.parametrize("method", sorted(METHODS))
def test_counts_differ_across_seeds(method):
    # The variance rule with a loose k_f leaves the seeds' acceptance
    # decisions to their noise, so their radii and counts part ways, and
    # some iterations mix stacked seeds with seeds past one chunk.  The
    # regression model's interior steps can be far shorter than the radius,
    # where a delta**-4 count has no cap, so it runs a ragged rule of its own.
    noise = NoiseModel.gaussian(0.5)
    regression = method == "regression_clipped"
    sampler = ragged_policy if regression else sample_policy(noise, "variance", k_f=0.5)
    _, singles = batch_and_singles(method, SEEDS, noise, sampler, 0.05, max_iters=40)
    traces = [trace for _, trace in singles]
    counts = [{trace[k].samples_trial for trace in traces} for k in range(min(map(len, traces)))]
    assert any(len(row) > 1 for row in counts)
    if not regression:
        assert any(min(row) <= CHUNK_DRAWS // 2 < max(row) for row in counts)


@pytest.mark.parametrize("method", sorted(METHODS))
def test_seeds_stop_at_different_iterations(method):
    batch, _ = batch_and_singles(
        method, SEEDS, NoiseModel.gaussian(0.25), fixed_sample_policy(2), delta_floor=0.3,
        max_iters=150,
    )
    lengths = {state.k for state, _ in batch}
    assert len(lengths) > 1
    assert {state.stop_reason for state, _ in batch} <= set(STOP_REASONS)
    assert "delta_floor" in {state.stop_reason for state, _ in batch}


@pytest.mark.parametrize("method", sorted(METHODS))
def test_stacked_draws_cross_a_chunk(method):
    # Each seed's draws fit one chunk; the batch's stacked draws do not.
    points = 2 * METHODS[method][3].dimension + 1 if method == "regression_clipped" else 2
    n = CHUNK_DRAWS // points
    assert points * n <= CHUNK_DRAWS < 3 * points * n
    batch_and_singles(method, (5, 6, 7), sampler=fixed_sample_policy(n), max_iters=3)


@pytest.mark.parametrize("seeds", [(7,), (7, 8)], ids=["one", "two"])
@pytest.mark.parametrize("method", sorted(METHODS))
def test_counts_past_one_chunk(method, seeds):
    n = CHUNK_DRAWS + 5
    _, singles = batch_and_singles(method, seeds, sampler=fixed_sample_policy(n), max_iters=2)
    for _, trace in singles:
        assert [rec.samples_trial for rec in trace] == [n, n]


def reference_run(cfg, problem, noise, gen, x0, seed, n, sign):
    """The shared iteration as a scalar loop over one seed: zero model only."""
    oracle = StochasticOracle(problem, noise, seed)
    x, delta, rows = np.asarray(x0, dtype=float), cfg.delta0, []
    for k in range(cfg.max_iters):
        direction = gen.next_direction()
        step = sign * delta * direction
        norm = math.sqrt(np.add.reduce(step * step))
        scale = delta if sign > 0 else norm
        pair = estimate_pair(oracle, x, x + step, n, n)
        success = pair.est_current - pair.est_trial >= cfg.theta * scale * scale
        rows.append((k, success, delta, norm, pair.f_true_current, pair.est_current, pair.est_trial, n, n))
        x = x + step if success else x
        delta = min(cfg.delta_max, cfg.tau_bar * delta) if success else (1.0 - cfg.tau) * delta
    return rows


@pytest.mark.parametrize("noise", ["gaussian", "pareto_symmetric"])
@pytest.mark.parametrize(("method", "sign"), [("direct_search", 1.0), ("trust_region_zero", -1.0)])
def test_one_seed_run_matches_a_scalar_loop(method, sign, noise):
    propose, run, make_cfg, problem, x0 = METHODS[method]
    cfg = make_cfg(max_iters=60)
    _, trace = run(
        cfg, problem, NOISES[noise], DirectionGenerator(2, QuasiRandomSphere()), x0,
        seed=3, sampler=fixed_sample_policy(4), delta_floor=0.0,
    )
    expected = reference_run(
        cfg, problem, NOISES[noise], DirectionGenerator(2, QuasiRandomSphere()), x0, 3, 4, sign
    )
    assert [tuple(bits(getattr(rec, c)) for c in TRACE_COLUMNS) for rec in trace] == [
        tuple(map(bits, row)) for row in expected
    ]


class TestStopReason:
    @pytest.mark.parametrize("method", sorted(METHODS))
    def test_max_iters(self, method):
        (state, _), = batch_and_singles(method, (0,), sampler=fixed_sample_policy(2), max_iters=3)[0]
        assert (state.k, state.stop_reason) == (3, "max_iters")

    def test_no_iterations(self):
        (state, trace), = batch_and_singles("direct_search", (0,), max_iters=0)[0]
        assert (state.k, state.stop_reason, trace) == (0, "max_iters", [])

    @pytest.mark.parametrize("method", sorted(METHODS))
    def test_delta_floor(self, method):
        # From the minimizer without noise every step fails and halves delta.
        _, run, make_cfg, problem, _ = METHODS[method]
        start = (0.0,) * problem.dimension if problem.name == "l1norm" else (1.0,) * problem.dimension
        state, trace = run(
            make_cfg(max_iters=50, tau=0.5, tau_bar=1.0), problem, NoiseModel.none(),
            DirectionGenerator(problem.dimension, QuasiRandomSphere()), start, delta_floor=0.2,
        )
        assert (state.k, state.delta, state.stop_reason) == (3, 0.125, "delta_floor")
        assert [rec.delta for rec in trace] == [1.0, 0.5, 0.25]

    def test_threshold_underflow(self):
        state, trace = ds_run(
            DirectSearchConfig(**{**BASE, "tau": 0.5, "tau_bar": 1.0, "max_iters": 3000}),
            get_problem("sphere", 2), NoiseModel.none(), DirectionGenerator(2, QuasiRandomSphere()),
            (0.0, 0.0), delta_floor=0.0,
        )
        assert state.stop_reason == "threshold_underflow"
        assert 0 < state.k == len(trace) < 3000
        assert BASE["theta"] * state.delta * state.delta == 0.0

    @pytest.mark.parametrize("method", sorted(METHODS))
    def test_square_underflow_with_theta_past_one(self, method):
        # With theta = 4, delta**2 rounds to zero while theta * delta**2 is
        # still positive; a stencil divides by delta**2, so the seed stops
        # at the first radius whose square rounds to zero.
        _, run, make_cfg, problem, _ = METHODS[method]
        start = (0.0,) * problem.dimension if problem.name == "l1norm" else (1.0,) * problem.dimension
        state, trace = run(
            make_cfg(max_iters=3000, tau=0.5, tau_bar=1.0, theta=4.0), problem, NoiseModel.none(),
            DirectionGenerator(problem.dimension, QuasiRandomSphere()), start, delta_floor=0.0,
        )
        assert (state.stop_reason, state.k) == ("threshold_underflow", len(trace))
        assert state.delta * state.delta == 0.0 < trace[-1].delta * trace[-1].delta
        assert 4.0 * state.delta * state.delta > 0.0

    def test_states_outside_a_run_carry_none(self):
        assert TrustRegionState(x=np.zeros(1), delta=1.0).stop_reason is None


def barrier_problem(value):
    """f(x) = x**2 for x >= 0.5 and ``value`` below it."""
    return Problem(
        dimension=1, eval_true=lambda x: float(x[0] * x[0]) if x[0] >= 0.5 else value, name="barrier"
    )


BARRIER_RUNS = {
    # Direct search steps along d; the trust-region step is -delta * g.
    "direct_search": (propose_ds, ds_run, DirectSearchConfig, FixedCycle([(-1.0,)])),
    "trust_region_zero": (
        propose_tr, tr_run, lambda **kw: TrustRegionConfig(delta_max=2.0, **kw), FixedCycle([(1.0,)])
    ),
}


@pytest.mark.parametrize("value", [math.inf, math.nan], ids=["inf", "nan"])
@pytest.mark.parametrize("method", sorted(BARRIER_RUNS))
def test_non_finite_trial_value_fails_the_step(method, value, tmp_path):
    propose, run, make_cfg, cycle = BARRIER_RUNS[method]
    cfg = make_cfg(delta0=1.0, tau=0.5, tau_bar=1.0, theta=0.25, max_iters=4)
    problem, noise, sampler = barrier_problem(value), NOISES["gaussian"], fixed_sample_policy(3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        batch = run_steps(
            propose, cfg, problem, noise, DirectionGenerator(1, cycle), (1.0,), SEEDS, sampler, 0.0
        )
        singles = [
            run(cfg, problem, noise, DirectionGenerator(1, cycle), (1.0,), seed=seed, sampler=sampler,
                delta_floor=0.0)
            for seed in SEEDS
        ]
    for (state, trace), single in zip(batch, singles):
        assert_same_run((state, trace), single)
        first, second = single[1][:2]
        # The trial point 0 sits past the barrier; 0.5 does not.
        assert not first.success and bits(first.est_trial) == bits(value)
        assert second.delta == 0.5 and second.success
    write_trace_csv(tmp_path / "trace.csv", batch[0][1])
    assert f",{value}," in (tmp_path / "trace.csv").read_text().splitlines()[1]


@pytest.mark.parametrize("method", sorted(BARRIER_RUNS))
def test_minus_infinity_is_an_accepted_decrease(method):
    propose, run, make_cfg, cycle = BARRIER_RUNS[method]
    cfg = make_cfg(delta0=1.0, tau=0.5, tau_bar=1.0, theta=0.25, max_iters=3)
    problem = barrier_problem(-math.inf)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        batch = run_steps(
            propose, cfg, problem, NOISES["gaussian"], DirectionGenerator(1, cycle), (1.0,), SEEDS,
            fixed_sample_policy(3), 0.0,
        )
    for state, trace in batch:
        # Accepted into the region; from there -inf - (-inf) is NaN, a failure.
        assert [rec.success for rec in trace] == [True, False, False]
        assert state.x.tolist() == [0.0]
        assert math.isnan(trace[1].est_current - trace[1].est_trial)


def test_trace_columns_without_vectors_build_plain_records():
    propose, _, make_cfg, problem, x0 = METHODS["direct_search"]
    ((_, trace),) = run_steps(
        propose, make_cfg(max_iters=5), problem, NOISES["gaussian"],
        DirectionGenerator(2, QuasiRandomSphere()), x0, (0,), fixed_sample_policy(2), 0.0,
        vectors=False,
    )
    assert all(type(row) is tuple and len(row) == len(TRACE_COLUMNS) for row in trace)
    assert [IterationRecord(*row).k for row in trace] == list(range(5))


TRACE_TYPES = (int, bool, float, float, float, float, float, int, int)


@pytest.mark.parametrize(
    "sampler", [fixed_sample_policy(3), lambda scale: np.int64(3)], ids=["int", "numpy_int64"]
)
@pytest.mark.parametrize("policy", [None, RegressionClipped(0.5, 10.0, 10.0)], ids=["zero", "regression"])
def test_trace_values_are_python_scalars(policy, sampler):
    # An integer delta_max caps the radius at 2 from the third iteration on.
    cfg = TrustRegionConfig(
        delta0=1, delta_max=2, tau=0.5, tau_bar=1.5, max_iters=4, theta=0.01,
        **({} if policy is None else {"hessian_policy": policy}),
    )
    problem = get_problem("sphere", 1)
    for vectors in (True, False):
        ((state, trace),) = run_steps(
            propose_tr, cfg, problem, NoiseModel.none(), DirectionGenerator(1, FixedCycle([[1.0]])),
            (10.0,), (0,), sampler, 0.0, vectors=vectors,
        )
        assert type(state.delta) is float and type(state.cum_delta_sq) is float
        assert [tuple(map(type, row[: len(TRACE_COLUMNS)])) for row in trace] == [TRACE_TYPES] * 4
        if policy is None:
            assert [row[2] for row in trace] == [1.0, 1.5, 2.0, 2.0] and state.delta == 2.0


@pytest.mark.parametrize(
    "count", [2.9, math.inf, math.nan, True, 0, 25.0], ids=["fraction", "inf", "nan", "bool", "zero", "float"]
)
@pytest.mark.parametrize("method", sorted(METHODS))
def test_unusable_sampler_count_names_the_scale(method, count):
    # Truncated by int(), 2.9 would run with 2 samples and True with 1, and
    # int(inf) raises OverflowError.
    _, run, make_cfg, problem, x0 = METHODS[method]
    gen = DirectionGenerator(problem.dimension, QuasiRandomSphere())
    with pytest.raises(ValueError, match=r"^sample count at scale \S+ must be an integer >= 1, got ") as error:
        run(make_cfg(max_iters=3), problem, NOISES["gaussian"], gen, x0, sampler=lambda scale: count)
    if method != "trust_region_zero":  # the others test their first count at delta0
        assert str(error.value).startswith("sample count at scale 1.0 ")


def test_unusable_count_of_one_seed_stops_the_batch():
    # The seeds' radii part, and the count goes bad below 0.5 only.
    propose, _, make_cfg, problem, x0 = METHODS["direct_search"]
    with pytest.raises(ValueError, match=r"^sample count at scale 0\.4\d* must be an integer >= 1, got 2\.5$"):
        run_steps(
            propose, make_cfg(max_iters=200), problem, NoiseModel.gaussian(0.25),
            DirectionGenerator(2, QuasiRandomSphere()), x0, SEEDS, lambda scale: 3 if scale > 0.5 else 2.5, 0.0,
        )


@pytest.mark.parametrize("seeds", [(), []])
def test_empty_seed_batch_rejected(seeds):
    propose, _, make_cfg, problem, x0 = METHODS["direct_search"]
    with pytest.raises(ValueError, match="at least one seed"):
        run_steps(
            propose, make_cfg(max_iters=1), problem, NoiseModel.none(),
            DirectionGenerator(2, QuasiRandomSphere()), x0, seeds, None, 0.0,
        )


# --- batches that go apart -------------------------------------------------


def live_draw_threads():
    return [thread.name for thread in threading.enumerate() if thread.name.startswith("sdfo-draws")]


def record_apart(monkeypatch):
    """Route ``run_steps``' switch through a recorder: the returned list gets,
    for each batch that goes apart, the iteration it goes apart at and the
    set of read-ahead blocks its seeds' oracles then hold."""
    calls = []
    run_apart = trust_region._run_apart

    def recorded(step, groups):
        calls.append((groups[0][0], {group[2][0]._block for group in groups}))
        return run_apart(step, groups)

    monkeypatch.setattr(trust_region, "_run_apart", recorded)
    return calls


def mid_run_sampler(scale):
    """25 samples per estimate stack; 9000 pass a chunk, so a batch goes
    apart once two seeds' scales have fallen to 0.6."""
    return 25 if scale > 0.6 else 9000


@pytest.mark.parametrize("method", sorted(METHODS))
def test_batch_that_goes_apart_equals_one_seed_runs(method, monkeypatch):
    propose, run, make_cfg, problem, x0 = METHODS[method]
    cfg, noise = make_cfg(max_iters=40), NOISES["gaussian"]

    def gen():
        return DirectionGenerator(problem.dimension, QuasiRandomSphere())

    singles = [
        run(cfg, problem, noise, gen(), x0, seed=seed, sampler=mid_run_sampler, delta_floor=0.0)
        for seed in SEEDS
    ]
    apart = record_apart(monkeypatch)
    # One thread, and more threads than a small machine has CPUs: no value
    # may depend on how many there are, and none outlives the call.
    for cpus in (1, 3):
        monkeypatch.setattr(trust_region, "_usable_cpus", lambda: cpus)
        for vectors in (True, False):
            batch_gen = gen()
            batch = run_steps(
                propose, cfg, problem, noise, batch_gen, x0, SEEDS, mid_run_sampler, 0.0, vectors=vectors
            )
            assert live_draw_threads() == []
            for batch_run, single_run in zip(batch, singles):
                assert_same_run(batch_run, single_run)
            # The generator ends where a lockstep batch leaves it.
            assert batch_gen.cursor == max(state.k for state, _ in batch)
    assert len(apart) == 4 and 0 < apart[0][0] < 40
    assert len({k for k, _ in apart}) == 1


@pytest.mark.parametrize(
    ("reason", "k", "floor", "cfg"),
    [
        ("max_iters", 4, 0.0, {"max_iters": 4}),
        ("delta_floor", 3, 0.2, {"max_iters": 50, "tau": 0.5, "tau_bar": 1.0}),
        # theta * delta**2 = 2**(-1000 - 2k) rounds to zero from k = 38 on.
        ("threshold_underflow", 38, 0.0, {"max_iters": 3000, "tau": 0.5, "tau_bar": 1.0, "theta": 2.0**-1000}),
    ],
    ids=["max_iters", "delta_floor", "threshold_underflow"],
)
@pytest.mark.parametrize("method", sorted(METHODS))
def test_seeds_stop_after_the_batch_went_apart(method, reason, k, floor, cfg, monkeypatch):
    # From the minimizer every step fails and shrinks delta by 1 - tau: the
    # noise, of scale 1e-40, is far below any true increase on the way.
    # 9000 samples per estimate at the first radius make the batch go apart
    # after its first iteration; one sample each keeps the rest cheap.
    problem = METHODS[method][3]
    start = (0.0,) * problem.dimension if problem.name == "l1norm" else (1.0,) * problem.dimension
    monkeypatch.setattr(trust_region, "_usable_cpus", lambda: 3)
    apart = record_apart(monkeypatch)
    batch, _ = batch_and_singles(
        method, SEEDS, NoiseModel.gaussian(1e-80), lambda scale: 9000 if scale > 0.75 else 1, floor, start, **cfg
    )
    assert [state.stop_reason for state, _ in batch] == [reason] * len(SEEDS)
    assert [state.k for state, _ in batch] == [k] * len(SEEDS)
    assert [at for at, _ in apart] == [1]


def test_noiseless_batch_stays_in_lockstep(monkeypatch):
    # Noiseless oracles count their samples but draw none, so no count
    # makes their batch go apart or start a thread.
    def refuse(thread):
        raise AssertionError("a noiseless batch must not start a thread")

    monkeypatch.setattr(trust_region, "_usable_cpus", lambda: 3)
    apart = record_apart(monkeypatch)
    with monkeypatch.context() as patch:
        patch.setattr(threading.Thread, "start", refuse)
        batch, _ = batch_and_singles("direct_search", SEEDS, NoiseModel.none(), lambda scale: 9000, max_iters=5)
    assert apart == []
    assert [row.samples_current for row in batch[0][1]] == [9000] * 5


@pytest.mark.parametrize("method", sorted(METHODS))
def test_one_seed_run_past_a_chunk_stays_in_the_calling_thread(method, monkeypatch):
    # A batch goes apart only once two seeds pass a chunk, so a noisy
    # one-seed run whose every estimate does never starts a thread.
    def refuse(thread):
        raise AssertionError("a one-seed run must not start a thread")

    _, run, make_cfg, problem, x0 = METHODS[method]
    monkeypatch.setattr(trust_region, "_usable_cpus", lambda: 3)
    apart = record_apart(monkeypatch)
    with monkeypatch.context() as patch:
        patch.setattr(threading.Thread, "start", refuse)
        _, trace = run(
            make_cfg(max_iters=3), problem, NOISES["gaussian"],
            DirectionGenerator(problem.dimension, QuasiRandomSphere()), x0, sampler=lambda scale: 9000,
        )
    assert apart == []
    assert [rec.samples_current + rec.samples_trial > CHUNK_DRAWS for rec in trace] == [True] * 3


def test_largest_radius_runs_first(monkeypatch):
    # One thread takes the seed-iterations of a batch that went apart one
    # by one: each goes to a seed whose radius is the largest of the seeds
    # still running, the lowest iteration first among equal radii.
    propose, _, make_cfg, problem, x0 = METHODS["direct_search"]
    cfg = make_cfg(max_iters=30)
    seen, taken = {}, []
    one_seed = trust_region.iterate

    def recorded(propose, cfg, gen, oracles, sampler, x, radii, fx, k):
        out = one_seed(propose, cfg, gen, oracles, sampler, x, radii, fx, k)
        if len(oracles) == 1:
            taken.append(((-radii[0], k), [key for o, key in seen.items() if o is not oracles[0]]))
        seen.update((o, (-r, k + 1)) for o, r in zip(oracles, out[4]))
        return out

    monkeypatch.setattr(trust_region, "_usable_cpus", lambda: 1)
    monkeypatch.setattr(trust_region, "iterate", recorded)
    apart = record_apart(monkeypatch)
    run_steps(
        propose, cfg, problem, NOISES["gaussian"], DirectionGenerator(2, QuasiRandomSphere()), x0, SEEDS,
        mid_run_sampler, 0.0,
    )
    assert len(apart) == 1 and len(taken) == len(SEEDS) * (cfg.max_iters - apart[0][0])
    for key, others in taken:
        assert all(key <= other for other in others if other[1] < cfg.max_iters)


def test_one_cpu_runs_apart_in_the_calling_thread(monkeypatch):
    def refuse(thread):
        raise AssertionError("one usable CPU must not start a thread")

    monkeypatch.setattr(trust_region, "_usable_cpus", lambda: 1)
    apart = record_apart(monkeypatch)
    with monkeypatch.context() as patch:
        patch.setattr(threading.Thread, "start", refuse)
        batch_and_singles("direct_search", SEEDS, sampler=mid_run_sampler, max_iters=30)
    assert len(apart) == 1


def test_shared_block_read_apart_under_frequent_switches(monkeypatch):
    # The stencil at delta0 = 1 takes 9000 samples per point, so the batch
    # goes apart after its first iteration; the acceptance pairs, at step
    # norms below 1, take 25, which leaves the read-ahead of the seeds'
    # streams in one block.  Eight seeds then read it on four threads, with
    # the interpreter switching threads every microsecond.
    propose, run, make_cfg, problem, x0 = METHODS["regression_clipped"]
    cfg, noise, seeds = make_cfg(max_iters=20), NoiseModel.student_t(3.0, 0.1), range(8)

    def sampler(scale):
        return 9000 if scale == 1.0 else 25

    def gen():
        return DirectionGenerator(problem.dimension, QuasiRandomSphere())

    monkeypatch.setattr(trust_region, "_usable_cpus", lambda: 4)
    apart = record_apart(monkeypatch)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        batch = run_steps(propose, cfg, problem, noise, gen(), x0, seeds, sampler, 0.0)
    finally:
        sys.setswitchinterval(interval)
    ((k, blocks),) = apart
    assert k == 1 and len(blocks) == 1 and blocks.pop() is not oracle_module._SPENT
    for seed, batch_run in zip(seeds, batch):
        single_run = run(cfg, problem, noise, gen(), x0, seed=seed, sampler=sampler, delta_floor=0.0)
        assert_same_run(batch_run, single_run)


def test_error_stops_a_batch_that_went_apart(monkeypatch):
    # 9000 samples per estimate at delta0 = 1 make the batch go apart after
    # its first iteration; the count goes bad once a seed's radius falls
    # to 0.5.  The first error is raised once every thread is joined; the
    # run goes on a thread of its own, so that a batch left waiting fails
    # the test instead of hanging it.
    propose, _, make_cfg, problem, x0 = METHODS["direct_search"]
    names, errors = set(), []

    def sampler(scale):
        names.add(threading.current_thread().name)
        return 9000 if scale > 0.5 else 2.5

    def call():
        try:
            run_steps(
                propose, make_cfg(max_iters=200), problem, NOISES["gaussian"],
                DirectionGenerator(2, QuasiRandomSphere()), x0, SEEDS, sampler, 0.0,
            )
        except ValueError as error:
            errors.append(error)

    monkeypatch.setattr(trust_region, "_usable_cpus", lambda: 3)
    apart = record_apart(monkeypatch)
    runner = threading.Thread(target=call, daemon=True)
    runner.start()
    runner.join(60)
    assert not runner.is_alive(), "the batch went on waiting after a seed-iteration raised"
    (error,) = errors
    assert re.fullmatch(r"sample count at scale 0\.4\d* must be an integer >= 1, got 2\.5", str(error))
    assert [k for k, _ in apart] == [1]
    assert any(name.startswith("sdfo-draws") for name in names)
    assert live_draw_threads() == []
