"""The iteration direct search and the trust-region method share, and its run loop."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sdfo import (
    DirectSearchConfig,
    DirectionGenerator,
    FixedCycle,
    NoiseModel,
    QuasiRandomSphere,
    TrustRegionConfig,
    ds_run,
    fixed_sample_policy,
    get_problem,
    tr_run,
)
from sdfo.trust_region import theta_bound

BASE = {"delta0": 1.0, "tau": 0.5, "tau_bar": 1.0, "max_iters": 5, "theta": 0.5}
RUNS = {
    "direct_search": (ds_run, lambda **kw: DirectSearchConfig(**{**BASE, **kw})),
    "trust_region": (
        tr_run,
        lambda **kw: TrustRegionConfig(**{**BASE, "delta_max": 2.0, **kw}),
    ),
}

NOISES = {
    "none": NoiseModel.none(),
    "gaussian": NoiseModel.gaussian(0.05),
    "student_t": NoiseModel.student_t(3.0, 0.2),
    "pareto_symmetric": NoiseModel.pareto_symmetric(1.5, 0.2),
}


def test_direct_search_config_shares_the_theta_bound():
    cfg = DirectSearchConfig(delta0=1.0, tau=0.5, tau_bar=1.0, max_iters=1, theta=1.0)
    assert cfg.delta_max == math.inf
    # One bound for both configs: a zero model has curvature floor one.
    tr = TrustRegionConfig(
        delta0=1.0, delta_max=2.0, tau=0.5, tau_bar=1.0, max_iters=1, theta=1.0, eps_f_hint=0.3
    )
    ds = DirectSearchConfig(
        delta0=1.0, tau=0.5, tau_bar=1.0, max_iters=1, theta=1.0, eps_f_hint=0.3
    )
    assert theta_bound(ds) == theta_bound(tr) == 4.0 * 0.3 / 1.5


@pytest.mark.parametrize("method", sorted(RUNS))
@pytest.mark.parametrize("value", [2.5, 3.0, True, "3"], ids=["2.5", "3.0", "true", "str"])
def test_config_rejects_a_non_integer_max_iters(method, value):
    # A float used to fail only inside the run (range() of a float), and
    # True ran one iteration with k = True on the final state.
    _, make_cfg = RUNS[method]
    with pytest.raises(ValueError, match="max_iters must be an integer"):
        make_cfg(max_iters=value)


@pytest.mark.parametrize("method", sorted(RUNS))
def test_numpy_integer_max_iters_is_stored_as_int(method):
    run, make_cfg = RUNS[method]
    cfg = make_cfg(max_iters=np.int64(3))
    assert type(cfg.max_iters) is int
    state, trace = run(
        cfg, get_problem("sphere", 2), NoiseModel.none(),
        DirectionGenerator(2, QuasiRandomSphere()), (1.0, 1.0), delta_floor=0.0,
    )
    assert len(trace) == state.k == 3
    assert type(state.k) is int


@pytest.mark.parametrize("method", sorted(RUNS))
def test_run_stops_once_the_acceptance_threshold_underflows(method):
    # From the minimizer with zero noise no step is a decrease.  With no
    # floor the stepsize halves until theta * delta**2 rounds to zero,
    # where a zero threshold would accept every step that ties.
    run, make_cfg = RUNS[method]
    cfg = make_cfg(max_iters=3000)
    state, trace = run(
        cfg, get_problem("sphere", 2), NoiseModel.none(),
        DirectionGenerator(2, QuasiRandomSphere()), (0.0, 0.0), delta_floor=0.0,
    )
    assert 0 < len(trace) < 3000
    assert not any(rec.success for rec in trace)
    assert all(cfg.theta * rec.delta * rec.delta > 0.0 for rec in trace)
    assert cfg.theta * state.delta * state.delta == 0.0
    assert np.array_equal(state.x, np.zeros(2))


@pytest.mark.parametrize("method", sorted(RUNS))
@pytest.mark.parametrize("floor", [math.nan, -1.0, -math.inf], ids=["nan", "negative", "-inf"])
def test_run_rejects_a_bad_delta_floor(method, floor):
    run, make_cfg = RUNS[method]
    with pytest.raises(ValueError, match="delta_floor must be nonnegative"):
        run(
            make_cfg(), get_problem("sphere", 2), NoiseModel.none(),
            DirectionGenerator(2, QuasiRandomSphere()), (1.0, 1.0), delta_floor=floor,
        )


@pytest.mark.parametrize("method", sorted(RUNS))
def test_infinite_delta_floor_runs_no_iteration(method):
    run, make_cfg = RUNS[method]
    state, trace = run(
        make_cfg(), get_problem("sphere", 2), NoiseModel.none(),
        DirectionGenerator(2, QuasiRandomSphere()), (1.0, 1.0), delta_floor=math.inf,
    )
    assert trace == [] and state.k == 0


@pytest.mark.parametrize("method", sorted(RUNS))
@pytest.mark.parametrize(
    ("field", "value"),
    [("theta", math.nan), ("eps_f_hint", math.nan), ("delta0", math.nan), ("delta0", math.inf)],
)
def test_config_rejects_non_finite_parameters(method, field, value):
    # A comparison with NaN is false, so a NaN used to pass the range checks.
    _, make_cfg = RUNS[method]
    with pytest.raises(ValueError, match=field):
        make_cfg(**{field: value})


def test_trust_region_rejects_nan_delta_max():
    with pytest.raises(ValueError, match="delta_max"):
        RUNS["trust_region"][1](delta_max=math.nan)


@st.composite
def mirror_cases(draw):
    d = draw(st.integers(1, 5))
    length = draw(st.integers(1, 6))
    cycle = []
    for _ in range(length):
        axis = draw(st.integers(0, d - 1))
        vec = [0.0] * d
        vec[axis] = draw(st.sampled_from([1.0, -1.0]))
        cycle.append(tuple(vec))
    tau = draw(st.floats(0.05, 0.9))
    return {
        "d": d,
        "cycle": cycle,
        "x0": tuple(draw(st.floats(-3.0, 3.0)) for _ in range(d)),
        "tau": tau,
        "tau_bar": draw(st.floats(1.0, 1.0 + tau)),
        "theta": draw(st.floats(0.01, 2.0)),
        "delta0": draw(st.floats(0.01, 2.0)),
        "seed": draw(st.integers(0, 2**31)),
        "n": draw(st.integers(1, 8)),
        "noise": draw(st.sampled_from(sorted(NOISES))),
        "problem": draw(st.sampled_from(["sphere", "l1norm"])),
    }


@settings(derandomize=True, max_examples=60, deadline=None)
@given(mirror_cases())
def test_zero_model_trust_region_mirrors_direct_search(case):
    # With B = 0 and no radius cap the trust-region step is -delta * g, so
    # the negated direction cycle reproduces direct search exactly; along
    # +/- axis directions ||s|| equals delta, so the acceptance scale agrees.
    d, cycle = case["d"], case["cycle"]
    params = dict(
        delta0=case["delta0"], tau=case["tau"], tau_bar=case["tau_bar"],
        max_iters=40, theta=case["theta"],
    )
    common = dict(seed=case["seed"], sampler=fixed_sample_policy(case["n"]), delta_floor=0.0)
    problem = get_problem(case["problem"], d)
    noise = NOISES[case["noise"]]
    ds_state, ds_trace = ds_run(
        DirectSearchConfig(**params), problem, noise,
        DirectionGenerator(d, FixedCycle(cycle)), case["x0"], **common,
    )
    tr_state, tr_trace = tr_run(
        TrustRegionConfig(delta_max=math.inf, **params), problem, noise,
        DirectionGenerator(d, FixedCycle([tuple(-v for v in vec) for vec in cycle])),
        case["x0"], **common,
    )
    assert len(ds_trace) == len(tr_trace)
    for a, b in zip(ds_trace, tr_trace):
        for name in (
            "k", "success", "delta", "step_norm", "f_true_current", "est_current",
            "est_trial", "samples_current", "samples_trial",
        ):
            assert getattr(a, name) == getattr(b, name), name
        assert np.array_equal(a.x, b.x)
        assert np.array_equal(a.step, b.step)
        assert np.array_equal(a.direction, -b.direction)
    assert np.array_equal(ds_state.x, tr_state.x)
    assert (ds_state.delta, ds_state.k, ds_state.cum_delta_sq) == (
        tr_state.delta, tr_state.k, tr_state.cum_delta_sq
    )
