"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.  Every tolerance is pinned here; nothing is
deferred to later calibration.
"""

import math
import time

import numpy as np
import pytest

from sdfo import (
    DirectSearchConfig,
    DirectionGenerator,
    FixedCycle,
    NoiseModel,
    QuadraticModel,
    QuasiRandomSphere,
    RegressionClipped,
    StochasticOracle,
    TailAuditSpec,
    TrustRegionConfig,
    alignment_profile,
    audit_conditions,
    brute_force_min,
    ds_run,
    fixed_sample_policy,
    get_problem,
    kkt_residuals,
    moment_oracle_samples,
    moment_sample_policy,
    sampler_estimator,
    solve_exact,
    stationarity_proxy,
    summarize,
    tr_run,
    validate_theta_tr,
    variance_sample_policy,
)
from sdfo.problems import TestProblem as Problem


def report(name: str, ok: bool, detail: str = "") -> None:
    tag = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[acceptance] {name}: {tag}{suffix}", flush=True)
    assert ok, f"{name}: {detail}"


# --- criterion 1: subproblem exactness -----------------------------------


def random_subproblem(rng, n):
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    w = rng.uniform(-10.0, 10.0, n)
    b = (q * w) @ q.T
    b = 0.5 * (b + b.T)
    g = rng.standard_normal(n)
    g /= np.linalg.norm(g)
    return QuadraticModel(g=g, B=b, radius=float(rng.uniform(0.1, 3.0)))


def hard_subproblem(rng, n):
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    w = np.sort(rng.uniform(0.5, 10.0, n))
    w[0] = -float(rng.uniform(0.5, 10.0))
    b = (q * w) @ q.T
    b = 0.5 * (b + b.T)
    coeffs = rng.standard_normal(n - 1)
    g = q[:, 1:] @ coeffs
    g /= np.linalg.norm(g)
    shifted = np.abs(q[:, 1:].T @ g) / (w[1:] - w[0])
    radius = 2.0 * float(np.linalg.norm(shifted))
    return QuadraticModel(g=g, B=b, radius=radius)


def certificate_ok(model, sol):
    res = kkt_residuals(model, sol)
    norm_s = float(np.linalg.norm(sol.s))
    checks = (
        norm_s <= model.radius * (1.0 + 1e-10),
        sol.multiplier >= 0.0,
        res["psd_margin"] >= -1e-8,
        res["complementarity"] <= 1e-8,
        res["stationarity"] <= 1e-6 * (1.0 + abs(sol.multiplier)),
        (not sol.on_boundary) or abs(norm_s - model.radius) <= 1e-8 * model.radius,
        sol.model_decrease <= 1e-12,
    )
    return all(checks)


def test_criterion_1_subproblem_exactness():
    start = time.monotonic()
    worst_gap = -math.inf
    certified = True
    instances = 0
    for n in range(1, 6):
        rng = np.random.default_rng(1000 + n)
        models = [random_subproblem(rng, n) for _ in range(200)]
        if n >= 2:
            models += [hard_subproblem(rng, n) for _ in range(20)]
        for i, model in enumerate(models):
            sol = solve_exact(model)
            certified = certified and certificate_ok(model, sol)
            _, brute_value = brute_force_min(model, 10**5, seed=i)
            worst_gap = max(worst_gap, sol.model_decrease - brute_value)
            instances += 1
    elapsed = time.monotonic() - start
    ok = certified and worst_gap <= 1e-6 and elapsed < 60.0
    report(
        "criterion 1 subproblem exactness",
        ok,
        f"{instances} instances, worst gap {worst_gap:.2e}, {elapsed:.1f}s",
    )


# --- criteria 2 and 3: tail-bound and variance audits ---------------------

AUDIT_X = np.array([0.5, -0.25])
AUDIT_G = np.array([1.0, 1.0]) / math.sqrt(2.0)
K_F = 1.0


def test_criterion_2_tail_bound_audit():
    start = time.monotonic()
    oracle = StochasticOracle(get_problem("sphere", 2), NoiseModel.gaussian(1.0), seed=2024)
    estimator = sampler_estimator(variance_sample_policy(1.0, K_F))
    spec = TailAuditSpec(
        eps_f=2.0 * K_F,
        eps_q=4.0 * K_F**2,
        p_grid=(0.5, 0.25, 0.1, 0.05),
        delta_grid=(1.0, 0.5, 0.25),
        trials=10**5,
        seed=0,
    )
    # One estimate set per delta serves both: each report is the one it
    # would be alone.
    rep_a1, rep_a2 = audit_conditions(("a1", "a2"), oracle, estimator, AUDIT_X, AUDIT_G, spec)
    elapsed = time.monotonic() - start
    ok = rep_a1.passed and rep_a2.passed and elapsed < 300.0
    worst = max(c.wilson_upper / c.bound for c in rep_a1.cells + rep_a2.cells)
    report(
        "criterion 2 tail-bound audit",
        ok,
        f"24 cells x 1e5 trials, worst wilson/bound {worst:.3f}, {elapsed:.1f}s",
    )


def test_criterion_3_variance_condition_audit():
    oracle = StochasticOracle(get_problem("sphere", 2), NoiseModel.gaussian(1.0), seed=2024)
    estimator = sampler_estimator(variance_sample_policy(1.0, K_F))
    spec = TailAuditSpec(delta_grid=(1.0, 0.5, 0.25), trials=10**5, seed=0)
    (rep,) = audit_conditions(("variance",), oracle, estimator, AUDIT_X, AUDIT_G, spec, K_F)
    worst = max(c.empirical_moment - (c.bound + 3.0 * c.slack) for c in rep.cells)
    report(
        "criterion 3 variance-condition audit",
        rep.passed,
        f"worst excess over bound+3se {worst:.2e}",
    )


# --- criteria 4 and 5: noisy-run batches ----------------------------------

RUN_SEEDS = 20
RUN_ITERS = 2000


@pytest.fixture(scope="module")
def noisy_l1_batches():
    problem = get_problem("l1norm", 2)
    noise = NoiseModel.gaussian(0.01)
    sampler = fixed_sample_policy(25)
    ds_cfg = DirectSearchConfig(
        delta0=1.0, tau=0.1, tau_bar=1.1, max_iters=RUN_ITERS, theta=0.25, eps_f_hint=0.01
    )
    tr_cfg = TrustRegionConfig(
        delta0=1.0, delta_max=2.0, tau=0.1, tau_bar=1.1, max_iters=RUN_ITERS,
        theta=0.25, eps_f_hint=0.01,
    )
    assert validate_theta_tr(ds_cfg).ok
    assert validate_theta_tr(tr_cfg).ok
    batches = {}
    for label, cfg, run in (("direct_search", ds_cfg, ds_run), ("trust_region", tr_cfg, tr_run)):
        summaries, proxies = [], []
        for seed in range(RUN_SEEDS):
            gen = DirectionGenerator(2, QuasiRandomSphere())
            _, trace = run(
                cfg, problem, noise, gen, (2.0, 2.0), seed=seed,
                sampler=sampler, delta_floor=0.0,
            )
            assert len(trace) == RUN_ITERS
            summaries.append(summarize(trace, seed=seed, f_star=0.0))
            proxies.append(stationarity_proxy(trace, problem))
        batches[label] = (cfg.delta0, summaries, proxies)
    return batches


def test_criterion_4_radius_summability(noisy_l1_batches):
    details = []
    ok = True
    for label, (delta0, summaries, _) in noisy_l1_batches.items():
        good = sum(
            1
            for s in summaries
            if s.final_delta < 1e-3 * delta0 and s.tail_fraction < 0.01
        )
        details.append(f"{label} {good}/{RUN_SEEDS}")
        ok = ok and good >= 18
    report("criterion 4 radius summability", ok, ", ".join(details))


def test_criterion_5_stationarity_proxy(noisy_l1_batches):
    details = []
    ok = True
    for label, (_, _, proxies) in noisy_l1_batches.items():
        med = float(np.median(proxies))
        details.append(f"{label} median {med:.4f}")
        ok = ok and med < 0.05
    report("criterion 5 stationarity proxy", ok, ", ".join(details))


# --- criterion 6: zero-noise bit-for-bit reproduction ----------------------


def reference_trajectories(iters=50):
    """Hand-written deterministic reference for both update rules."""
    problem = get_problem("sphere", 2)
    cycle = [
        np.array([1.0, 0.0]),
        np.array([0.0, 1.0]),
        np.array([-1.0, 0.0]),
        np.array([0.0, -1.0]),
    ]
    theta, tau, tau_bar, delta_max = 0.3, 0.5, 1.25, 2.5
    rows_ds, rows_tr = [], []
    x_ds, x_tr = np.array([2.0, 2.0]), np.array([2.0, 2.0])
    d_ds, d_tr = 1.0, 1.0
    for k in range(iters):
        direction = cycle[k % 4]
        # direct search along the cycle direction
        step = d_ds * direction
        trial = x_ds + step
        success = problem.eval_true(x_ds) - problem.eval_true(trial) >= theta * d_ds * d_ds
        rows_ds.append((x_ds.copy(), d_ds, success, problem.eval_true(x_ds), problem.eval_true(trial)))
        if success:
            x_ds, d_ds = trial, tau_bar * d_ds
        else:
            d_ds = (1.0 - tau) * d_ds
        # trust region with zero model matrix fed the negated direction:
        # the exact subproblem step is -delta * (-direction) = delta * direction
        step = -d_tr * (-direction)
        trial = x_tr + step
        step_norm = float(np.linalg.norm(step))
        ratio = (problem.eval_true(x_tr) - problem.eval_true(trial)) / (theta * step_norm * step_norm)
        success = ratio >= 1.0
        rows_tr.append((x_tr.copy(), d_tr, success, problem.eval_true(x_tr), problem.eval_true(trial)))
        if success:
            x_tr, d_tr = trial, min(delta_max, tau_bar * d_tr)
        else:
            d_tr = (1.0 - tau) * d_tr
    return rows_ds, rows_tr, (x_ds, d_ds), (x_tr, d_tr)


def test_criterion_6_zero_noise_bit_for_bit():
    problem = get_problem("sphere", 2)
    noise = NoiseModel.none()
    cycle = [(1.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (0.0, -1.0)]
    neg_cycle = [(-a, -b) for a, b in cycle]
    rows_ds, rows_tr, (ref_x_ds, ref_d_ds), (ref_x_tr, ref_d_tr) = reference_trajectories()

    ds_cfg = DirectSearchConfig(delta0=1.0, tau=0.5, tau_bar=1.25, max_iters=50, theta=0.3)
    ds_state, ds_trace = ds_run(
        ds_cfg, problem, noise, DirectionGenerator(2, FixedCycle(cycle)),
        (2.0, 2.0), delta_floor=0.0,
    )
    tr_cfg = TrustRegionConfig(
        delta0=1.0, delta_max=2.5, tau=0.5, tau_bar=1.25, max_iters=50, theta=0.3
    )
    tr_state, tr_trace = tr_run(
        tr_cfg, problem, noise, DirectionGenerator(2, FixedCycle(neg_cycle)),
        (2.0, 2.0), delta_floor=0.0,
    )

    def matches(trace, rows, state, ref_x, ref_d):
        if len(trace) != len(rows):
            return False
        for rec, (x, delta, success, est_c, est_t) in zip(trace, rows):
            if not (
                np.array_equal(rec.x, x)
                and rec.delta == delta
                and rec.success == success
                and rec.est_current == est_c
                and rec.est_trial == est_t
            ):
                return False
        return np.array_equal(state.x, ref_x) and state.delta == ref_d

    ok_ds = matches(ds_trace, rows_ds, ds_state, ref_x_ds, ref_d_ds)
    ok_tr = matches(tr_trace, rows_tr, tr_state, ref_x_tr, ref_d_tr)
    succ = sum(r.success for r in ds_trace)
    report(
        "criterion 6 zero-noise bit-for-bit",
        ok_ds and ok_tr,
        f"direct_search={ok_ds}, trust_region={ok_tr}, {succ}/50 successes",
    )


# --- criterion 7: step alignment -------------------------------------------


def test_criterion_7_step_alignment():
    a = np.array([2.0, 8.0])

    def quad(x):
        return float(0.5 * np.sum(a * x * x))

    problem = Problem(dimension=2, eval_true=quad, optimum_value=0.0, name="quad_diag")
    cfg = TrustRegionConfig(
        delta0=1.0, delta_max=2.0, tau=0.5, tau_bar=1.25, max_iters=500,
        hessian_policy=RegressionClipped(q=0.5, m=10.0, M=10.0), theta=0.5,
    )
    gen = DirectionGenerator(2, QuasiRandomSphere())
    _, trace = tr_run(cfg, problem, NoiseModel.none(), gen, (1.5, 1.0), seed=0, delta_floor=0.0)
    residuals = alignment_profile(trace)
    quartile = residuals[3 * len(residuals) // 4 :]
    worst = max(quartile)
    report(
        "criterion 7 step alignment",
        len(trace) == 500 and worst < 0.1,
        f"final-quartile max residual {worst:.2e}",
    )


# --- criterion 8: heavy-tail audit ------------------------------------------


def test_criterion_8_heavy_tail_audit():
    noise = NoiseModel.pareto_symmetric(1.5)
    r, bound = noise.declared_moment
    eps_q, h = 1.0, 3.0
    oracle = StochasticOracle(get_problem("sphere", 2), noise, seed=77)
    estimator = sampler_estimator(moment_sample_policy(bound, r, h, eps_q))
    spec = TailAuditSpec(
        eps_f=1.0, eps_q=eps_q, delta_grid=(1.0,), trials=10**5,
        h=h, alpha_grid=(1.0, 2.0, 4.0, 8.0, 16.0), seed=0,
    )
    (rep,) = audit_conditions(("a2h",), oracle, estimator, AUDIT_X, AUDIT_G, spec)
    expected_n = moment_oracle_samples(bound, r, 1.0, h, eps_q)
    counts_ok = all(c.samples_per_estimate == expected_n for c in rep.cells)
    report(
        "criterion 8 heavy-tail audit",
        rep.passed and counts_ok and len(rep.cells) == 5,
        f"n={expected_n} per estimate, worst freq {max(c.frequency for c in rep.cells):.5f}",
    )


# --- criterion 9: direction density -----------------------------------------


def test_criterion_9_direction_density():
    def generate():
        gen = DirectionGenerator(3, QuasiRandomSphere())
        return np.array([gen.next_direction() for _ in range(10**4)])

    directions = generate()
    rng = np.random.default_rng(314)
    centers = rng.standard_normal((100, 3))
    centers /= np.linalg.norm(centers, axis=1)[:, None]
    best = (directions @ centers.T).max(axis=0)
    hits = int(np.sum(best >= math.cos(math.radians(30.0))))
    deterministic = np.array_equal(directions, generate())
    report(
        "criterion 9 direction density",
        hits == 100 and deterministic,
        f"{hits}/100 caps hit, deterministic={deterministic}",
    )
