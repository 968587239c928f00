"""Reference figures: per-layer costs of sdfo measured as medians.

    python3 benchmarks/reference.py

Times single layers through sdfo's public API (estimate_pair, one quasi-
random direction, solve_exact by size, ds_run / tr_run per iteration, one
audit cell, the trace CSV write) and prints a Markdown table of medians
over ``REPEATS`` repeats, with the machine it ran on.  The README's
reference table comes from this script.
"""

from __future__ import annotations

import os
import platform
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
REPEATS = 7

import numpy as np  # noqa: E402

import sdfo  # noqa: E402

from workloads import calibration_loop, dense_model  # noqa: E402


def median_time(fn, repeats: int, per: int = 1) -> float:
    """Median seconds per unit over ``repeats`` timed calls of ``fn``."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append((time.perf_counter() - start) / per)
    return statistics.median(times)


def fmt(seconds: float) -> str:
    if seconds < 1e-3:
        return f"{seconds * 1e6:.1f} µs"
    if seconds < 1.0:
        return f"{seconds * 1e3:.2f} ms"
    return f"{seconds:.2f} s"


def main() -> int:
    reps = REPEATS
    rows: list[tuple[str, float]] = []

    noise = sdfo.NoiseModel.gaussian(0.01)
    oracle = sdfo.StochasticOracle(sdfo.get_problem("l1norm", 2), noise, seed=0)
    x, y = np.array([2.0, 2.0]), np.array([1.5, 2.0])
    for n in (1, 256):
        calls = 2000
        rows.append((f"`estimate_pair`, Gaussian, n={n}", median_time(
            lambda: [sdfo.estimate_pair(oracle, x, y, n, n) for _ in range(calls)], reps, calls)))

    gen = sdfo.DirectionGenerator(20, sdfo.QuasiRandomSphere())
    rows.append(("Quasi-random direction, d=20", median_time(
        lambda: [gen.next_direction() for _ in range(200)], reps, 200)))

    rng = np.random.default_rng(0)
    for n in (2, 5, 10, 20, 50):
        models = [dense_model(rng, n, hard) for hard in (False, True)]
        rows.append((f"`solve_exact`, dense n={n} (random + hard case)", median_time(
            lambda: [sdfo.solve_exact(m) for m in models], reps, len(models))))

    problem = sdfo.get_problem("l1norm", 2)
    sampler = sdfo.fixed_sample_policy(25)
    ds_cfg = sdfo.DirectSearchConfig(delta0=1.0, tau=0.1, tau_bar=1.1, max_iters=2000, theta=0.25)
    tr_cfg = sdfo.TrustRegionConfig(delta0=1.0, delta_max=2.0, tau=0.1, tau_bar=1.1,
                                    max_iters=2000, theta=0.25)

    def per_iteration(run, cfg, prob, x0):
        def once():
            gen = sdfo.DirectionGenerator(prob.dimension, sdfo.QuasiRandomSphere())
            start = time.perf_counter()
            _, records = run(cfg, prob, noise, gen, x0, seed=0, sampler=sampler)
            return (time.perf_counter() - start) / len(records)
        return statistics.median(once() for _ in range(reps))

    rows.append(("`ds_run` per iteration, l1norm d=2, n=25",
                 per_iteration(sdfo.ds_run, ds_cfg, problem, (2.0, 2.0))))
    rows.append(("`tr_run` (zero model) per iteration, l1norm d=2, n=25",
                 per_iteration(sdfo.tr_run, tr_cfg, problem, (2.0, 2.0))))
    for d in (2, 10, 20):
        cfg = sdfo.TrustRegionConfig(delta0=1.0, delta_max=2.0, tau=0.1, tau_bar=1.1, max_iters=150,
                                     theta=0.25, hessian_policy=sdfo.RegressionClipped(0.5, 10.0, 10.0))
        rows.append((f"`tr_run` RegressionClipped per iteration, sphere d={d}, n=25",
                     per_iteration(sdfo.tr_run, cfg, sdfo.get_problem("sphere", d), [1.0] * d)))

    audit_oracle = sdfo.StochasticOracle(sdfo.get_problem("sphere", 2), sdfo.NoiseModel.gaussian(1.0), seed=0)
    g = [2**-0.5, 2**-0.5]
    for delta, n in ((1.0, 1), (0.5, 16), (0.25, 256)):
        spec = sdfo.TailAuditSpec(eps_f=2.0, p_grid=(0.5,), delta_grid=(delta,), trials=1000)
        estimator = sdfo.sampler_estimator(sdfo.fixed_sample_policy(n))
        rows.append((f"One `audit_a1` cell, 1000 trials, n={n}", median_time(
            lambda: sdfo.audit_a1(audit_oracle, estimator, [0.5, -0.25], g, spec), reps)))

    _, records = sdfo.ds_run(ds_cfg, problem, noise, sdfo.DirectionGenerator(2, sdfo.QuasiRandomSphere()),
                             (2.0, 2.0), seed=0, sampler=sampler)
    (ROOT / ".bench_out").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=ROOT / ".bench_out") as tmp:
        path = Path(tmp) / "trace.csv"
        rows.append((f"`write_trace_csv`, {len(records)} rows", median_time(
            lambda: sdfo.write_trace_csv(path, records), reps)))

    calibration = statistics.median(calibration_loop() for _ in range(reps))
    print(f"Medians of {reps} repeats; {os.cpu_count()} CPUs, Python {platform.python_version()}, "
          f"numpy {np.__version__}; calibration loop {calibration * 1e3:.1f} ms "
          f"(the benchmark's reference host: 30 ms).\n")
    print("| What | Median |\n|---|---|")
    for label, seconds in rows:
        print(f"| {label} | {fmt(seconds)} |")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
