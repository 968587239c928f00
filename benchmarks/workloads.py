"""Workload process of the sdfo benchmark: inputs, units of work, timing.

run.py starts this file as a child process::

    python3 benchmarks/workloads.py --workload NAME --seed N --out DIR \
        [--seconds S --trace 0|1 | --setup-only]

It imports sdfo from the checkout's ``src``, writes the workload's inputs
under DIR, parses each input config with ``sdfo.config.load_config``, and
stamps the moment timed work can begin.  With
``--setup-only`` it stops there.  Otherwise it repeats the workload's unit
of work for S seconds in whole repetitions and writes ``result.json`` to
DIR: the wall time of every part of every repetition, and the calibration
loop times taken before the first part and after each part.  Outputs are
checked by run.py in a separate process, so this process's peak resident
memory holds only sdfo's work.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import sdfo  # noqa: E402
import sdfo.cli  # noqa: E402
import sdfo.config  # noqa: E402
import sdfo.subproblem  # noqa: E402

from tracing import SUBPROBLEM_SIZES, Tracer  # noqa: E402

# Repetitions 0 and 1 run identical inputs; run.py checks that their output
# files are byte-identical.
MIN_REPS = 3

SHIPPED = ("direct_search_l1norm", "trust_region_l1norm")
AUDIT_TRIALS = 1000


def input_index(rep: int) -> int:
    return max(0, rep - 1)


def _load_json(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


def _write_json(path: Path, data: dict) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return path


def _cli(argv: list[str]) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        code = sdfo.cli.main(argv)
    if code != 0:
        raise RuntimeError(f"sdfo {' '.join(argv)} exited with {code}")


class OptimizeWorkload:
    """``sdfo run`` on a set of configs; one repetition runs each once.

    Every repetition shifts the seeds of each config by a multiple of its
    batch size, derived from the benchmark seed, so repetitions and runs
    see fresh oracle streams.
    """

    def __init__(self, out: Path, seed: int, configs: dict[str, dict]) -> None:
        self.out = out
        self.seed = seed
        self.configs = {
            name: _write_json(out / "inputs" / f"{name}.json", cfg) for name, cfg in configs.items()
        }

    def prepare(self, rep: int) -> list[list[str]]:
        index = input_index(rep)
        calls = []
        for name, path in self.configs.items():
            batch = len(_load_json(path)["seeds"])
            offset = batch * (10_000 * self.seed + index)
            out_dir = self.out / f"rep{rep:03d}" / name
            calls.append(["run", str(path), "--jobs", "1", "--out", str(out_dir),
                          "--seed-offset", str(offset)])
        return calls

    run_part = staticmethod(_cli)


def _shipped(root: Path, **overrides) -> dict[str, dict]:
    configs = {}
    for name in SHIPPED:
        cfg = _load_json(root / "configs" / f"{name}.json")
        cfg.update(overrides)
        configs[name] = cfg
    return configs


def optimize_l1_d2(root: Path, out: Path, seed: int) -> OptimizeWorkload:
    return OptimizeWorkload(out, seed, _shipped(root))


def optimize_paper_rule(root: Path, out: Path, seed: int) -> OptimizeWorkload:
    # n = ceil(V / (k_f^2 delta^4)) with the default k_f reaches about 1.8e6
    # samples per estimate just above delta = 0.05.
    return OptimizeWorkload(out, seed, _shipped(root, sampler={"kind": "auto"}, delta_floor=0.05))


def optimize_regression_d20(root: Path, out: Path, seed: int) -> OptimizeWorkload:
    d = 20
    cfg = {
        "schema_version": 1,
        "algorithm": "trust_region",
        "problem": {"name": "sphere", "dimension": d},
        # Noise small against theta * ||s||^2, so acceptance follows the true
        # decrease and every seed ends near 0.94 * f(x0).
        "noise": {"kind": "gaussian", "variance": 0.0001},
        "seeds": [0, 1, 2, 3, 4],
        "x0": [1.0] * d,
        "config": {
            "delta0": 1.0,
            "delta_max": 2.0,
            "tau": 0.1,
            "tau_bar": 1.1,
            "max_iters": 150,
            "theta": 0.25,
            "hessian": {"policy": "regression_clipped", "q": 0.5, "m": 10.0, "M": 10.0},
        },
        "sampler": {"kind": "fixed", "n": 4},
    }
    return OptimizeWorkload(out, seed, {"trust_region_regression_d20": cfg})


class AuditWorkload:
    """``sdfo audit`` on the shipped Gaussian grid plus a Pareto ``a2h`` audit.

    The audit seed of each repetition comes from the benchmark seed.
    """

    def __init__(self, root: Path, out: Path, seed: int) -> None:
        self.out = out
        self.seed = seed
        gauss = _load_json(root / "configs" / "audit_gaussian.json")
        gauss["audit"]["trials"] = AUDIT_TRIALS
        pareto = {
            "schema_version": 1,
            "algorithm": "audit",
            "problem": {"name": "sphere", "dimension": 2},
            "noise": {"kind": "pareto_symmetric", "r": 1.5},
            "sampler": {"kind": "moment", "k_f": 0.5, "eps_q": 1.0},
            "audit": {
                "conditions": ["a2h"],
                "eps_f": 1.0,
                "eps_q": 1.0,
                "h": 3.0,
                "alpha_grid": [1.0, 2.0, 4.0, 8.0, 16.0],
                "delta_grid": [1.0],
                "trials": AUDIT_TRIALS,
                "confidence": 0.99,
                "x": [0.5, -0.25],
                "direction": [0.7071067811865476, 0.7071067811865476],
                "seed": 0,
            },
        }
        self.templates = {"gauss": gauss, "pareto": pareto}
        self.prepare(0)  # writes the first inputs, so set-up parses them

    def prepare(self, rep: int) -> list[list[str]]:
        calls = []
        for name, template in self.templates.items():
            cfg = json.loads(json.dumps(template))
            cfg["audit"]["seed"] = 10_000 * self.seed + input_index(rep)
            path = _write_json(self.out / "inputs" / f"{name}_rep{rep:03d}.json", cfg)
            calls.append(["audit", str(path), "--out", str(self.out / f"rep{rep:03d}" / name)])
        return calls

    run_part = staticmethod(_cli)


def dense_model(rng: np.random.Generator, n: int, hard: bool) -> sdfo.QuadraticModel:
    """Seeded dense model; ``hard`` puts g orthogonal to a negative lowest eigenspace."""
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    w = np.sort(rng.uniform(-10.0, 10.0, n))
    if hard:
        w[1:] = np.sort(rng.uniform(0.5, 10.0, n - 1))
        w[0] = -float(rng.uniform(0.5, 10.0))
    b = (q * w) @ q.T
    b = 0.5 * (b + b.T)
    if hard:
        g = q[:, 1:] @ rng.standard_normal(n - 1)
        g /= np.linalg.norm(g)
        short = np.linalg.norm((q[:, 1:].T @ g) / (w[1:] - w[0]))
        radius = float(2.0 * short)
    else:
        g = rng.standard_normal(n)
        g /= np.linalg.norm(g)
        radius = float(rng.uniform(0.1, 3.0))
    return sdfo.QuadraticModel(g=g, B=b, radius=radius)


class SubproblemWorkload:
    """``solve_exact`` on a batch of dense models: per size, one random and one hard case."""

    def __init__(self, root: Path, out: Path, seed: int) -> None:
        self.out = out
        self.seed = seed

    def prepare(self, rep: int) -> list[list[tuple[str, sdfo.QuadraticModel]]]:
        """One part per size: a random and a hard model."""
        rng = np.random.default_rng([self.seed, input_index(rep)])
        return [
            [(f"{kind}_n{n}", dense_model(rng, n, kind == "hard")) for kind in ("random", "hard")]
            for n in SUBPROBLEM_SIZES
        ]

    def run_part(self, models) -> dict:
        # Looked up at call time so a traced repetition sees the wrapper.
        return {name: sdfo.subproblem.solve_exact(model) for name, model in models}

    def save(self, rep: int, parts, solutions: dict) -> None:
        arrays = {}
        for name, model in (pair for part in parts for pair in part):
            sol = solutions[name]
            arrays[f"{name}.B"] = model.B
            arrays[f"{name}.g"] = model.g
            arrays[f"{name}.radius"] = np.array(model.radius)
            arrays[f"{name}.s"] = sol.s
            arrays[f"{name}.multiplier"] = np.array(sol.multiplier)
        (self.out / f"rep{rep:03d}").mkdir(parents=True, exist_ok=True)
        np.savez(self.out / f"rep{rep:03d}" / "subproblems.npz", **arrays)


WORKLOADS = {
    "optimize-l1-d2": optimize_l1_d2,
    "optimize-regression-d20": optimize_regression_d20,
    "optimize-paper-rule": optimize_paper_rule,
    "audit-tails": AuditWorkload,
    "subproblem-dense": SubproblemWorkload,
}


def calibration_loop() -> float:
    """Seconds taken by a fixed mix of interpreter work, small numpy calls and draws.

    The mix resembles the optimizer loops: scalar Python, tiny arrays and
    one larger draw.  It does not touch sdfo, so its time tracks the host's
    speed alone, and run.py divides workload times by it.
    """
    rng = np.random.default_rng(2202)
    x = np.zeros(4)
    acc = 0.0
    start = time.perf_counter()
    for i in range(2000):
        acc += float(np.mean(1.0 + rng.normal(0.0, 0.1, 32)))
        x = x + 1e-3 * np.array([math.sin(i), math.cos(i), 1.0, -1.0])
        acc += float(np.linalg.norm(x)) + sum(v * v for v in (1.0, 2.0, 3.0))
    acc += float(rng.normal(0.0, 1.0, 200_000).sum())
    elapsed = time.perf_counter() - start
    if not math.isfinite(acc):
        raise RuntimeError("calibration loop produced a non-finite value")
    return elapsed


def bare_normal_draws_per_s() -> float:
    """Throughput of ``Generator.normal`` on one large array, median of 5."""
    rng = np.random.default_rng(0)
    rates = []
    for _ in range(5):
        start = time.perf_counter()
        rng.normal(0.0, 1.0, 1_000_000)
        rates.append(1_000_000 / (time.perf_counter() - start))
    return statistics.median(rates)


def peak_rss_mb() -> float:
    """This process's peak resident memory.

    VmHWM belongs to the process image, so unlike ``ru_maxrss`` it does not
    carry over the parent's peak across fork and exec.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    out = Path(args.out)
    workload = WORKLOADS[args.workload](ROOT, out, args.seed)
    for path in sorted((out / "inputs").glob("*.json")):
        sdfo.config.load_config(path)
    ready = time.perf_counter()
    result = {"ready": ready, "sdfo_file": sdfo.__file__, "numpy": np.__version__}
    if args.setup_only:
        result["calibration"] = [calibration_loop() for _ in range(3)]
        _write_json(out / "result.json", result)
        return 0

    tracer = Tracer() if args.trace else None
    reps = []
    calibration = [calibration_loop()]
    deadline = ready + args.seconds
    rep = 0
    while rep < MIN_REPS or time.perf_counter() < deadline:
        # A repetition runs in parts (one config, audit or model size each),
        # with a calibration loop after every part.
        parts = workload.prepare(rep)
        traced = tracer is not None and rep % 2 == 1
        walls, outputs = [], {}
        for part in parts:
            if traced:
                tracer.install()
            start = time.perf_counter()
            try:
                outputs.update(workload.run_part(part) or {})
            finally:
                walls.append(time.perf_counter() - start)
                if traced:
                    tracer.uninstall()
            calibration.append(calibration_loop())
        if traced:
            tracer.end_repetition()
        if isinstance(workload, SubproblemWorkload):
            workload.save(rep, parts, outputs)
        reps.append({"rep": rep, "walls": walls, "traced": traced})
        rep += 1
    result["peak_rss_mb"] = peak_rss_mb()
    result["reps"] = reps
    result["calibration"] = calibration
    if tracer is not None:
        untraced = [sum(r["walls"]) for r in reps if not r["traced"]]
        traced = [sum(r["walls"]) for r in reps if r["traced"]]
        result["per_layer"] = tracer.metrics(untraced, traced, bare_normal_draws_per_s())
        result["absent"] = tracer.absent
    _write_json(out / "result.json", result)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
