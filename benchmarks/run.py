"""sdfo benchmark: run one workload once, check its outputs, print its metrics.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  The run measures set-up in
separate short-lived processes, then starts one workload process
(workloads.py) that repeats the workload's unit of work for S seconds.
This process checks every output against computations made apart from
sdfo (checks.py) and prints each metric by name and unit.  The last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``, by the names and
units of BENCHMARK.json.  ``correct`` is true, and the exit code 0, only
when every output passed its check and the checker self-test rejected
every tampered copy.

Times are scaled to a reference host speed: every workload process also
times a fixed calibration loop that does not touch sdfo, and each time is
multiplied by ``CAL_REF_S`` over the loop's time measured next to it.  The
unscaled times are printed alongside.
"""

from __future__ import annotations

import argparse
import filecmp
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import checks

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_ROOT = ROOT / ".bench_out"
# Set-up is measured in this many set-up-only processes; the median is reported.
SETUP_SPAWNS = 11
# Median time of workloads.calibration_loop on the reference host (2 vCPU
# shared VM, Python 3.11, numpy 2.4).
CAL_REF_S = 0.030
RUN_LIMIT_S = 170.0
CHECK_BUDGET_S = 25.0


class BenchmarkError(RuntimeError):
    pass


def read_cpu_times() -> tuple[int, int]:
    """(steal, total) jiffies of all CPUs, from /proc/stat; zeros elsewhere."""
    try:
        with open("/proc/stat", encoding="ascii") as handle:
            fields = handle.readline().split()
    except OSError:
        return 0, 0
    values = [int(v) for v in fields[1:]]
    return (values[7] if len(values) > 7 else 0), sum(values)


def git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() or "unknown"


def spawn(argv: list[str], timeout: float) -> float:
    """Run workloads.py with ``argv``; returns the clock reading taken before start."""
    start = time.perf_counter()
    try:
        proc = subprocess.run([sys.executable, str(BENCH_DIR / "workloads.py"), *argv],
                              cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchmarkError(f"workload process exceeded {timeout:.0f} s") from None
    if proc.returncode != 0:
        raise BenchmarkError(f"workload process exited with {proc.returncode}:\n{proc.stderr[-3000:]}")
    return start


def load_result(out: Path) -> dict:
    result = checks.load_json(out / "result.json")
    expected = (ROOT / "src" / "sdfo" / "__init__.py").resolve()
    if Path(result["sdfo_file"]).resolve() != expected:
        raise BenchmarkError(f"sdfo was imported from {result['sdfo_file']}, not {expected}")
    return result


def scaled_setup(seconds: float, calibration: list[float]) -> float:
    return seconds * CAL_REF_S / statistics.median(calibration)


def scaled_reps(reps: list[dict], calibration: list[float]) -> dict[int, float]:
    """Untraced repetition times; each part is scaled by the calibrations just before and after it."""
    out, k = {}, 0
    for r in reps:
        total = 0.0
        for wall in r["walls"]:
            total += wall * CAL_REF_S / (0.5 * (calibration[k] + calibration[k + 1]))
            k += 1
        if not r["traced"]:
            out[r["rep"]] = total
    return out


# --- output checks per workload -----------------------------------------


class Tally:
    """Operations attempted and failed, with the first problems seen."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.units: dict[int, int] = {}  # work units per repetition

    def record(self, label: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(f"{label}: {'; '.join(problems[:3])}")


def same_tree(a: Path, b: Path) -> list[str]:
    """Problems found comparing two output directories byte for byte."""
    names_a = sorted(p.relative_to(a) for p in a.rglob("*") if p.is_file())
    names_b = sorted(p.relative_to(b) for p in b.rglob("*") if p.is_file())
    if names_a != names_b or not names_a:
        return [f"{a.name} and {b.name} hold different files"]
    return [f"{name} differs" for name in names_a
            if not filecmp.cmp(a / name, b / name, shallow=False)]


def check_optimize(workload: str, out: Path, reps: list[dict], tally: Tally) -> dict[str, bool]:
    configs = {p.stem: checks.load_json(p) for p in sorted((out / "inputs").glob("*.json"))}
    rules = {name: checks.TraceRules(cfg, checks.END_FACTOR[workload]) for name, cfg in configs.items()}
    self_test: dict[str, bool] = {}
    for rep in reps:
        for name, cfg in configs.items():
            run_dir = out / f"rep{rep['rep']:03d}" / name
            traces = {}
            for path in sorted(run_dir.glob("*_seed*.csv")):
                try:
                    rows = checks.read_trace(path)
                except (ValueError, IndexError) as exc:
                    tally.record(path.name, [str(exc)])
                    continue
                traces[int(path.stem.rpartition("_seed")[2])] = rows
                tally.units[rep["rep"]] = tally.units.get(rep["rep"], 0) + len(rows)
                tally.record(path.name, checks.check_trace(rows, rules[name]))
                if not self_test:
                    self_test = checks.self_test_trace(rows, rules[name])
            missing = len(cfg["seeds"]) - len(traces)
            for _ in range(max(0, missing)):
                tally.record(f"{run_dir.name}/rep{rep['rep']}", ["trace file missing"])
            summaries = list(run_dir.glob("*_summary.csv"))
            tally.record(f"{name} summary rep {rep['rep']}",
                         checks.check_summary(summaries[0], traces) if len(summaries) == 1
                         else ["expected one summary file"])
    tally.record("repeated repetition", same_tree(out / "rep000", out / "rep001"))
    return self_test


def check_audit(out: Path, reps: list[dict], tally: Tally) -> dict[str, bool]:
    self_test: dict[str, bool] = {}
    for rep in reps:
        tag = f"rep{rep['rep']:03d}"
        for name, check in (("gauss", checks.check_gaussian_audit), ("pareto", checks.check_pareto_audit)):
            cfg = checks.load_json(out / "inputs" / f"{name}_{tag}.json")
            cells, pairs = check(out / tag / name, cfg)
            for i, problems in enumerate(cells):
                tally.record(f"{name} {tag} cell {i}", problems)
            tally.units[rep["rep"]] = tally.units.get(rep["rep"], 0) + pairs
            if name == "gauss" and not self_test:
                self_test = checks.self_test_audit(out / tag / name, cfg)
    tally.record("repeated repetition", same_tree(out / "rep000", out / "rep001"))
    return self_test


def check_subproblems(out: Path, reps: list[dict], seed: int, tally: Tally) -> dict[str, bool]:
    self_test: dict[str, bool] = {}
    batches = {}
    for rep in reps:
        batch = checks.load_subproblems(out / f"rep{rep['rep']:03d}" / "subproblems.npz")
        batches[rep["rep"]] = batch
        for j, (name, entry) in enumerate(sorted(batch.items())):
            rng = np.random.default_rng([seed, rep["rep"], j])
            tally.record(f"rep {rep['rep']} {name}", checks.check_subproblem(
                entry["B"], entry["g"], float(entry["radius"]), entry["s"],
                float(entry["multiplier"]), rng))
            tally.units[rep["rep"]] = tally.units.get(rep["rep"], 0) + 1
            if not self_test and name.startswith("hard"):
                self_test = checks.self_test_subproblem(entry, seed)
    first, second = batches[0], batches[1]
    same = sorted(first) == sorted(second) and all(
        np.array_equal(first[k][f], second[k][f]) for k in first for f in first[k])
    tally.record("repeated repetition", [] if same else ["solutions differ between identical inputs"])
    return self_test


def check_outputs(workload: str, out: Path, reps: list[dict], seed: int) -> tuple[Tally, dict[str, bool]]:
    tally = Tally()
    if workload.startswith("optimize"):
        self_test = check_optimize(workload, out, reps, tally)
    elif workload == "audit-tails":
        self_test = check_audit(out, reps, tally)
    else:
        self_test = check_subproblems(out, reps, seed, tally)
    return tally, self_test


# --- the run --------------------------------------------------------------


def run(args: argparse.Namespace) -> dict:
    started = time.perf_counter()
    out = OUT_ROOT / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    common = ["--workload", args.workload, "--seed", str(args.seed)]

    setup = []
    for k in range(SETUP_SPAWNS):
        child_out = out / f"setup{k}"
        t0 = spawn([*common, "--out", str(child_out), "--setup-only"], timeout=30.0)
        child = load_result(child_out)
        setup.append((child["ready"] - t0, child["calibration"]))
        shutil.rmtree(child_out)

    steal0, total0 = read_cpu_times()
    budget = RUN_LIMIT_S - CHECK_BUDGET_S - (time.perf_counter() - started)
    spawn([*common, "--out", str(out), "--seconds", str(args.seconds),
           "--trace", str(args.trace)], timeout=budget)
    steal1, total1 = read_cpu_times()
    result = load_result(out)

    tally, self_test = check_outputs(args.workload, out, result["reps"], args.seed)
    calibration = result["calibration"]
    walls = scaled_reps(result["reps"], calibration)
    metrics = {
        "setup_s": statistics.median(scaled_setup(s, cal) for s, cal in setup),
        "wall_s": statistics.median(walls.values()),
        "work_per_s": statistics.median(tally.units[rep] / wall for rep, wall in walls.items()),
        "peak_rss_mb": result["peak_rss_mb"],
    }
    tick = os.sysconf("SC_CLK_TCK") if hasattr(os, "sysconf") else 100
    env = {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": result["numpy"],
        "git_sha": git_sha(),
        "steal_s": (steal1 - steal0) / tick,
        "steal_share": (steal1 - steal0) / (total1 - total0) if total1 > total0 else 0.0,
        "calibration_median_s": statistics.median(calibration),
        "raw_wall_s": statistics.median(sum(r["walls"]) for r in result["reps"] if not r["traced"]),
        "raw_setup_s": statistics.median(s for s, _ in setup),
        "repetitions": len(result["reps"]),
        "work_units": sum(tally.units.values()),
    }
    return {
        "out": out,
        "tally": tally,
        "self_test": self_test,
        "end_to_end": metrics,
        "per_layer": result.get("per_layer"),
        "absent": result.get("absent", []),
        "env": env,
    }


def main(argv=None) -> int:
    # Workload and metric names, and the metrics' units, come from BENCHMARK.json.
    bench = checks.load_json(ROOT / "BENCHMARK.json")
    parser = argparse.ArgumentParser(description="sdfo benchmark: one workload, one run")
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (ROOT / "src" / "sdfo" / "__init__.py").is_file() or not (ROOT / "configs").is_dir():
        print(f"error: no sdfo source tree (src/sdfo, configs) under {ROOT}", file=sys.stderr)
        return 2
    try:
        report = run(args)
    except (BenchmarkError, OSError, KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    tally, env = report["tally"], report["env"]
    print(f"# workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{env['repetitions']} repetitions, {tally.attempted} operations attempted, "
          f"{tally.failed} failed")
    print("# env " + json.dumps(env, sort_keys=True))
    for problem in tally.problems:
        print(f"# FAILED {problem}")
    self_test_ok = bool(report["self_test"]) and all(report["self_test"].values())
    for name, rejected in sorted(report["self_test"].items()):
        print(f"# self-test {name}: {'rejected' if rejected else 'ACCEPTED (checker is blind)'}")
    kind = "per_layer" if args.trace else "end_to_end"
    values = report[kind]
    units = {m["name"]: m["unit"] for m in bench[kind]}
    if args.trace:
        for name in report["absent"]:
            print(f"# absent: {name} (its metrics read 0)")
    if set(values) != set(units):
        print(f"error: computed metrics {sorted(values)} differ from BENCHMARK.json's {sorted(units)}",
              file=sys.stderr)
        return 1
    for name, unit in units.items():
        print(f"{name} = {values[name]:.6g} {unit}")
    if tally.failed == 0:
        shutil.rmtree(report["out"], ignore_errors=True)
    else:
        print(f"# outputs kept in {report['out']}")
    print(json.dumps({
        "correct": self_test_ok and tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0 if self_test_ok and tally.failed == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
