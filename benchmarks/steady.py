"""Steadiness check: two sets of benchmark runs of the same code, compared.

    python3 benchmarks/steady.py

Runs the command of BENCHMARK.json ten times per workload and set, each
run with another seed (set 1: seeds 1000-1009, set 2: 2000-2009),
interleaving workloads so that a slow spell of the host falls on all of
them.  For every end-to-end metric it prints, per set, the median and the
spread (distance between the first and third quartile over the median),
and the drift of the second set's median from the first, next to the
metric's bound.  It also prints each run's host steal time and the failed
share of operations.  The exit code is 0 only when every run is correct
with no failed operation, and every spread and drift is within its bound.
The full record goes to ``.bench_out/steady-<time>.json``.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUNS = 10
FIRST_SEEDS = (1000, 2000)  # one per set


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def drift(first: float, later: float, better: str) -> float:
    """Share by which ``later`` is worse than ``first`` (negative when better)."""
    change = (later - first) / first
    return change if better == "lower" else -change


def one_run(command: list[str], workload: str, seed: int, seconds: int) -> dict:
    argv = [*command, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    start = time.perf_counter()
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
    elapsed = time.perf_counter() - start
    lines = proc.stdout.strip().splitlines()
    try:
        # A run whose outputs fail their checks exits 1 but still prints its result.
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        raise RuntimeError(f"{' '.join(argv)} failed ({proc.returncode}):\n{proc.stderr[-2000:]}") from None
    env = next((json.loads(l[len("# env "):]) for l in lines if l.startswith("# env ")), {})
    return {"workload": workload, "seed": seed, "elapsed_s": elapsed, "result": result, "env": env}


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = [w["name"] for w in bench["workloads"]]

    runs: list[dict] = []
    for s, first_seed in enumerate(FIRST_SEEDS):
        for i in range(RUNS):
            for workload in workloads:
                record = one_run(bench["command"], workload, first_seed + i, bench["run_seconds"])
                record["set"] = s
                runs.append(record)
                res, env = record["result"], record["env"]
                print(f"set {s} run {i} {workload} seed {first_seed + i}: {record['elapsed_s']:.1f} s, "
                      f"failed {res['failed']}/{res['attempted']}, correct {res['correct']}, "
                      f"steal {env.get('steal_s', 0):.2f} s, "
                      + ", ".join(f"{k}={v['value']:.4g}" for k, v in res["metrics"].items()),
                      flush=True)

    ok = True
    print()
    for workload in workloads:
        mine = [r for r in runs if r["workload"] == workload]
        fail_shares = sorted({r["result"]["failed"] / r["result"]["attempted"] for r in mine})
        print(f"{workload}: failed share per run {fail_shares}, "
              f"max steal {max(r['env'].get('steal_s', 0) for r in mine):.2f} s")
        ok = ok and fail_shares == [0.0] and all(r["result"]["correct"] for r in mine)
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            per_set = [[r["result"]["metrics"][name]["value"] for r in mine if r["set"] == s]
                       for s in range(len(FIRST_SEEDS))]
            medians = [statistics.median(v) for v in per_set]
            spreads = [spread(v) for v in per_set]
            shift = drift(medians[0], medians[1], metric["better"])
            within = max(spreads) <= bound and abs(shift) <= bound
            ok = ok and within
            print(f"  {name:12s} bound {bound:.2f}  medians "
                  + " ".join(f"{m:.5g}" for m in medians)
                  + "  spreads " + " ".join(f"{x:.3f}" for x in spreads)
                  + f"  drift {shift:+.3f}"
                  + ("" if within else "  <-- outside bound")
                  + ("  (steady)" if max(spreads) < bound / 3 else ""))
    out = ROOT / ".bench_out" / f"steady-{time.strftime('%Y%m%d-%H%M%S')}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps({"runs": runs, "ok": ok}, indent=1) + "\n", encoding="utf-8")
    print(f"\n{'all metrics within bounds' if ok else 'SOME METRICS OUTSIDE BOUNDS'}; record in {out}")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
