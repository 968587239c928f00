"""Command-line harness: seed batches, audits, CSV traces and summaries.

Runs are deterministic given the config file, so repeated invocations
produce byte-identical outputs.  ``run`` moves its seeds through
``trust_region.run_steps``, in lockstep until they go apart, and writes
each seed's trace and the summary straight from its rows, plain tuples
without vectors.
``--jobs J`` splits the seed list into ``min(J, seeds)`` contiguous
batches, one per worker process; since a seed's trace does not depend on
the batch it ran in, and every seed writes only its own file, the outputs
do not depend on ``J``.  Within a batch, once two or more noisy seeds'
estimates pass one ``CHUNK_DRAWS`` chunk in an iteration, the batch goes
apart, and the one step that advanced the batch in lockstep then
advances one seed at a time on ``min(seeds, usable CPUs)`` threads: the
calling one and helpers named ``sdfo-draws-*`` that ``run_steps`` starts
and joins, so no thread is alive when a worker forks, and draw memory
stays O(``CHUNK_DRAWS`` x threads).  A thread hands its seed back and
takes the next in one locked step, so no seed ever waits while a thread
is free, and a helper ends as soon as no seed waits for it.  Each seed
reads only its own stream, so the outputs do not depend on the thread
count either.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from pathlib import Path

from . import diagnostics
from .config import ConfigError, ExperimentConfig, SCHEMA_VERSION, load_config
from .direct_search import propose_ds
from .directions import DirectionGenerator, QuasiRandomSphere
from .oracle import StochasticOracle
from .problems import get_problem, list_problems
from .tail_audit import audit_conditions, format_report, sampler_estimator, write_report_csv
from .trace import write_trace_csv
from .trust_region import default_k_f, propose_tr, run_steps, validate_theta_tr

ENV_OUT_DIR = "SDFO_OUT"


def _resolve_out_dir(cfg: ExperimentConfig, override: str | None) -> Path:
    if override:
        return Path(override)
    env = os.environ.get(ENV_OUT_DIR)
    if env:
        return Path(env)
    return Path(cfg.out_dir)


def _print_theta_warnings(cfg: ExperimentConfig) -> None:
    algo = cfg.algo
    if algo is None or algo.eps_f_hint is None:
        return
    verdict = validate_theta_tr(algo)
    if not verdict.ok:
        print(f"warning: {verdict.message}", file=sys.stderr)


def _run_batch(cfg: ExperimentConfig, out_dir: Path, seeds: list[int]) -> list[dict]:
    """Run a batch of seeds (``run_steps``); executed in-process or in a worker process."""
    problem = get_problem(cfg.problem, cfg.dimension)
    gen = DirectionGenerator(cfg.dimension, QuasiRandomSphere())
    sampler = cfg.sampler.build(cfg.noise, default_k_f(cfg.algo))
    propose = propose_ds if cfg.algorithm == "direct_search" else propose_tr
    runs = run_steps(
        propose, cfg.algo, problem, cfg.noise, gen, cfg.x0, seeds, sampler, cfg.delta_floor,
        vectors=False,
    )
    results = []
    for seed, (_, trace) in zip(seeds, runs):
        trace_path = None
        if len(trace):
            trace_path = out_dir / f"{cfg.algorithm}_{cfg.problem}_seed{seed}.csv"
            write_trace_csv(
                trace_path,
                trace,
                metadata={
                    "schema_version": SCHEMA_VERSION,
                    "algorithm": cfg.algorithm,
                    "problem": cfg.problem,
                    "dimension": cfg.dimension,
                    "noise": cfg.noise.kind,
                    "seed": seed,
                },
            )
        summary = (
            diagnostics.summarize(trace, seed=seed, f_star=problem.optimum_value) if len(trace) else None
        )
        results.append({"seed": seed, "summary": summary, "trace": trace_path})
    return results


def run_experiment(
    cfg: ExperimentConfig,
    out_dir: str | None = None,
    jobs: int = 1,
    seed_offset: int = 0,
) -> list[Path]:
    """Run the configured seed batch; returns the paths written.

    ``jobs`` workers each run one contiguous slice of the seeds as one batch.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    seeds = [s + seed_offset for s in cfg.seeds]
    low = min(cfg.seeds)
    if low + seed_offset < 0:
        raise ValueError(
            f"seed-offset: seed {low} shifted by {seed_offset} is {low + seed_offset}; "
            "seeds must be nonnegative"
        )
    directory = _resolve_out_dir(cfg, out_dir)
    directory.mkdir(parents=True, exist_ok=True)
    _print_theta_warnings(cfg)
    workers = min(jobs, len(seeds))
    batches = [seeds[len(seeds) * i // workers : len(seeds) * (i + 1) // workers] for i in range(workers)]
    run = functools.partial(_run_batch, cfg, directory)
    if workers > 1:
        # Imported here: multiprocessing costs every other process its import time.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = [r for batch in pool.map(run, batches) for r in batch]
    else:
        results = run(seeds)
    results.sort(key=lambda r: r["seed"])

    written = [r["trace"] for r in results if r["trace"] is not None]
    summary_path = directory / f"{cfg.algorithm}_{cfg.problem}_summary.csv"
    diagnostics.write_summary_csv(
        summary_path,
        [r["summary"] for r in results if r["summary"] is not None],
        metadata={
            "schema_version": SCHEMA_VERSION,
            "algorithm": cfg.algorithm,
            "problem": cfg.problem,
            "seeds": ",".join(str(s) for s in seeds),
        },
    )
    written.append(summary_path)
    return written


def run_audit(cfg: ExperimentConfig, out_dir: str | None = None) -> tuple[list[Path], bool]:
    """Run the configured audits; returns written paths and the overall verdict."""
    directory = _resolve_out_dir(cfg, out_dir)
    directory.mkdir(parents=True, exist_ok=True)
    audit = cfg.audit
    problem = get_problem(cfg.problem, cfg.dimension)
    oracle = StochasticOracle(problem, cfg.noise, seed=audit.spec.seed)
    estimator = sampler_estimator(cfg.sampler.build(cfg.noise, audit.k_f, audit.spec.eps_q))
    reports = audit_conditions(
        audit.conditions, oracle, estimator, audit.x, audit.direction, audit.spec, audit.k_f
    )
    written: list[Path] = []
    texts: list[str] = []
    for report in reports:
        csv_path = directory / f"audit_{report.condition}_{cfg.problem}.csv"
        write_report_csv(
            csv_path,
            report,
            metadata={
                "schema_version": SCHEMA_VERSION,
                "condition": report.condition,
                "problem": cfg.problem,
                "noise": cfg.noise.kind,
                "trials": audit.spec.trials,
                "seed": audit.spec.seed,
                "draws": report.draws,
            },
        )
        written.append(csv_path)
        texts.append(format_report(report))
    text_path = directory / f"audit_{cfg.problem}_summary.txt"
    text_path.write_text("\n\n".join(texts) + "\n", encoding="utf-8")
    written.append(text_path)
    print("\n\n".join(texts))
    return written, all(report.passed for report in reports)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sdfo",
        description="Stochastic derivative-free optimization harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run a seed batch from a config file")
    run_p.add_argument("config", help="path to a JSON experiment config")
    run_p.add_argument("--jobs", type=int, default=1, help="parallel seed workers")
    run_p.add_argument("--out", default=None, help="output directory override")
    run_p.add_argument("--seed-offset", type=int, default=0, help="shift all seeds by K")

    audit_p = sub.add_parser("audit", help="run tail-bound audits from a config file")
    audit_p.add_argument("config", help="path to a JSON audit config")
    audit_p.add_argument("--out", default=None, help="output directory override")

    sub.add_parser("list-problems", help="list registered benchmark problems")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "list-problems":
        for name in list_problems():
            print(name)
        return 0
    try:
        cfg = load_config(args.config)
    except (ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        if args.command == "run":
            if cfg.algorithm == "audit":
                print("error: config declares an audit; use the audit subcommand", file=sys.stderr)
                return 2
            written = run_experiment(
                cfg, out_dir=args.out, jobs=args.jobs, seed_offset=args.seed_offset
            )
            for path in written:
                print(path)
            return 0
        if cfg.algorithm != "audit":
            print("error: config declares an optimizer run; use the run subcommand", file=sys.stderr)
            return 2
        written, _ = run_audit(cfg, out_dir=args.out)
        for path in written:
            print(path)
        return 0
    except (ConfigError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
