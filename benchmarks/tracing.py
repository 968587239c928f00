"""Outside-in tracing of sdfo's public functions for the per-layer metrics.

The tracer replaces a function at the name its callers look it up under
(for example ``sdfo.direct_search.estimate_pair``) with a wrapper, and puts
the original back afterwards.  Span wrappers record ``(name, start, end,
parent)`` in memory; counting wrappers only bump a counter.  A name that a
later version of sdfo removes or renames is recorded as absent and the run
goes on.
"""

from __future__ import annotations

import dataclasses
import importlib
import os
import statistics
import time
from collections import defaultdict

# (module, attribute path, span name, result hook name or None)
SPANS = (
    ("sdfo.cli", "load_config", "config.load_config", None),
    ("sdfo.cli", "run_experiment", "cli.run_experiment", None),
    ("sdfo.cli", "run_audit", "cli.run_audit", None),
    ("sdfo.direct_search", "ds_step", "direct_search.ds_step", "step"),
    ("sdfo.trust_region", "tr_step", "trust_region.tr_step", "step"),
    ("sdfo.trust_region", "build_model", "trust_region.build_model", "build_model"),
    ("sdfo.trust_region", "solve_exact", "subproblem.solve_exact", "solve"),
    ("sdfo.subproblem", "solve_exact", "subproblem.solve_exact", "solve"),
    ("sdfo.direct_search", "estimate_pair", "oracle.estimate_pair", None),
    ("sdfo.trust_region", "estimate_pair", "oracle.estimate_pair", None),
    ("sdfo.tail_audit", "estimate_pair", "oracle.estimate_pair", None),
    ("sdfo.oracle", "sample_estimate", "oracle.sample_estimate", "draws"),
    ("sdfo.trust_region", "sample_estimate", "oracle.sample_estimate", "draws"),
    ("sdfo.directions", "DirectionGenerator.next_direction", "directions.next_direction", None),
    ("sdfo.cli", "audit_a1", "tail_audit.audit", "audit"),
    ("sdfo.cli", "audit_a2", "tail_audit.audit", "audit"),
    ("sdfo.cli", "audit_generalized", "tail_audit.audit", "audit"),
    ("sdfo.cli", "audit_variance_condition", "tail_audit.audit", "audit"),
    ("sdfo.cli", "write_trace_csv", "trace.write_trace_csv", "trace_bytes"),
    ("sdfo.diagnostics", "summarize", "diagnostics.summarize", None),
    ("sdfo.diagnostics", "write_summary_csv", "diagnostics.write_summary_csv", None),
)

# (module, attribute path, counter name)
COUNTERS = (("sdfo.directions", "inverse_normal_cdf", "stats.inverse_normal_cdf.calls"),)

# Factories whose results get a counting wrapper:
# (module, attribute, counter name, how to wrap the result)
FACTORIES = (
    ("sdfo.cli", "get_problem", "problems.eval_true.calls", "problem"),
    ("sdfo.cli", "sampler_estimator", "tail_audit.estimator.calls", "callable"),
)

SUBPROBLEM_SIZES = (2, 5, 10, 20, 50)


def _resolve(module_name: str, path: str):
    """(owner, attribute) for a dotted attribute path, or None when absent."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name, None)
        if owner is None:
            return None
    if not hasattr(owner, attr):
        return None
    return owner, attr


class Tracer:
    """Spans and counters for one traced repetition at a time.

    ``install()`` patches every known name; ``uninstall()`` restores the
    originals.  ``end_repetition()`` folds the spans of the repetition just
    run into per-repetition totals and clears them, so memory stays bounded
    by one repetition.
    """

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int]] = []
        self.tags: dict[int, int] = {}
        self.counts: defaultdict[str, int] = defaultdict(int)
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self.per_rep: list[dict[str, float]] = []
        self.solve_us: defaultdict[int, list[float]] = defaultdict(list)

    # --- wrappers -----------------------------------------------------

    def _span(self, name: str, fn, hook):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent)
            if hook is not None:
                hook(idx, args, kwargs, result)
            return result

        return wrapper

    def _counter(self, name: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _factory(self, name: str, fn, kind: str):
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            if kind == "problem":
                return dataclasses.replace(result, eval_true=self._counter(name, result.eval_true))
            return self._counter(name, result)

        return wrapper

    # --- result hooks -------------------------------------------------

    def _hook_step(self, idx, args, kwargs, result):
        _, record = result
        layer = "direct_search" if self.spans[idx][0].startswith("direct") else "trust_region"
        self.counts[f"{layer}.iterations"] += 1
        self.counts[f"{layer}.accepted"] += int(bool(record.success))

    def _hook_build_model(self, idx, args, kwargs, result):
        self.counts["trust_region.stencil_draws"] += int(result[1])

    def _hook_solve(self, idx, args, kwargs, result):
        model = args[0] if args else kwargs["model"]
        self.tags[idx] = int(model.g.shape[0])

    def _hook_draws(self, idx, args, kwargs, result):
        n = args[2] if len(args) > 2 else kwargs["n"]
        self.counts["oracle.draws"] += int(n)

    def _hook_audit(self, idx, args, kwargs, result):
        self.counts["tail_audit.cells"] += len(result.cells)
        trials = {}
        for cell in result.cells:
            # Variance cells come in (current, trial) pairs built from one
            # batch of estimate pairs per delta.
            trials[(cell.delta, getattr(cell, "p", None), getattr(cell, "alpha", None))] = cell.trials
        self.counts["tail_audit.trials"] += sum(trials.values())

    def _hook_trace_bytes(self, idx, args, kwargs, result):
        path = args[0] if args else kwargs["path"]
        self.counts["trace.bytes"] += os.path.getsize(path)

    # --- install / uninstall ------------------------------------------

    def install(self) -> None:
        hooks = {
            None: None,
            "step": self._hook_step,
            "build_model": self._hook_build_model,
            "solve": self._hook_solve,
            "draws": self._hook_draws,
            "audit": self._hook_audit,
            "trace_bytes": self._hook_trace_bytes,
        }
        plan = [
            (m, p, lambda fn, n=n, h=hooks[h]: self._span(n, fn, h)) for m, p, n, h in SPANS
        ]
        plan += [(m, p, lambda fn, n=n: self._counter(n, fn)) for m, p, n in COUNTERS]
        plan += [(m, p, lambda fn, n=n, k=k: self._factory(n, fn, k)) for m, p, n, k in FACTORIES]
        for module_name, path, make in plan:
            target = _resolve(module_name, path)
            if target is None:
                label = f"{module_name}.{path}"
                if label not in self.absent:
                    self.absent.append(label)
                continue
            owner, attr = target
            original = getattr(owner, attr)
            self._patches.append((owner, attr, original))
            setattr(owner, attr, make(original))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # --- folding ------------------------------------------------------

    def end_repetition(self) -> None:
        """Fold this repetition's spans and counters into per-rep totals."""
        child_time = defaultdict(float)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals: defaultdict[str, float] = defaultdict(float)
        for idx, (name, start, end, parent) in enumerate(self.spans):
            duration = end - start
            totals[f"{name}.calls"] += 1
            totals[f"{name}.total_s"] += duration
            totals[f"{name}.self_s"] += duration - child_time[idx]
            size = self.tags.get(idx)
            if size is not None:
                self.solve_us[size].append(duration * 1e6)
        totals.update(self.counts)
        self.per_rep.append(dict(totals))
        self.spans.clear()
        self.tags.clear()
        self.counts.clear()

    def metrics(self, untraced_walls, traced_walls, rng_draws_per_s: float) -> dict[str, float]:
        """Per-layer metrics: per-repetition medians of totals, ratios of sums.

        The names are those of BENCHMARK.json's ``per_layer`` list, which
        holds their units.
        """
        reps = self.per_rep

        def med(key: str) -> float:
            return statistics.median(r.get(key, 0.0) for r in reps) if reps else 0.0

        def total(key: str) -> float:
            return sum(r.get(key, 0.0) for r in reps)

        def ratio(num: float, den: float) -> float:
            return num / den if den else 0.0

        iterations = total("direct_search.iterations") + total("trust_region.iterations")
        draws_per_s = ratio(total("oracle.draws"), total("oracle.sample_estimate.self_s"))
        out = {
            "oracle.sample_estimate.calls": med("oracle.sample_estimate.calls"),
            "oracle.sample_estimate.self_s": med("oracle.sample_estimate.self_s"),
            "oracle.estimate_pair.calls": med("oracle.estimate_pair.calls"),
            "oracle.draws": med("oracle.draws"),
            "oracle.draws_per_s": draws_per_s,
            "oracle.rng_share": ratio(draws_per_s, rng_draws_per_s),
            "direct_search.ds_step.self_s": med("direct_search.ds_step.self_s"),
            "direct_search.iterations": med("direct_search.iterations"),
            "direct_search.accept_ratio": ratio(
                total("direct_search.accepted"), total("direct_search.iterations")
            ),
            "trust_region.tr_step.self_s": med("trust_region.tr_step.self_s"),
            "trust_region.build_model.self_s": med("trust_region.build_model.self_s"),
            "trust_region.iterations": med("trust_region.iterations"),
            "trust_region.stencil_draws": med("trust_region.stencil_draws"),
            "trust_region.accept_ratio": ratio(
                total("trust_region.accepted"), total("trust_region.iterations")
            ),
            "directions.next_direction.calls": med("directions.next_direction.calls"),
            "directions.next_direction.self_s": med("directions.next_direction.self_s"),
            "stats.inverse_normal_cdf.calls": med("stats.inverse_normal_cdf.calls"),
            "subproblem.solve_exact.calls": med("subproblem.solve_exact.calls"),
            "subproblem.solve_exact.self_s": med("subproblem.solve_exact.self_s"),
        }
        for n in SUBPROBLEM_SIZES:
            samples = self.solve_us.get(n)
            out[f"subproblem.solve_exact.us_n{n}"] = statistics.median(samples) if samples else 0.0
        audit_s = total("tail_audit.audit.total_s")
        out.update(
            {
                "tail_audit.cells": med("tail_audit.cells"),
                "tail_audit.cell_s": ratio(audit_s, total("tail_audit.cells")),
                "tail_audit.trials_per_s": ratio(total("tail_audit.trials"), audit_s),
                "tail_audit.estimator.calls": med("tail_audit.estimator.calls"),
                "problems.eval_true.calls": med("problems.eval_true.calls"),
                "problems.eval_true.per_iter": ratio(total("problems.eval_true.calls"), iterations),
                "trace.write_trace_csv.self_s": med("trace.write_trace_csv.self_s"),
                "trace.bytes": med("trace.bytes"),
                "diagnostics.summarize.self_s": med("diagnostics.summarize.self_s"),
                "diagnostics.write_summary_csv.self_s": med("diagnostics.write_summary_csv.self_s"),
                "config.load_config.self_s": med("config.load_config.self_s"),
                "cli.run_experiment.self_s": med("cli.run_experiment.self_s"),
                "cli.run_audit.self_s": med("cli.run_audit.self_s"),
                "tracing_overhead_s": (
                    statistics.median(traced_walls) - statistics.median(untraced_walls)
                    if traced_walls and untraced_walls
                    else 0.0
                ),
            }
        )
        return out
