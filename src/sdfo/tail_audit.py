"""Empirical verification of the tail-bound conditions an estimator must obey.

For a fixed point, direction and scale the auditor repeatedly rebuilds the
decrease estimate, measures how often its error exceeds the condition's
threshold, and compares a one-sided Wilson upper confidence bound on that
frequency against the admissible probability.  Using the confidence bound
rather than the raw frequency keeps sampling noise from failing a
condition that actually holds.

Audited conditions, with err = (est_current - est_trial) - (f(x) - f(y)):

* first-moment tail:   P(|err| >= (eps_f / p) delta^2)      <= p
* second-moment tail:  P(|err| >= sqrt(eps_q / p) delta^2)  <= p
* variance condition:  E[(estimate - truth)^2]              <= k_f^2 delta^4
* generalized tail:    P(|err| >= alpha delta^h)            <= eps_q / alpha^(2/(h-1))
                       for every alpha >= eps_q

Every condition runs through one cell loop, ``audit_condition``, driven by
the table ``CONDITIONS``: a row gives the condition's substream code, its
outer grid (the p grid, or the alpha >= eps_q grid), and its threshold and
bound; the variance row has no grid and reports two moment cells per delta.
Each cell draws ``trials`` estimate pairs on the oracle substream
``(code, i_delta, i_outer, seed)``, or ``(code, i_delta, seed)`` for the
variance condition.  An estimator builds a whole cell in one call;
``sampler_estimator`` does it with ``oracle.estimate_pairs``, so a cell's
memory stays at one draw chunk.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Callable, Mapping

import numpy as np

from .oracle import NoiseModel, SamplePolicy, StochasticOracle, estimate_pairs
from .stats import wilson_upper
from .trace import format_float, metadata_lines, row_writer

# Estimator: (oracle, x_current, x_trial, delta, trials) -> ((trials, 2) estimates, samples per estimate)
Estimator = Callable[[StochasticOracle, np.ndarray, np.ndarray, float, int], tuple[np.ndarray, int]]


def sampler_estimator(sampler: SamplePolicy) -> Estimator:
    """Estimator that averages ``sampler(delta)`` draws at each point."""

    def estimator(oracle, x_current, x_trial, delta, trials):
        n = sampler(delta)
        return estimate_pairs(oracle, x_current, x_trial, n, trials), n

    return estimator


def tail_order(h: float) -> float:
    """Exponent 2/(h-1) attached to the generalized tail condition."""
    if h < 2.0:
        raise ValueError(f"h must be >= 2, got {h}")
    return 2.0 / (h - 1.0)


@dataclass(frozen=True)
class TailAuditSpec:
    """Grid and budget for an audit run."""

    eps_f: float = 1.0
    eps_q: float = 1.0
    p_grid: tuple[float, ...] = (0.5, 0.25, 0.1, 0.05)
    delta_grid: tuple[float, ...] = (1.0, 0.5, 0.25)
    trials: int = 100_000
    confidence: float = 0.99
    h: float = 2.0
    alpha_grid: tuple[float, ...] | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        if not (0.0 < self.eps_f < math.inf and 0.0 < self.eps_q < math.inf):
            raise ValueError(
                f"eps_f and eps_q must be positive and finite, got {self.eps_f}, {self.eps_q}"
            )
        if not self.p_grid or not self.delta_grid:
            raise ValueError("probability and delta grids must be nonempty")
        if any(not 0.0 < p <= 1.0 for p in self.p_grid):
            raise ValueError("p_grid entries must lie in (0, 1]")
        if any(not 0.0 < d < math.inf for d in self.delta_grid):
            raise ValueError(
                f"delta_grid entries must be positive and finite, got {self.delta_grid}"
            )
        if self.alpha_grid is not None and not all(map(math.isfinite, self.alpha_grid)):
            raise ValueError(f"alpha_grid entries must be finite, got {self.alpha_grid}")
        if self.trials < 1000:
            raise ValueError("trials must be at least 1000")
        if not 0.0 < self.confidence < 1.0:
            raise ValueError("confidence must lie strictly in (0, 1)")
        if not 2.0 <= self.h < math.inf:
            raise ValueError(f"h must be finite and >= 2, got {self.h}")


@dataclass(frozen=True)
class ExceedanceCell:
    """One (threshold, scale) cell of an exceedance audit."""

    condition: str
    p: float | None
    alpha: float | None
    delta: float
    threshold: float
    bound: float
    samples_per_estimate: int
    trials: int
    exceedances: int
    frequency: float
    wilson_upper: float
    passed: bool


@dataclass(frozen=True)
class MomentCell:
    """One (estimate, scale) cell of the variance-condition audit."""

    which: str
    delta: float
    samples_per_estimate: int
    trials: int
    bound: float
    empirical_moment: float
    slack: float
    passed: bool


_exceedance_row = row_writer(
    ExceedanceCell, ("delta", "threshold", "frequency", "wilson_upper", "passed")
)
# Variance report rows are the fields of MomentCell in order.
_moment_row = row_writer(MomentCell, tuple(field.name for field in fields(MomentCell)))


@dataclass(frozen=True)
class AuditReport:
    condition: str
    cells: tuple
    passed: bool
    draws: int  # oracle draws over all cells


def _p_grid(spec: TailAuditSpec, noise: NoiseModel) -> tuple[float, ...]:
    return tuple(spec.p_grid)


def _alpha_grid(spec: TailAuditSpec, noise: NoiseModel) -> tuple[float, ...]:
    """The alpha >= eps_q grid points; the condition is not stated below eps_q.

    The noise must declare a finite r-th moment with ``r >= 2/(h-1)``.
    """
    if spec.alpha_grid is None:
        raise ValueError("audit_generalized requires an alpha grid in the spec")
    r_h = tail_order(spec.h)
    if noise.kind != "none" and noise.declared_variance is None:
        # A declared variance bounds every moment order up to 2 >= r(h).
        if noise.declared_moment is None:
            raise ValueError("generalized audit requires noise with a declared moment")
        if noise.declared_moment[0] < r_h - 1e-12:
            raise ValueError(
                f"declared moment order {noise.declared_moment[0]} is inconsistent "
                f"with h={spec.h}: need r >= 2/(h-1) = {r_h}"
            )
    alphas = tuple(a for a in spec.alpha_grid if a >= spec.eps_q)
    if not alphas:
        raise ValueError("all alpha grid points fall below eps_q; nothing to audit")
    return alphas


@dataclass(frozen=True)
class Condition:
    """One row of ``CONDITIONS``: what the cell loop needs for one condition.

    An exceedance condition has an outer grid ``grid(spec, noise)``; its
    cell at (outer, delta) counts ``|err| >= threshold(spec, outer, delta)``
    against ``bound(spec, outer)``.  The variance condition has no grid and
    reports two moment cells per delta.
    """

    code: int  # first entry of every cell's substream key
    grid: Callable[[TailAuditSpec, NoiseModel], tuple[float, ...]] | None = None
    threshold: Callable[[TailAuditSpec, float, float], float] | None = None
    bound: Callable[[TailAuditSpec, float], float] | None = None
    outer: str = "p"  # the ExceedanceCell field that holds the outer value


CONDITIONS = {
    "a1": Condition(1, _p_grid, lambda s, p, d: (s.eps_f / p) * d * d, lambda s, p: p),
    "a2": Condition(2, _p_grid, lambda s, p, d: math.sqrt(s.eps_q / p) * d * d, lambda s, p: p),
    "a2h": Condition(
        3, _alpha_grid, lambda s, a, d: a * d**s.h,
        lambda s, a: min(1.0, s.eps_q / a ** tail_order(s.h)), outer="alpha",
    ),
    "variance": Condition(4),
}


def _audit_point(oracle: StochasticOracle, x, g) -> tuple[np.ndarray, np.ndarray]:
    """The audited point and unit direction, checked to be finite.

    A non-finite error compares false with every threshold and would pass.
    """
    point = oracle.problem.check_point(x)
    if not np.all(np.isfinite(point)):
        raise ValueError(f"audit point must be finite, got {point.tolist()}")
    vec = np.asarray(g, dtype=float)
    dimension = oracle.problem.dimension
    if vec.shape != (dimension,):
        raise ValueError(f"direction has shape {vec.shape}, expected ({dimension},)")
    if not abs(np.linalg.norm(vec) - 1.0) <= 1e-10:  # also false for NaN and inf
        raise ValueError(f"direction must be a finite unit vector, got {vec.tolist()}")
    return point, vec


def _collect_errors(
    oracle: StochasticOracle,
    estimator: Estimator,
    x: np.ndarray,
    g: np.ndarray,
    delta: float,
    trials: int,
    key: tuple[int, ...],
) -> tuple[np.ndarray, np.ndarray, np.ndarray, int, int]:
    """Errors of `trials` fresh estimate pairs at a fixed (x, g, delta).

    Returns the decrease-estimate errors, the two per-point estimate
    errors, the per-estimate sample count used and the oracle draws spent.
    Each cell runs on its own oracle substream, so reports are reproducible
    and independent of any outer scheduling.  The estimator builds the
    whole cell in one call.
    """
    cell_oracle = oracle.spawn(*key)
    y = x + delta * g
    f_x = float(oracle.problem.eval_true(x))
    f_y = float(oracle.problem.eval_true(y))
    if not (math.isfinite(f_x) and math.isfinite(f_y)):
        # Every error would be NaN, which no threshold counts as an exceedance.
        raise ValueError(f"f(x) and f(x + delta g) must be finite, got {f_x}, {f_y} at delta={delta}")
    estimates, samples = estimator(cell_oracle, x, y, delta, trials)
    estimates = np.asarray(estimates, dtype=float)
    if estimates.shape != (trials, 2):
        raise ValueError(f"estimator returned shape {estimates.shape}, expected ({trials}, 2)")
    # The estimate columns become the per-point errors in place.
    cur_errors, trial_errors = estimates.T
    diff_errors = cur_errors - trial_errors
    diff_errors -= f_x - f_y
    cur_errors -= f_x
    trial_errors -= f_y
    return diff_errors, cur_errors, trial_errors, samples, cell_oracle.draws


def _threshold(condition: Condition, spec: TailAuditSpec, outer: float, delta: float) -> float:
    """The cell's threshold, checked to be finite: no error reaches an infinite one."""
    try:
        threshold = condition.threshold(spec, outer, delta)
    except OverflowError:  # float pow past the float range
        threshold = math.inf
    if not math.isfinite(threshold):
        raise ValueError(f"threshold at delta={delta}, {condition.outer}={outer} is not finite")
    return threshold


def audit_condition(
    name: str,
    oracle: StochasticOracle,
    estimator: Estimator,
    x,
    g,
    spec: TailAuditSpec,
    k_f: float = 1.0,
) -> AuditReport:
    """Audit the condition ``CONDITIONS[name]``: one cell per delta and grid point.

    ``k_f`` sets the variance bound ``k_f^2 delta^4`` and is unused otherwise.
    """
    condition = CONDITIONS[name]
    grid = (None,) if condition.grid is None else condition.grid(spec, oracle.noise)
    if condition.grid is None and not 0.0 < k_f < math.inf:
        raise ValueError(f"k_f must be positive and finite, got {k_f}")
    point, direction = _audit_point(oracle, x, g)
    cells = []
    draws = 0
    for i_delta, delta in enumerate(spec.delta_grid):
        for i_outer, outer in enumerate(grid):
            index = () if outer is None else (i_outer,)
            threshold = None if outer is None else _threshold(condition, spec, outer, delta)
            diff_errors, cur_errors, trial_errors, samples, cell_draws = _collect_errors(
                oracle, estimator, point, direction, delta, spec.trials,
                (condition.code, i_delta, *index, spec.seed),
            )
            draws += cell_draws
            if outer is None:
                bound = k_f * k_f * delta**4
                for which, errors in (("current", cur_errors), ("trial", trial_errors)):
                    squared = errors * errors
                    moment = float(np.mean(squared))
                    slack = float(np.std(squared, ddof=1) / math.sqrt(spec.trials))
                    passed = moment <= bound + 3.0 * slack
                    cells.append(
                        MomentCell(which, delta, samples, spec.trials, bound, moment, slack, passed)
                    )
                continue
            bound = condition.bound(spec, outer)
            exceed = int(np.count_nonzero(np.abs(diff_errors) >= threshold))
            upper = wilson_upper(exceed, spec.trials, spec.confidence)
            cells.append(
                ExceedanceCell(
                    name, **{"p": None, "alpha": None, condition.outer: outer}, delta=delta,
                    threshold=threshold, bound=bound, samples_per_estimate=samples,
                    trials=spec.trials, exceedances=exceed, frequency=exceed / spec.trials,
                    wilson_upper=upper, passed=upper <= bound,
                )
            )
    cells = tuple(cells)
    return AuditReport(name, cells, all(c.passed for c in cells), draws)


def audit_a1(oracle: StochasticOracle, estimator: Estimator, x, g, spec: TailAuditSpec) -> AuditReport:
    """First-moment tail audit: P(|err| >= (eps_f/p) delta^2) <= p per cell."""
    return audit_condition("a1", oracle, estimator, x, g, spec)


def audit_a2(oracle: StochasticOracle, estimator: Estimator, x, g, spec: TailAuditSpec) -> AuditReport:
    """Second-moment tail audit: P(|err| >= sqrt(eps_q/p) delta^2) <= p per cell."""
    return audit_condition("a2", oracle, estimator, x, g, spec)


def audit_generalized(oracle: StochasticOracle, estimator: Estimator, x, g, spec: TailAuditSpec) -> AuditReport:
    """Generalized tail audit with threshold alpha * delta^h over alpha >= eps_q."""
    return audit_condition("a2h", oracle, estimator, x, g, spec)


def audit_variance_condition(
    oracle: StochasticOracle,
    estimator: Estimator,
    x,
    g,
    k_f: float,
    delta_grid=(1.0, 0.5, 0.25),
    trials: int = 100_000,
    seed: int = 0,
) -> AuditReport:
    """Second-moment audit of each estimate's error against k_f^2 delta^4.

    A cell passes when the empirical second moment does not exceed the
    bound by more than three standard errors of the moment estimator.
    """
    spec = TailAuditSpec(delta_grid=tuple(delta_grid), trials=trials, seed=seed)
    return audit_condition("variance", oracle, estimator, x, g, spec, k_f)


def write_report_csv(path, report: AuditReport, metadata: Mapping[str, object] | None = None) -> None:
    """Cell-per-row CSV: p, delta, threshold, freq, wilson_upper, pass.

    The first column of a generalized (a2h) report holds each cell's bound.

    Variance reports use their own column set (delta, bound, moment,
    slack, pass per estimate).
    """
    lines = metadata_lines(metadata)
    if report.condition == "variance":
        lines.append("which,delta,samples,trials,bound,moment,slack,pass")
        lines.extend(_moment_row(cell) for cell in report.cells)
    else:
        lines.append("p,delta,threshold,freq,wilson_upper,pass")
        lines.extend(
            f"{format_float(cell.p if cell.p is not None else cell.bound)},{_exceedance_row(cell)}"
            for cell in report.cells
        )
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def format_report(report: AuditReport) -> str:
    """Human-readable cell-by-cell summary of an audit report."""
    lines = [f"tail audit [{report.condition}]: {'PASS' if report.passed else 'FAIL'}"]
    for cell in report.cells:
        if isinstance(cell, MomentCell):
            lines.append(
                f"  delta={cell.delta:g} {cell.which:>7}: moment={cell.empirical_moment:.6g} "
                f"bound={cell.bound:.6g} slack={cell.slack:.3g} n={cell.samples_per_estimate} "
                f"-> {'pass' if cell.passed else 'FAIL'}"
            )
        else:
            label = f"p={cell.p:g}" if cell.p is not None else f"alpha={cell.alpha:g}"
            lines.append(
                f"  delta={cell.delta:g} {label}: freq={cell.frequency:.5f} "
                f"wilson={cell.wilson_upper:.5f} bound={cell.bound:g} "
                f"n={cell.samples_per_estimate} -> {'pass' if cell.passed else 'FAIL'}"
            )
    return "\n".join(lines)
