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

Every condition runs through one loop, ``audit_conditions``, driven by the
table ``CONDITIONS``: a row gives the condition's outer grid (the p grid,
or the alpha >= eps_q grid) and its threshold and bound; the variance row
has no grid and reports two moment cells per delta.

At each delta every cell uses the same sample count n, so the loop builds
one set of ``trials`` estimate pairs per delta, on the oracle substream
``(i_delta, seed)``, and every cell of every condition at that delta reads
it.  The key names neither the condition nor the cell, so a report is the
same whether its condition is audited alone or with others.  Sharing keeps
each verdict sound: a cell's Wilson bound is a statement about that cell's
own marginal exceedance frequency, which does not depend on the other
cells, and the all-cells verdict is a union bound over the cells, which
needs no independence between them.  So a correct oracle still fails a
variance cell that sits exactly at its bound (moment <= bound + 3 standard
errors) with probability about 5e-4 at 1000 trials, as with a fresh set
per cell.  An estimator builds a whole set in one call;
``sampler_estimator`` does it with one ``oracle.sample_means`` call of
``trials`` repeats, so the memory of a set stays at one draw chunk.

``audit_conditions`` is the one entry; ``sdfo audit`` calls it once for
all its conditions.  ``audit_a1``, its first-moment case, stays for the
reference figures in ``benchmarks/reference.py``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Callable, Mapping

import numpy as np

from .oracle import NoiseModel, SamplePolicy, StochasticOracle, sample_means
from .stats import check_integer, wilson_upper
from .trace import format_float, rows_writer, write_table

# Estimator: (oracle, x_current, x_trial, delta, trials) -> ((trials, 2) estimates, samples per estimate)
Estimator = Callable[[StochasticOracle, np.ndarray, np.ndarray, float, int], tuple[np.ndarray, int]]


def sampler_estimator(sampler: SamplePolicy) -> Estimator:
    """Estimator that averages ``sampler(delta)`` draws at each point."""

    def estimator(oracle, x_current, x_trial, delta, trials):
        n = sampler(delta)
        return sample_means(oracle, (x_current, x_trial), n, trials)[1], n

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
        object.__setattr__(self, "trials", check_integer("trials", self.trials, 1000))
        if not 0.0 < self.confidence < 1.0:
            raise ValueError("confidence must lie strictly in (0, 1)")
        if not 2.0 <= self.h < math.inf:
            raise ValueError(f"h must be finite and >= 2, got {self.h}")
        # A float or bool seed would key the estimate sets as int(seed).
        object.__setattr__(self, "seed", check_integer("seed", self.seed, 0))


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


_exceedance_rows = rows_writer(
    ExceedanceCell, ("delta", "threshold", "frequency", "wilson_upper", "passed")
)
# Variance report rows are the fields of MomentCell in order.
_moment_rows = rows_writer(MomentCell, tuple(field.name for field in fields(MomentCell)))


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
        raise ValueError("the a2h audit requires an alpha grid in the spec")
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
    """One row of ``CONDITIONS``: what the audit loop needs for one condition.

    An exceedance condition has an outer grid ``grid(spec, noise)``; its
    cell at (outer, delta) counts ``|err| >= threshold(spec, outer, delta)``
    against ``bound(spec, outer)``.  The variance condition has no grid and
    reports two moment cells per delta.
    """

    grid: Callable[[TailAuditSpec, NoiseModel], tuple[float, ...]] | None = None
    threshold: Callable[[TailAuditSpec, float, float], float] | None = None
    bound: Callable[[TailAuditSpec, float], float] | None = None
    outer: str = "p"  # the ExceedanceCell field that holds the outer value


CONDITIONS = {
    "a1": Condition(_p_grid, lambda s, p, d: (s.eps_f / p) * d * d, lambda s, p: p),
    "a2": Condition(_p_grid, lambda s, p, d: math.sqrt(s.eps_q / p) * d * d, lambda s, p: p),
    "a2h": Condition(
        _alpha_grid, lambda s, a, d: a * d**s.h,
        lambda s, a: min(1.0, s.eps_q / a ** tail_order(s.h)), outer="alpha",
    ),
    "variance": Condition(),
}


def check_conditions(names) -> None:
    """A ``ValueError`` unless ``names`` lists at least one condition of
    ``CONDITIONS``, each once."""
    for name in names:
        if name not in CONDITIONS:
            raise ValueError(f"unknown condition {name!r}")
    if not names:
        raise ValueError("at least one condition is required")
    if len(set(names)) < len(names):
        raise ValueError(f"each condition may be listed once, got {list(names)}")


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
    The set is drawn on the oracle substream ``key``, so it is reproducible
    and independent of any outer scheduling.  The estimator builds the
    whole set in one call.
    """
    cell_oracle = oracle.spawn(*key)
    y = x + delta * g
    f_x, f_y = oracle.problem.true_values(np.array([x, y])).tolist()
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


def _finite(value: Callable[[], float], what: str) -> float:
    """``value()``, checked to be finite: no error reaches an infinite threshold."""
    try:
        result = value()
    except OverflowError:  # float pow past the float range
        result = math.inf
    if not math.isfinite(result):
        raise ValueError(f"{what} is not finite")
    return result


def audit_conditions(
    names,
    oracle: StochasticOracle,
    estimator: Estimator,
    x,
    g,
    spec: TailAuditSpec,
    k_f: float = 1.0,
) -> tuple[AuditReport, ...]:
    """Audit each condition ``CONDITIONS[name]`` on one error set per delta.

    Returns one report per name, in order; names that fail
    ``check_conditions`` raise its ``ValueError`` before any draw.  ``k_f``
    sets the variance bound ``k_f^2 delta^4`` and is unused otherwise.
    """
    check_conditions(names)
    conditions = {name: CONDITIONS[name] for name in names}
    grids = {name: c.grid(spec, oracle.noise) for name, c in conditions.items() if c.grid is not None}
    if "variance" in conditions and not 0.0 < k_f < math.inf:
        raise ValueError(f"k_f must be positive and finite, got {k_f}")
    point, direction = _audit_point(oracle, x, g)
    cells = {name: [] for name in conditions}
    draws = 0
    for i_delta, delta in enumerate(spec.delta_grid):
        thresholds = {
            (name, outer): _finite(
                lambda: conditions[name].threshold(spec, outer, delta),
                f"threshold at delta={delta}, {conditions[name].outer}={outer}",
            )
            for name, grid in grids.items()
            for outer in grid
        }
        diff_errors, cur_errors, trial_errors, samples, set_draws = _collect_errors(
            oracle, estimator, point, direction, delta, spec.trials, (i_delta, spec.seed)
        )
        draws += set_draws
        abs_errors = np.abs(diff_errors)
        if "variance" in conditions:
            bound = _finite(lambda: k_f * k_f * delta**4, f"variance bound k_f^2 delta^4 at delta={delta}")
            for which, errors in (("current", cur_errors), ("trial", trial_errors)):
                squared = errors * errors
                moment = float(np.mean(squared))
                slack = float(np.std(squared, ddof=1) / math.sqrt(spec.trials))
                passed = moment <= bound + 3.0 * slack
                cells["variance"].append(
                    MomentCell(which, delta, samples, spec.trials, bound, moment, slack, passed)
                )
        for (name, outer), threshold in thresholds.items():
            condition = conditions[name]
            bound = condition.bound(spec, outer)
            exceed = int(np.count_nonzero(abs_errors >= threshold))
            upper = wilson_upper(exceed, spec.trials, spec.confidence)
            cells[name].append(
                ExceedanceCell(
                    name, **{"p": None, "alpha": None, condition.outer: outer}, delta=delta,
                    threshold=threshold, bound=bound, samples_per_estimate=samples,
                    trials=spec.trials, exceedances=exceed, frequency=exceed / spec.trials,
                    wilson_upper=upper, passed=upper <= bound,
                )
            )
    return tuple(
        AuditReport(name, tuple(c), all(cell.passed for cell in c), draws) for name, c in cells.items()
    )


def audit_a1(oracle: StochasticOracle, estimator: Estimator, x, g, spec: TailAuditSpec) -> AuditReport:
    """First-moment tail audit: P(|err| >= (eps_f/p) delta^2) <= p per cell."""
    return audit_conditions(("a1",), oracle, estimator, x, g, spec)[0]


def write_report_csv(path, report: AuditReport, metadata: Mapping[str, object] | None = None) -> None:
    """Cell-per-row CSV: p, delta, threshold, freq, wilson_upper, pass.

    The first column of a generalized (a2h) report holds each cell's bound.

    Variance reports use their own column set (delta, bound, moment,
    slack, pass per estimate).
    """
    if report.condition == "variance":
        header = ("which", "delta", "samples", "trials", "bound", "moment", "slack", "pass")
        rows = _moment_rows(report.cells)
    else:
        header = ("p", "delta", "threshold", "freq", "wilson_upper", "pass")
        rows = (
            f"{format_float(cell.p if cell.p is not None else cell.bound)},{row}"
            for cell, row in zip(report.cells, _exceedance_rows(report.cells))
        )
    write_table(path, header, rows, metadata)


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
