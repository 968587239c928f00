"""Trace post-processing: summability, stationarity and alignment checks.

Summaries are exact functions of the nine trace columns, so recomputing
them from a CSV round-trip reproduces them bit for bit.  The stationarity
and alignment diagnostics need the in-memory vector fields that CSV does
not carry.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from operator import itemgetter
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from .problems import TestProblem
from .trace import TRACE_COLUMNS, IterationRecord, metadata_lines, rows_writer


class UnsupportedProblemError(ValueError):
    """The problem does not declare the information a diagnostic needs."""


@dataclass(frozen=True)
class RunSummary:
    seed: int | None
    iterations: int
    final_delta: float
    cum_delta_sq: float
    tail_fraction: float
    final_f_true: float
    gap: float | None
    success_rate: float


SUMMARY_COLUMNS = tuple(field.name for field in dataclasses.fields(RunSummary))
_summary_rows = rows_writer(RunSummary, SUMMARY_COLUMNS)


_success, _delta, _f_true = (
    itemgetter(TRACE_COLUMNS.index(name)) for name in ("success", "delta", "f_true_current")
)


def summarize(
    trace: Sequence[tuple],
    seed: int | None = None,
    f_star: float | None = None,
) -> RunSummary:
    """Aggregate trace rows (records, or tuples that start with the
    ``TRACE_COLUMNS`` values) into a run summary.

    ``final_delta`` and ``final_f_true`` are taken from the last row (the
    last stepsize used and the true value at the last evaluated iterate).
    ``tail_fraction`` is the share of the squared-stepsize mass contributed
    by the last tenth of the iterations; a summable stepsize sequence with
    a decaying tail makes it small.  Sums run left to right in Python, as
    the run loop's ``cum_delta_sq`` does.
    """
    if not trace:
        raise ValueError("cannot summarize an empty trace")
    deltas = list(map(_delta, trace))
    deltas_sq = [delta * delta for delta in deltas]
    cum = sum(deltas_sq)
    tail_count = max(1, len(deltas) // 10)
    tail = sum(deltas_sq[-tail_count:])
    final_f = _f_true(trace[-1])
    return RunSummary(
        seed=seed,
        iterations=len(deltas),
        final_delta=deltas[-1],
        cum_delta_sq=cum,
        tail_fraction=tail / cum if cum > 0.0 else 0.0,
        final_f_true=final_f,
        gap=None if f_star is None else final_f - f_star,
        success_rate=sum(map(_success, trace)) / len(deltas),
    )


def final_iterate(trace: Sequence[IterationRecord]) -> np.ndarray:
    """The iterate after the last recorded update (needs in-memory vectors)."""
    if not trace:
        raise ValueError("empty trace")
    last = trace[-1]
    if last.x is None or last.step is None:
        raise ValueError("trace rows lack iterate/step vectors (CSV round-trip?)")
    return last.x + last.step if last.success else last.x.copy()


def stationarity_proxy(
    trace: Sequence[IterationRecord],
    problem: TestProblem,
    radius: float = math.inf,
) -> float:
    """Distance from the final iterate to the nearest known stationary point.

    Only stationary points within ``radius`` of the final iterate are
    considered; returns ``inf`` when none are.  Raises
    :class:`UnsupportedProblemError` for problems without a declared
    stationary set.
    """
    if radius <= 0.0:
        raise ValueError("radius must be positive")
    if problem.stationary_points is None:
        raise UnsupportedProblemError(
            f"problem {problem.name or '<anonymous>'} declares no stationary set"
        )
    x_final = final_iterate(trace)
    best = math.inf
    for point in problem.stationary_points:
        dist = float(np.linalg.norm(x_final - np.asarray(point, dtype=float)))
        if dist <= radius and dist < best:
            best = dist
    return best


def alignment_profile(trace: Sequence[IterationRecord]) -> list[float]:
    """Per-iteration residuals ``|| s/||s|| + g ||`` of a trust-region trace.

    Residuals near zero mean the step tracks the negative model direction;
    an exactly antipodal step gives 2.
    """
    residuals = []
    for rec in trace:
        if rec.step is None or rec.direction is None:
            raise ValueError("trace rows lack step/direction vectors")
        norm = float(np.linalg.norm(rec.step))
        if norm == 0.0:
            raise ValueError(f"iteration {rec.k} has a zero step")
        residuals.append(float(np.linalg.norm(rec.step / norm + rec.direction)))
    return residuals


def write_summary_csv(
    path, summaries: Iterable[RunSummary], metadata: Mapping[str, object] | None = None
) -> None:
    lines = metadata_lines(metadata)
    lines.append(",".join(SUMMARY_COLUMNS))
    lines.extend(_summary_rows(summaries))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
