"""Per-iteration run records and their delimited serialization.

The CSV schema is fixed (column order below) and floats are written with
17 significant digits so a round-trip through disk is lossless.  Header
comment lines starting with ``#`` carry reproducibility metadata.
"""

from __future__ import annotations

import operator
import typing
from dataclasses import dataclass
from itertools import repeat
from pathlib import Path
from typing import Iterable, Iterator, Mapping

import numpy as np

TRACE_COLUMNS = (
    "k",
    "success",
    "delta",
    "step_norm",
    "f_true_current",
    "est_current",
    "est_trial",
    "samples_current",
    "samples_trial",
)


@dataclass(frozen=True)
class IterationRecord:
    """One optimizer iteration.

    The nine scalar fields form the CSV schema.  The vector fields
    (iterate, direction, step) are kept in memory for diagnostics that
    need them and are not serialized.
    """

    k: int
    success: bool
    delta: float
    step_norm: float
    f_true_current: float
    est_current: float
    est_trial: float
    samples_current: int
    samples_trial: int
    x: np.ndarray | None = None
    direction: np.ndarray | None = None
    step: np.ndarray | None = None


@dataclass(frozen=True)
class TraceColumns:
    """One run's trace as one array per trace column; row ``k`` is iteration ``k``.

    The optional vector fields hold one 1-D array per row (read-only by
    convention: rows of a seed batch may share memory).  A run keeps its
    trace in this form until it is written or summarized; :meth:`records`
    builds the per-iteration records.
    """

    success: np.ndarray
    delta: np.ndarray
    step_norm: np.ndarray
    f_true_current: np.ndarray
    est_current: np.ndarray
    est_trial: np.ndarray
    samples_current: np.ndarray
    samples_trial: np.ndarray
    x: tuple[np.ndarray, ...] | None = None
    direction: tuple[np.ndarray, ...] | None = None
    step: tuple[np.ndarray, ...] | None = None

    def __len__(self) -> int:
        return len(self.delta)

    @classmethod
    def from_rows(cls, rows: list[tuple], vectors: list[tuple] = ()) -> "TraceColumns":
        """Columns from rows of the values after ``k``, and rows of (x, direction, step)."""
        values = zip(*rows) if rows else [()] * len(_COLUMN_TYPES)
        columns = [np.array(column, dtype=kind) for column, kind in zip(values, _COLUMN_TYPES)]
        return cls(*columns, *zip(*vectors))

    @classmethod
    def from_records(cls, records: Iterable[IterationRecord]) -> "TraceColumns":
        return cls.from_rows([_column_values(rec) for rec in records])

    def rows(self) -> Iterator[tuple]:
        """The ``TRACE_COLUMNS`` values of each row, as Python scalars."""
        return zip(range(len(self)), *(getattr(self, c).tolist() for c in TRACE_COLUMNS[1:]))

    def records(self) -> list[IterationRecord]:
        """One ``IterationRecord`` per row, with the vectors when the trace has them."""
        vectors = zip(self.x, self.direction, self.step) if self.x is not None else repeat((None,) * 3)
        return [IterationRecord(*row, *vecs) for row, vecs in zip(self.rows(), vectors)]


# The types of the trace columns after ``k``, read off ``IterationRecord``.
_COLUMN_TYPES = tuple(typing.get_type_hints(IterationRecord)[c] for c in TRACE_COLUMNS[1:])
_column_values = operator.attrgetter(*TRACE_COLUMNS[1:])


def format_float(value: float) -> str:
    return format(float(value), ".17g")


_SPECS = {int: "", bool: "d", float: ".17g", str: ""}
_PARSE = {int: int, bool: lambda s: bool(int(s)), float: float}


def row_formatter(cls, columns: tuple[str, ...]):
    """A function that writes a tuple of ``cls``'s ``columns`` values as a CSV row.

    Each cell is formatted by its field's annotation: strings and ints as
    they are, bools as 1/0, floats with 17 significant digits (as
    ``format_float``), and None in an optional field as an empty cell.
    The row is one ``%`` template: ``"%.17g" % v`` and ``"%d" % v`` equal
    ``format(v, ".17g")`` and ``format(v, "d")``, and ``"%s" % v`` equals
    ``format(v, "")``.  Optional cells are formatted first and enter as
    ``%s``.
    """
    hints = typing.get_type_hints(cls)
    # An optional field ``X | None`` is formatted as ``X``.
    kinds = [typing.get_args(hints[c]) or (hints[c],) for c in columns]
    specs = [_SPECS[kind[0]] for kind in kinds]
    optional = [(i, specs[i]) for i, kind in enumerate(kinds) if type(None) in kind]
    template = ",".join(
        "%s" if type(None) in kind else "%" + (spec or "s") for kind, spec in zip(kinds, specs)
    )
    if not optional:
        return template.__mod__

    def write(values) -> str:
        row = list(values)
        for i, spec in optional:
            row[i] = "" if row[i] is None else format(row[i], spec)
        return template % tuple(row)

    return write


def row_writer(cls, columns: tuple[str, ...]):
    """A function that writes ``columns`` of a ``cls`` instance as a CSV row (see ``row_formatter``)."""
    fmt, values = row_formatter(cls, columns), operator.attrgetter(*columns)
    return lambda obj: fmt(values(obj))


def metadata_lines(metadata: Mapping[str, object] | None) -> list[str]:
    if not metadata:
        return []
    return [f"# {key}={value}" for key, value in metadata.items()]


_trace_format = row_formatter(IterationRecord, TRACE_COLUMNS)
_trace_row = row_writer(IterationRecord, TRACE_COLUMNS)


def write_trace_csv(
    path,
    trace: TraceColumns | Iterable[IterationRecord],
    metadata: Mapping[str, object] | None = None,
) -> None:
    lines = metadata_lines(metadata)
    lines.append(",".join(TRACE_COLUMNS))
    if isinstance(trace, TraceColumns):
        lines.extend(map(_trace_format, trace.rows()))
    else:
        lines.extend(map(_trace_row, trace))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_trace_csv(path) -> list[IterationRecord]:
    """Parse a trace written by :func:`write_trace_csv`.

    Vector fields are not stored on disk, so the returned records carry
    ``None`` for them.
    """
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    rows = [ln for ln in lines if ln and not ln.startswith("#")]
    if not rows:
        raise ValueError(f"no header row found in {path}")
    header = tuple(rows[0].split(","))
    if header != TRACE_COLUMNS:
        raise ValueError(f"unexpected trace header {header} in {path}")
    hints = typing.get_type_hints(IterationRecord)
    parsers = [(c, _PARSE[hints[c]]) for c in TRACE_COLUMNS]
    records = []
    for row in rows[1:]:
        parts = row.split(",")
        if len(parts) != len(TRACE_COLUMNS):
            raise ValueError(f"malformed trace row in {path}: {row!r}")
        records.append(IterationRecord(**{c: parse(v) for (c, parse), v in zip(parsers, parts)}))
    return records
