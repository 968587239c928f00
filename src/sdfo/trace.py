"""Per-iteration run records and their delimited serialization.

The CSV schema is fixed (column order below) and floats are written with
17 significant digits so a round-trip through disk is lossless.  Header
comment lines starting with ``#`` carry reproducibility metadata.
"""

from __future__ import annotations

import operator
import typing
from pathlib import Path
from typing import Iterable, Mapping, NamedTuple

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


class IterationRecord(NamedTuple):
    """One optimizer iteration: a trace row.

    The first nine items are the ``TRACE_COLUMNS`` values, so any tuple
    that starts with them is a trace row too (the run loop's rows without
    vectors are plain tuples).  The vector fields (iterate, direction,
    step) are kept in memory for diagnostics that need them and are not
    serialized.
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


def format_float(value: float) -> str:
    return format(float(value), ".17g")


_SPECS = {int: "", bool: "d", float: ".17g", str: ""}
_PARSE = {int: int, bool: lambda s: bool(int(s)), float: float}


def rows_writer(cls, columns: tuple[str, ...]):
    """A function that writes the ``columns`` values of ``cls`` rows as CSV lines.

    It maps an iterable of rows to an iterator of lines, one per row.  A
    dataclass row is read by attribute.  The columns of a NamedTuple must
    be its leading fields: they are read by position, so any tuple that
    starts with their values writes the same line.  Each cell is formatted by its
    field's annotation: strings and ints as they are, bools as 1/0, floats
    with 17 significant digits (as ``format_float``), and None in an
    optional field as an empty cell.  The row is one ``%`` template:
    ``"%.17g" % v`` and ``"%d" % v`` equal ``format(v, ".17g")`` and
    ``format(v, "d")``, and ``"%s" % v`` equals ``format(v, "")``.
    Optional cells are formatted first and enter as ``%s``; without them
    the per-row work stays in C (``map`` of ``%`` over ``map`` of a getter).
    """
    if issubclass(cls, tuple):
        values = operator.itemgetter(slice(len(columns)))
    else:
        values = operator.attrgetter(*columns)
    hints = typing.get_type_hints(cls)
    # An optional field ``X | None`` is formatted as ``X``.
    kinds = [typing.get_args(hints[c]) or (hints[c],) for c in columns]
    specs = [_SPECS[kind[0]] for kind in kinds]
    optional = [(i, specs[i]) for i, kind in enumerate(kinds) if type(None) in kind]
    template = ",".join(
        "%s" if type(None) in kind else "%" + (spec or "s") for kind, spec in zip(kinds, specs)
    )

    def write(cells) -> str:
        cells = list(cells)
        for i, spec in optional:
            cells[i] = "" if cells[i] is None else format(cells[i], spec)
        return template % tuple(cells)

    fmt = write if optional else template.__mod__
    return lambda rows: map(fmt, map(values, rows))


def metadata_lines(metadata: Mapping[str, object] | None) -> list[str]:
    if not metadata:
        return []
    return [f"# {key}={value}" for key, value in metadata.items()]


_trace_rows = rows_writer(IterationRecord, TRACE_COLUMNS)


def write_trace_csv(
    path,
    trace: Iterable[tuple],
    metadata: Mapping[str, object] | None = None,
) -> None:
    """Write trace rows (records, or tuples that start with the column values)."""
    lines = metadata_lines(metadata)
    lines.append(",".join(TRACE_COLUMNS))
    lines.extend(_trace_rows(trace))
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
