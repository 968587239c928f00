"""Trace CSV schema, lossless float round-trip and metadata headers."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sdfo import IterationRecord, read_trace_csv, summarize, write_trace_csv
from sdfo.diagnostics import SUMMARY_COLUMNS, RunSummary, _summary_row
from sdfo.trace import TRACE_COLUMNS, TraceColumns, _trace_row, format_float


def make_record(k, rng):
    return IterationRecord(
        k=k,
        success=bool(rng.integers(0, 2)),
        delta=float(rng.uniform(1e-12, 10.0)),
        step_norm=float(rng.uniform(0, 5.0)),
        f_true_current=float(rng.standard_normal() * 1e3),
        est_current=float(rng.standard_normal()),
        est_trial=float(rng.standard_normal() * 1e-8),
        samples_current=int(rng.integers(1, 1000)),
        samples_trial=int(rng.integers(1, 1000)),
    )


def test_column_order_is_pinned():
    assert TRACE_COLUMNS == (
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


def test_roundtrip_is_lossless(tmp_path):
    rng = np.random.default_rng(0)
    records = [make_record(k, rng) for k in range(200)]
    path = tmp_path / "trace.csv"
    write_trace_csv(path, records, metadata={"seed": 0, "algorithm": "direct_search"})
    loaded = read_trace_csv(path)
    assert len(loaded) == len(records)
    for a, b in zip(records, loaded):
        assert a.k == b.k and a.success == b.success
        assert a.delta == b.delta
        assert a.step_norm == b.step_norm
        assert a.f_true_current == b.f_true_current
        assert a.est_current == b.est_current
        assert a.est_trial == b.est_trial
        assert (a.samples_current, a.samples_trial) == (b.samples_current, b.samples_trial)


def test_seventeen_digit_rendering():
    assert format_float(0.1) == "0.10000000000000001"
    assert float(format_float(1.0 / 3.0)) == 1.0 / 3.0


def test_metadata_header_lines(tmp_path):
    path = tmp_path / "t.csv"
    write_trace_csv(path, [], metadata={"a": 1, "b": "x"})
    lines = path.read_text().splitlines()
    assert lines[0] == "# a=1"
    assert lines[1] == "# b=x"
    assert lines[2] == ",".join(TRACE_COLUMNS)


def test_reader_rejects_wrong_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(ValueError):
        read_trace_csv(path)


def test_write_is_byte_deterministic(tmp_path):
    rng = np.random.default_rng(1)
    records = [make_record(k, rng) for k in range(50)]
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_trace_csv(p1, records, metadata={"seed": 1})
    write_trace_csv(p2, records, metadata={"seed": 1})
    assert p1.read_bytes() == p2.read_bytes()


def per_cell_row(obj, columns, specs):
    """A CSV row built one ``format`` call per cell: the writer's reference."""
    return ",".join(
        "" if v is None else format(v, spec) for spec, v in zip(specs, (getattr(obj, c) for c in columns))
    )


TRACE_SPECS = ("", "d", ".17g", ".17g", ".17g", ".17g", ".17g", "", "")
SUMMARY_SPECS = ("", "", ".17g", ".17g", ".17g", ".17g", ".17g", ".17g")
EDGE_FLOATS = (math.nan, math.inf, -math.inf, -0.0, 5e-324)
any_float = st.floats(allow_nan=True, allow_infinity=True) | st.sampled_from(EDGE_FLOATS)
any_int = st.integers(min_value=-(2**70), max_value=2**70)


@settings(max_examples=300, deadline=None)
@given(
    k=any_int, success=st.booleans(), floats=st.lists(any_float, min_size=5, max_size=5),
    samples=st.tuples(any_int, any_int),
)
@example(k=0, success=True, floats=[math.nan, math.inf, -math.inf, -0.0, 5e-324], samples=(1, 1))
def test_template_row_equals_per_cell_format(k, success, floats, samples):
    record = IterationRecord(k, success, *floats, *samples)
    assert _trace_row(record) == per_cell_row(record, TRACE_COLUMNS, TRACE_SPECS)


@settings(max_examples=200, deadline=None)
@given(
    seed=st.none() | any_int, iterations=any_int, floats=st.lists(any_float, min_size=6, max_size=6),
    gap_missing=st.booleans(),
)
@example(seed=None, iterations=0, floats=[math.nan, math.inf, -math.inf, -0.0, 5e-324, 0.0], gap_missing=True)
def test_optional_cells_match_per_cell_format(seed, iterations, floats, gap_missing):
    final_delta, cum, tail, final_f, gap, rate = floats
    summary = RunSummary(seed, iterations, final_delta, cum, tail, final_f, None if gap_missing else gap, rate)
    assert _summary_row(summary) == per_cell_row(summary, SUMMARY_COLUMNS, SUMMARY_SPECS)


def test_columns_write_the_records_bytes(tmp_path):
    rng = np.random.default_rng(5)
    records = [make_record(k, rng) for k in range(40)]
    records[3] = IterationRecord(3, False, 0.5, 0.5, 1.0, -0.0, math.nan, 2, 2)
    records[4] = IterationRecord(4, False, 0.5, 0.5, 1.0, math.inf, -math.inf, 2, 2)
    columns = TraceColumns.from_records(records)
    assert len(columns) == 40
    write_trace_csv(tmp_path / "records.csv", records, metadata={"seed": 1})
    write_trace_csv(tmp_path / "columns.csv", columns, metadata={"seed": 1})
    assert (tmp_path / "records.csv").read_bytes() == (tmp_path / "columns.csv").read_bytes()
    rebuilt = columns.records()
    assert [_trace_row(r) for r in rebuilt] == [_trace_row(r) for r in records]
    for new, old in zip(rebuilt, records):
        assert [type(getattr(new, c)) for c in TRACE_COLUMNS] == [
            type(getattr(old, c)) for c in TRACE_COLUMNS
        ]


def test_summary_from_columns_equals_summary_from_records():
    rng = np.random.default_rng(6)
    records = [make_record(k, rng) for k in range(57)]
    columns = TraceColumns.from_records(records)
    assert summarize(columns, seed=2, f_star=-1.0) == summarize(records, seed=2, f_star=-1.0)
