"""Trace CSV schema, lossless float round-trip and metadata headers."""

import math
import re
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sdfo import (
    DirectionGenerator,
    IterationRecord,
    NoiseModel,
    QuasiRandomSphere,
    ds_run,
    fixed_sample_policy,
    get_problem,
    read_trace_csv,
    summarize,
    tr_run,
    write_trace_csv,
)
from sdfo.diagnostics import SUMMARY_COLUMNS, RunSummary, _summary_rows
from sdfo.direct_search import DirectSearchConfig, propose_ds
from sdfo.trace import TRACE_COLUMNS, _trace_rows, format_float, write_table
from sdfo.trust_region import TrustRegionConfig, propose_tr, run_steps


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


@pytest.mark.parametrize(
    ("text", "message"),
    [
        ("# seed=1\n\n", "no header row found in {path}"),
        (",".join(TRACE_COLUMNS) + "\n1,0,0.5\n", "malformed trace row in {path}: '1,0,0.5'"),
    ],
    ids=["no-header", "short-row"],
)
def test_reader_rejects_malformed_file(tmp_path, text, message):
    path = tmp_path / "bad.csv"
    path.write_text(text)
    with pytest.raises(ValueError, match=f"^{re.escape(message.format(path=path))}$"):
        read_trace_csv(path)


def test_table_layout(tmp_path):
    path = tmp_path / "t.csv"
    write_table(path, ("a", "b"), iter(["1,2", "3,4"]), {"seed": 1, "rule": "fixed"})
    assert path.read_bytes() == b"# seed=1\n# rule=fixed\na,b\n1,2\n3,4\n"
    write_table(path, ("a", "b"), [])
    assert path.read_bytes() == b"a,b\n"


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
    expected = per_cell_row(record, TRACE_COLUMNS, TRACE_SPECS)
    # A record, and the plain row tuple the run loop builds without vectors.
    assert list(_trace_rows([record, tuple(record)[: len(TRACE_COLUMNS)]])) == [expected, expected]


@settings(max_examples=200, deadline=None)
@given(
    seed=st.none() | any_int, iterations=any_int, floats=st.lists(any_float, min_size=6, max_size=6),
    gap_missing=st.booleans(),
)
@example(seed=None, iterations=0, floats=[math.nan, math.inf, -math.inf, -0.0, 5e-324, 0.0], gap_missing=True)
def test_optional_cells_match_per_cell_format(seed, iterations, floats, gap_missing):
    final_delta, cum, tail, final_f, gap, rate = floats
    summary = RunSummary(seed, iterations, final_delta, cum, tail, final_f, None if gap_missing else gap, rate)
    assert list(_summary_rows([summary])) == [per_cell_row(summary, SUMMARY_COLUMNS, SUMMARY_SPECS)]


LIBRARY_RUNS = {
    "direct_search": (
        propose_ds, ds_run, DirectSearchConfig(delta0=1.0, tau=0.1, tau_bar=1.1, max_iters=300, theta=0.25),
    ),
    "trust_region": (
        propose_tr, tr_run,
        TrustRegionConfig(delta0=1.0, delta_max=2.0, tau=0.1, tau_bar=1.1, max_iters=300, theta=0.25),
    ),
}


def rows_and_records(method, seed=4):
    """One seed's run twice: as the CLI runs it (plain rows) and as the library runs it (records)."""
    propose, run, cfg = LIBRARY_RUNS[method]
    problem, noise, sampler = get_problem("l1norm", 2), NoiseModel.gaussian(0.01), fixed_sample_policy(5)
    ((rows_state, rows),) = run_steps(
        propose, cfg, problem, noise, DirectionGenerator(2, QuasiRandomSphere()), (2.0, -1.5), (seed,),
        sampler, 0.0, vectors=False,
    )
    state, records = run(
        cfg, problem, noise, DirectionGenerator(2, QuasiRandomSphere()), (2.0, -1.5), seed=seed,
        sampler=sampler, delta_floor=0.0,
    )
    return (rows_state, rows), (state, records)


@pytest.mark.parametrize("method", sorted(LIBRARY_RUNS))
def test_summary_of_rows_equals_summary_of_records(method):
    (_, rows), (_, records) = rows_and_records(method)
    assert len(rows) == len(records) == 300
    assert summarize(rows, seed=2, f_star=-1.0) == summarize(records, seed=2, f_star=-1.0)
    rng = np.random.default_rng(6)
    made = [make_record(k, rng) for k in range(57)]
    assert summarize([tuple(r)[: len(TRACE_COLUMNS)] for r in made]) == summarize(made)


@pytest.mark.parametrize("method", sorted(LIBRARY_RUNS))
def test_state_cum_delta_sq_is_the_summary_sum(method):
    for state, trace in rows_and_records(method):
        packed = struct.pack("<d", state.cum_delta_sq)
        assert packed == struct.pack("<d", summarize(trace).cum_delta_sq)
