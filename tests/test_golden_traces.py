"""Fresh ``sdfo run`` outputs match traces committed under ``tests/data``.

The configs keep d <= 3 and diagonal model matrices, so the runs involve
no LAPACK call and the expected bytes do not depend on the BLAS build.
"""

import json
from pathlib import Path

import pytest

from sdfo.cli import main

DATA = Path(__file__).parent / "data"


@pytest.mark.parametrize(
    "name", ["golden_direct_search", "golden_trust_region", "golden_regression_d3"]
)
def test_run_matches_golden_trace(tmp_path, name):
    config = DATA / f"{name}.json"
    raw = json.loads(config.read_text())
    assert main(["run", str(config), "--out", str(tmp_path)]) == 0
    stem = f"{raw['algorithm']}_{raw['problem']['name']}"
    (seed,) = raw["seeds"]
    trace = (tmp_path / f"{stem}_seed{seed}.csv").read_bytes()
    summary = (tmp_path / f"{stem}_summary.csv").read_bytes()
    assert trace == (DATA / f"{name}.trace.csv").read_bytes()
    assert summary == (DATA / f"{name}.summary.csv").read_bytes()
