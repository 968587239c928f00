"""Fresh ``sdfo run`` and ``sdfo audit`` outputs match files committed under ``tests/data``.

Each config has one expected output on every CPU.  The run configs fit
diagonal models, solved on their sorted curvature, so the runs involve no
LAPACK call, and every sum of squares they write (f on the sphere, step
norms, direction and subproblem norms) is numpy's own pairwise sum, not a
BLAS dot product, whose rounding would follow the CPU's kernel.  The
d = 20 sphere run is where the summation order matters most: its f values,
stencil means and step norms are 20-term sums.  The audit config uses
Gaussian noise only, so no ``np.power`` result enters the expected bytes.
"""

import json
from pathlib import Path

import pytest

from sdfo.cli import main

DATA = Path(__file__).parent / "data"


@pytest.mark.parametrize(
    "name",
    ["golden_direct_search", "golden_trust_region", "golden_regression_d3", "golden_regression_d20"],
)
def test_run_matches_golden_trace(tmp_path, name):
    # golden_regression_d20: trust_region, sphere d = 20, regression_clipped,
    # fixed n = 4, 30 iterations.
    trace, summary = _run(tmp_path, name)
    assert trace == (DATA / f"{name}.trace.csv").read_bytes()
    assert summary == (DATA / f"{name}.summary.csv").read_bytes()


def _run(tmp_path, name):
    """The trace and summary bytes ``sdfo run`` writes for ``DATA/<name>.json`` (one seed)."""
    config = DATA / f"{name}.json"
    raw = json.loads(config.read_text())
    assert main(["run", str(config), "--out", str(tmp_path)]) == 0
    stem = f"{raw['algorithm']}_{raw['problem']['name']}"
    (seed,) = raw["seeds"]
    return (tmp_path / f"{stem}_seed{seed}.csv").read_bytes(), (tmp_path / f"{stem}_summary.csv").read_bytes()


def test_audit_matches_golden_outputs(tmp_path):
    # a1, a2, a2h (h = 3, alpha 2 below eps_q = 4) and variance at two deltas.
    assert main(["audit", str(DATA / "golden_audit.json"), "--out", str(tmp_path)]) == 0
    written = sorted(p.name for p in tmp_path.iterdir())
    assert written == [
        "audit_a1_sphere.csv",
        "audit_a2_sphere.csv",
        "audit_a2h_sphere.csv",
        "audit_sphere_summary.txt",
        "audit_variance_sphere.csv",
    ]
    for name in written:
        assert (tmp_path / name).read_bytes() == (DATA / f"golden_audit.{name}").read_bytes(), name
