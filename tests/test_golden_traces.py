"""Fresh ``sdfo run`` and ``sdfo audit`` outputs match files committed under ``tests/data``.

The run configs fit diagonal models, solved on their sorted curvature, so
the runs involve no LAPACK call.  Their dot products (f on the sphere, step norms) are OpenBLAS
``ddot`` calls, and the ``ddot`` kernels of AVX-512 and of AVX2 CPUs round
differently, even at d = 2; the d <= 3 files were written with the AVX-512
kernel.  The d = 20 sphere run is where the summation order matters: its f
values, stencil means and step norms are 20-term dot products and sums,
and it pins each of them against the pair of files of the kernel family
OpenBLAS uses on the CPU at hand.  The audit config uses Gaussian noise only, so no ``np.power``
result enters the expected bytes.
"""

import json
import os
from pathlib import Path

import numpy as np
import pytest
from numpy._core._multiarray_umath import __cpu_features__

from sdfo.cli import main

DATA = Path(__file__).parent / "data"


@pytest.mark.parametrize(
    "name", ["golden_direct_search", "golden_trust_region", "golden_regression_d3"]
)
def test_run_matches_golden_trace(tmp_path, name):
    trace, summary = _run(tmp_path, name)
    assert trace == (DATA / f"{name}.trace.csv").read_bytes()
    assert summary == (DATA / f"{name}.summary.csv").read_bytes()


# The golden file family of each OpenBLAS core type, as OPENBLAS_CORETYPE
# names it, whose ddot kernel wrote or matches the d = 20 files.
KERNEL_FAMILY = {
    "skylakex": "avx512", "cooperlake": "avx512", "sapphirerapids": "avx512",
    "haswell": "avx2", "zen": "avx2", "sandybridge": "avx2",
}


def _ddot_kernel_family():
    """``"avx512"`` or ``"avx2"`` for the ``ddot`` kernel numpy's OpenBLAS uses here, else None.

    OpenBLAS takes the core type from ``OPENBLAS_CORETYPE`` when it is set
    and otherwise picks an AVX-512 kernel on a CPU with AVX-512F and the
    Haswell, Zen or Sandybridge kernel on one with AVX2 or AVX.
    """
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    if "openblas" not in blas:
        return None
    coretype = os.environ.get("OPENBLAS_CORETYPE")
    if coretype:
        return KERNEL_FAMILY.get(coretype.lower())
    features = __cpu_features__
    if features.get("AVX512F"):
        return "avx512"
    if features.get("AVX2") or features.get("AVX"):
        return "avx2"
    return None


def test_d20_run_matches_its_ddot_kernels_golden_trace(tmp_path):
    # trust_region, sphere d = 20, regression_clipped, fixed n = 4, 30 iterations.
    outputs = _run(tmp_path, "golden_regression_d20")
    expected = {
        family: tuple(
            (DATA / f"golden_regression_d20.{family}.{part}.csv").read_bytes()
            for part in ("trace", "summary")
        )
        for family in ("avx512", "avx2")
    }
    assert expected["avx512"] != expected["avx2"]
    family = _ddot_kernel_family()
    if family is not None:
        assert outputs == expected[family]
    elif outputs not in expected.values():
        pytest.skip("no d = 20 golden files for this BLAS's ddot kernel")


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
