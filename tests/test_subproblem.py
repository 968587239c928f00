"""Exact trust-region subproblem solutions against independent verifiers."""

import math
import struct
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sdfo import (
    NoiseModel,
    QuadraticModel,
    RegressionClipped,
    StochasticOracle,
    SubproblemSolution,
    brute_force_min,
    kkt_residuals,
    model_value,
    solve_exact,
)
from sdfo.problems import TestProblem as Problem
from sdfo.subproblem import (
    _BOUNDARY_RTOL,
    _shifted_norm,
    eigendecomposition,
    solve_spectrum,
)
from sdfo.trust_region import stencil_models


def random_model(rng, n, radius=None, eig_range=(-10.0, 10.0)):
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    w = rng.uniform(*eig_range, n)
    b = (q * w) @ q.T
    b = 0.5 * (b + b.T)
    g = rng.standard_normal(n)
    g /= np.linalg.norm(g)
    if radius is None:
        radius = float(rng.uniform(0.1, 3.0))
    return QuadraticModel(g=g, B=b, radius=radius)


def hard_case_model(rng, n, radius_factor=2.0):
    """Gradient orthogonal to a strictly negative lowest eigenspace."""
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    w = np.sort(rng.uniform(0.5, 8.0, n))
    w[0] = -float(rng.uniform(1.0, 6.0))
    b = (q * w) @ q.T
    b = 0.5 * (b + b.T)
    coeffs = rng.standard_normal(n - 1)
    g = q[:, 1:] @ coeffs
    g /= np.linalg.norm(g)
    # Radius beyond the shifted-system solution norm forces the eigenvector bump.
    shifted = np.abs(q[:, 1:].T @ g) / (w[1:] - w[0])
    radius = radius_factor * float(np.linalg.norm(shifted))
    return QuadraticModel(g=g, B=b, radius=radius)


def assert_certificate(model, sol, decrease_tol=1e-12):
    res = kkt_residuals(model, sol)
    norm_s = float(np.linalg.norm(sol.s))
    assert norm_s <= model.radius * (1.0 + 1e-10)
    assert sol.multiplier >= 0.0
    assert res["psd_margin"] >= -1e-8
    assert res["complementarity"] <= 1e-8
    assert res["stationarity"] <= 1e-6 * (1.0 + abs(sol.multiplier))
    if sol.on_boundary:
        assert abs(norm_s - model.radius) <= 1e-8 * model.radius
    assert sol.model_decrease <= decrease_tol


class TestJacobi:
    """Spectra: ``eigendecomposition``, which ``solve_exact`` runs on
    (``np.linalg.eigh`` for a dense matrix, the sorted diagonal for a
    diagonal one), and the clipped stencil curvature, the diagonal whose
    sorted values are the spectrum a trust-region run solves on."""

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 12])
    def test_matches_lapack(self, n):
        rng = np.random.default_rng(n)
        a = rng.standard_normal((n, n))
        a = a + a.T
        w, v = eigendecomposition(a)
        w_ref = np.linalg.eigvalsh(a)
        assert np.all(np.diff(w) >= 0.0)
        assert np.allclose(w, w_ref, atol=1e-12 * max(1.0, np.abs(w_ref).max()))
        assert np.allclose(v @ np.diag(w) @ v.T, a, atol=1e-12 * max(1.0, np.abs(a).max()))
        assert np.allclose(v.T @ v, np.eye(n), atol=1e-13)

    def test_zero_matrix(self):
        w, v = eigendecomposition(np.zeros((3, 3)))
        assert np.array_equal(w, np.zeros(3))
        assert np.array_equal(v, np.eye(3))

    def test_clip_eigenvalues(self):
        # stencil_models clips the fitted curvature [5, -7, 0.5] into
        # [-m delta^-q, M delta^-q] = [-2, 2]: both bounds bind, and the
        # interior value is kept.
        a = np.array([5.0, -7.0, 0.5])
        prob = Problem(dimension=3, eval_true=lambda x: float(0.5 * np.sum(a * x * x)))
        oracle = StochasticOracle(prob, NoiseModel.none())
        policy = RegressionClipped(q=0.5, m=1.0, M=1.0)
        curvature, _ = stencil_models([oracle], policy, np.zeros((1, 3)), [0.25], lambda d: 1)
        # One diagonal row per seed: the model has no off-diagonal entries.
        assert curvature.shape == (1, 3)
        w = np.sort(curvature[0])
        assert np.allclose(w, [-2.0, 0.5, 2.0], atol=1e-12)

    @pytest.mark.parametrize(
        "diag",
        [[3.0, -1.0, 2.0], [0.0, 0.0, 0.0, 1.0], [2.0, -0.5, 2.0, 0.0, -0.5], [4.0]],
        ids=["distinct", "zeros", "repeated", "scalar"],
    )
    def test_diagonal_path_is_sorted_diagonal_and_permuted_identity(self, diag):
        d = np.array(diag)
        w, v = eigendecomposition(np.diag(d))
        order = np.argsort(d, kind="stable")
        assert np.array_equal(w, d[order])
        assert np.array_equal(v, np.eye(d.size)[:, order])


class TestSolveExactExamples:
    def test_boundary_spherical_symmetry(self):
        model = QuadraticModel(g=np.array([1.0, 0.0]), B=np.eye(2), radius=0.5)
        sol = solve_exact(model)
        assert np.allclose(sol.s, [-0.5, 0.0], atol=1e-12)
        assert sol.on_boundary
        assert sol.model_decrease == pytest.approx(-0.375, abs=1e-12)

    def test_interior_newton_point(self):
        model = QuadraticModel(g=np.array([1.0, 0.0]), B=np.eye(2), radius=2.0)
        sol = solve_exact(model)
        assert np.allclose(sol.s, [-1.0, 0.0], atol=1e-12)
        assert not sol.on_boundary
        assert sol.multiplier == 0.0
        assert sol.model_decrease == pytest.approx(-0.5, abs=1e-12)

    def test_hard_case_indefinite(self):
        model = QuadraticModel(g=np.array([0.0, 1.0]), B=np.diag([-1.0, 1.0]), radius=1.0)
        sol = solve_exact(model)
        # Shifted solution (0, -1/2) plus a sqrt(3)/2 lowest-eigenvector bump.
        assert sol.model_decrease == pytest.approx(-0.75, abs=1e-10)
        assert_certificate(model, sol)
        _, brute_value = brute_force_min(model, 10**6, seed=2)
        assert sol.model_decrease <= brute_value + 1e-6

    def test_psd_singular_interior(self):
        model = QuadraticModel(g=np.array([0.0, 1.0]), B=np.diag([0.0, 1.0]), radius=2.0)
        sol = solve_exact(model)
        assert sol.multiplier == 0.0
        assert sol.model_decrease == pytest.approx(-0.5, abs=1e-12)
        assert_certificate(model, sol)

    def test_zero_matrix_step_is_exact(self):
        g = np.array([0.6, 0.8])
        model = QuadraticModel(g=g, B=np.zeros((2, 2)), radius=1.25)
        sol = solve_exact(model)
        assert np.array_equal(sol.s, -1.25 * g)
        assert sol.on_boundary

    def test_input_validation(self):
        with pytest.raises(ValueError):
            QuadraticModel(g=np.array([1.0, 0.0]), B=np.array([[0.0, 1.0], [0.0, 0.0]]), radius=1.0)
        with pytest.raises(ValueError):
            QuadraticModel(g=np.array([1.0, 1.0]), B=np.eye(2), radius=1.0)
        with pytest.raises(ValueError):
            QuadraticModel(g=np.array([1.0, 0.0]), B=np.full((2, 2), np.nan), radius=1.0)
        with pytest.raises(ValueError):
            QuadraticModel(g=np.array([1.0, 0.0]), B=np.eye(2), radius=-1.0)


class TestBruteForce:
    def test_linear_model_on_ball(self):
        model = QuadraticModel(g=np.array([1.0, 0.0]), B=np.zeros((2, 2)), radius=1.0)
        point, value = brute_force_min(model, 100, seed=0)
        assert value == -1.0
        assert np.array_equal(point, np.array([-1.0, 0.0]))

    def test_origin_always_candidate(self):
        model = QuadraticModel(g=np.array([1.0, 0.0]), B=np.eye(2), radius=1.0)
        _, value = brute_force_min(model, 1, seed=0, include_candidates=False)
        assert value <= 0.0

    def test_never_beats_exact_solution(self):
        rng = np.random.default_rng(8)
        for trial in range(60):
            model = random_model(rng, int(rng.integers(1, 5)))
            sol = solve_exact(model)
            _, brute_value = brute_force_min(model, 10**4, seed=trial)
            assert brute_value >= sol.model_decrease - 1e-9


class TestRandomBattery:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_certificates_and_dominance(self, n):
        rng = np.random.default_rng(100 + n)
        for trial in range(40):
            model = random_model(rng, n)
            sol = solve_exact(model)
            assert_certificate(model, sol)
            _, brute_value = brute_force_min(model, 2 * 10**4, seed=trial)
            assert sol.model_decrease <= brute_value + 1e-6

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_hard_cases(self, n):
        rng = np.random.default_rng(200 + n)
        for trial in range(8):
            model = hard_case_model(rng, n)
            sol = solve_exact(model)
            assert sol.on_boundary
            assert sol.multiplier > 0.0
            assert_certificate(model, sol)
            _, brute_value = brute_force_min(model, 2 * 10**4, seed=trial)
            assert sol.model_decrease <= brute_value + 1e-6

    def test_scaling_covariance_with_zero_matrix(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            g = rng.standard_normal(3)
            g /= np.linalg.norm(g)
            radius = float(rng.uniform(0.01, 10.0))
            sol = solve_exact(QuadraticModel(g=g, B=np.zeros((3, 3)), radius=radius))
            assert np.array_equal(sol.s, -radius * g)

    def test_model_decrease_never_positive(self):
        rng = np.random.default_rng(77)
        for trial in range(50):
            model = random_model(rng, int(rng.integers(1, 6)))
            assert solve_exact(model).model_decrease <= 1e-12

    def test_value_helper_matches_definition(self):
        rng = np.random.default_rng(3)
        model = random_model(rng, 3)
        s = rng.standard_normal(3) * 0.1
        expected = float(model.g @ s + 0.5 * s @ model.B @ s)
        assert model_value(model, s) == pytest.approx(expected, rel=1e-15)


# --- property tests ---------------------------------------------------------
#
# Derandomized, so the examples are the same on every run.

PROPERTY_SETTINGS = settings(derandomize=True, max_examples=60, deadline=None)


@st.composite
def dense_models(draw):
    n = draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return random_model(rng, n)


@st.composite
def diagonal_models(draw):
    n = draw(st.integers(1, 8))
    # A small pool of values, so negative, zero and repeated entries are common.
    pool = st.sampled_from([-5.0, -1.0, -0.25, 0.0, 0.0, 0.5, 1.0, 3.0])
    diag = np.array(draw(st.lists(pool | st.floats(-10.0, 10.0), min_size=n, max_size=n)))
    g = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=n, max_size=n)))
    if np.linalg.norm(g) < 1e-3:
        g = np.eye(n)[draw(st.integers(0, n - 1))]
    g /= np.linalg.norm(g)
    radius = draw(st.floats(0.05, 5.0))
    return QuadraticModel(g=g, B=np.diag(diag), radius=radius)


@st.composite
def hard_case_models(draw):
    n = draw(st.integers(2, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return hard_case_model(rng, n, radius_factor=draw(st.floats(1.05, 4.0)))


class TestSolveExactProperties:
    @PROPERTY_SETTINGS
    @given(dense_models())
    def test_dense_certificate(self, model):
        assert_certificate(model, solve_exact(model))

    @PROPERTY_SETTINGS
    @given(diagonal_models())
    def test_diagonal_certificate(self, model):
        assert_certificate(model, solve_exact(model))

    @PROPERTY_SETTINGS
    @given(hard_case_models())
    def test_hard_case_certificate(self, model):
        sol = solve_exact(model)
        assert sol.on_boundary
        assert_certificate(model, sol)

    @PROPERTY_SETTINGS
    @given(diagonal_models())
    def test_diagonal_path_agrees_with_eigh(self, model):
        w, v = eigendecomposition(model.B)
        w_ref, v_ref = np.linalg.eigh(model.B)
        assert np.allclose(w, w_ref, rtol=0.0, atol=1e-12)
        # Eigenvectors agree only up to rotations within repeated
        # eigenvalues, so compare what is basis-free: the reconstruction.
        assert np.allclose((v * w) @ v.T, (v_ref * w_ref) @ v_ref.T, rtol=0.0, atol=1e-12)


def loop_shifted_norm(a, w, lam):
    """||s(lam)|| from its terms taken one eigenvalue at a time: the reference.

    The squares are summed in numpy's pairwise order, as every norm is.
    """
    terms = np.array([ai / di for ai, di in zip(a, w + lam)])
    return math.sqrt(np.add.reduce(terms * terms))


@st.composite
def secular_terms(draw):
    n = draw(st.integers(1, 40))
    # Small pools make zero numerators and denominators w + lam near zero
    # common; Newton never divides by a zero one (see
    # test_newton_sees_only_positive_denominators), so those move off zero.
    values = st.sampled_from([-2.0, -0.5, 0.0, 0.0, 0.5, 1.0]) | st.floats(-10.0, 10.0)
    a = np.array(draw(st.lists(values, min_size=n, max_size=n)))
    w = np.array(draw(st.lists(values, min_size=n, max_size=n)))
    lam = draw(st.sampled_from([0.0, 0.5, 2.0]) | st.floats(0.0, 20.0))
    w[w + lam == 0.0] += 1.0
    return a, w, lam


class TestShiftedNorm:
    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(secular_terms())
    def test_matches_running_total_bit_for_bit(self, terms):
        a, w, lam = terms
        # Tiny denominators overflow to inf on both sides.
        with np.errstate(over="ignore"):
            assert _shifted_norm(a, w + lam) == loop_shifted_norm(a, w, lam)


def bits(x: float) -> bytes:
    return struct.pack("<d", x)


# --- the secular solver against its frozen form ----------------------------
#
# ``frozen_solve_spectrum`` and ``frozen_shifted_norm`` are ``solve_spectrum``
# and ``_shifted_norm`` as they stood before the solver's inner loop was
# trimmed (``w + lam`` and ``a * a`` formed where used, ``np.sum``, the
# eigenvalue spread always formed), with every norm summed in numpy's
# pairwise order (``frozen_norm``).  For lambda_min > 0 the solver's shift
# from the pole is lam itself, so it must keep giving their results bit for
# bit.  For lambda_min <= 0 it iterates on the shift mu = lam + lambda_min
# and rounds differently (the frozen form returns a NaN step where the root
# lies within rounding of the pole): there it must meet criterion 1's
# certificate and do no worse than ``brute_force_min``.


def frozen_norm(v):
    return math.sqrt(np.add.reduce(v * v))


def frozen_shifted_norm(a, w, lam):
    denom = w + lam
    if not denom.all():
        zero = denom == 0.0
        if np.any(a[zero] != 0.0):
            return math.inf
        denom = np.where(zero, 1.0, denom)
    return frozen_norm(a / denom)


def frozen_solve_spectrum(w, a, radius, coords):
    w_min = float(w[0])

    if w_min > 0.0:
        newton_coef = -a / w
        newton_norm = frozen_norm(newton_coef)
        if newton_norm <= radius:
            return coords(newton_coef), 0.0, newton_norm >= radius * (1.0 - 1e-10)

    lam_floor = max(0.0, -w_min)
    spread = max(1.0, abs(w_min), abs(float(w[-1])))
    lowest = w <= w_min + 1e-10 * spread
    lowest_mass = frozen_norm(a[lowest])

    if w_min <= 0.0 and lowest_mass <= 1e-12:
        coef = np.zeros_like(a)
        rest = ~lowest
        coef[rest] = -a[rest] / (w[rest] + lam_floor)
        part_norm = frozen_norm(coef)
        if part_norm <= radius:
            if lam_floor > 0.0:
                bump = math.sqrt(max(0.0, radius * radius - part_norm * part_norm))
                coef[int(np.argmax(lowest))] = bump
                return coords(coef), lam_floor, True
            return coords(coef), 0.0, part_norm >= radius * (1.0 - 1e-10)

    a_norm = frozen_norm(a)
    lo = lam_floor
    hi = lam_floor + a_norm / radius
    lam = 0.5 * (lo + hi)
    for _ in range(100):
        nrm = frozen_shifted_norm(a, w, lam)
        if nrm == math.inf:
            lo = lam
            lam = 0.5 * (lo + hi)
            continue
        if abs(nrm - radius) <= 1e-10 * radius:
            break
        phi = 1.0 / nrm - 1.0 / radius
        if phi < 0.0:
            lo = lam
        else:
            hi = lam
        denom = w + lam
        dphi = float(np.sum((a * a) / (denom * denom * denom))) / nrm**3
        step = -phi / dphi if dphi > 0.0 else math.nan
        candidate = lam + step
        if not math.isfinite(candidate) or not lo < candidate < hi:
            candidate = 0.5 * (lo + hi)
        lam = candidate

    s = coords(-a / (w + lam))
    norm_s = frozen_norm(s)
    if norm_s > 0.0:
        s = s * (radius / norm_s)
    return s, lam, True


def assert_matches_frozen(w, a, radius):
    """The frozen solver's result bit for bit; the spectrum has lambda_min > 0."""
    def coords(coef):
        return coef[::-1].copy()

    # Tiny eigenvalues overflow the shifted norm: the same warnings, and the
    # same values, on both sides.
    with np.errstate(all="ignore"):
        s, lam, on_boundary = solve_spectrum(w, a, radius, coords)
        s_ref, lam_ref, on_boundary_ref = frozen_solve_spectrum(w, a, radius, coords)
    assert s.tobytes() == s_ref.tobytes()
    assert type(lam) is type(lam_ref) and bits(lam) == bits(lam_ref)
    assert type(on_boundary) is type(on_boundary_ref) and on_boundary == on_boundary_ref


def assert_certified(w, a, radius):
    """Criterion 1's certificate and ``brute_force_min`` dominance for the step on ``(w, a)``.

    The spectra reach radius 1e16, where a product such as ``w_j s_j`` is
    only known to about 1e-16 ||s|| max(|w|, lam): stationarity and
    complementarity get that rounding, 100 times over, beside criterion
    1's tolerances, and the dominance margin scales with the value.  The
    model is a plain namespace, since the drawn ``a`` need not have unit
    norm; ``kkt_residuals`` and ``brute_force_min`` read only ``g``, ``B``
    and ``radius``.
    """
    model = SimpleNamespace(g=a, B=np.diag(w), radius=radius)
    s, lam, on_boundary = solve_spectrum(w, a, radius, lambda coef: coef)
    sol = SubproblemSolution(s, lam, on_boundary, model_value(model, s))
    res = kkt_residuals(model, sol)
    norm_s = float(np.linalg.norm(s))
    rounding = 1e-14 * norm_s * max(float(np.abs(w).max()), lam)
    assert np.isfinite(s).all() and lam >= 0.0
    assert norm_s <= radius * (1.0 + 1e-10)
    assert res["psd_margin"] >= -1e-8
    assert res["complementarity"] <= 1e-8 + rounding
    assert res["stationarity"] <= 1e-6 * (1.0 + lam) + rounding
    if on_boundary:
        assert abs(norm_s - radius) <= 1e-8 * radius
    _, brute_value = brute_force_min(model, 10**3)
    assert sol.model_decrease <= brute_value + 1e-6 * max(1.0, abs(brute_value))


@st.composite
def spectra(draw):
    """Ascending eigenvalues ``w``, rotated gradient ``a`` and a radius.

    Values come from a small pool as often as not, so ties and zeros are
    common.  Beside those spectra as drawn: all-positive ones with the
    radius past the Newton point (interior); ones with a gradient that
    vanishes on the lowest eigenvalue, at lambda_min < 0 or = 0 (hard
    cases); and poles, where the boundary root, if there is one, lies
    within rounding of lam = -lambda_min.
    """
    n = draw(st.integers(1, 25))
    pool = st.sampled_from([-5.0, -1.0, -0.25, 0.0, 0.0, 0.5, 1.0, 3.0])
    w = np.sort(draw(st.lists(pool | st.floats(-10.0, 10.0), min_size=n, max_size=n)))
    a = np.array(draw(st.lists(pool | st.floats(-1.0, 1.0), min_size=n, max_size=n)))
    radius = draw(st.sampled_from([0.05, 1.0, 20.0]) | st.floats(0.05, 20.0))
    kind = draw(st.sampled_from(["drawn", "interior", "hard", "pole"]))
    if kind == "interior":
        w = w - w[0] + draw(st.sampled_from([0.25, 1.0]) | st.floats(1e-3, 5.0))
    elif kind == "hard":
        w = w - w[0] + draw(st.sampled_from([-3.0, -1.0, -0.25, 0.0]))
        a[w == w[0]] = 0.0
    elif kind == "pole":
        w = w - w[0] + 0.5
        w[0] = -draw(st.sampled_from([0.5, 1.0, 3.0]))
    if np.linalg.norm(a) < 1e-3:
        a = np.eye(n)[-1]
    a /= np.linalg.norm(a)
    if kind == "interior":
        radius = float(np.linalg.norm(a / w)) * draw(st.sampled_from([1.0, 2.0]) | st.floats(1.0, 3.0))
    elif kind == "pole":
        a[0] = draw(st.sampled_from([0.0, 1e-13, 1e-9]))
        if n > 1 and draw(st.booleans()):
            # A second lowest eigenvalue, tied or within the lowest band.
            w[1] = w[0] * (1.0 - draw(st.sampled_from([0.0, 1e-12])))
            a[1] = 1e-6
        radius = draw(st.sampled_from([1e3, 1e7, 1e16]))
    return w, a, radius


class TestSolveSpectrumFrozen:
    @settings(derandomize=True, max_examples=400, deadline=None)
    @given(spectra())
    def test_matches_frozen_solver_bit_for_bit(self, spectrum):
        # Bit for bit where lambda_min > 0; certified and dominant elsewhere.
        w, a, radius = spectrum
        if w[0] > 0.0:
            assert_matches_frozen(w, a, radius)
        else:
            assert_certified(w, a, radius)

    @pytest.mark.parametrize(
        "a_lowest,radius,root",
        [(1e-13, 1e7, True), (0.0, 1e7, False), (0.0, 1e6, True)],
        ids=["pole", "pole_zero", "past_radius"],
    )
    def test_newton_sees_only_positive_denominators(self, a_lowest, radius, root):
        # The boundary root, if any, lies within rounding of lam = 1 =
        # -lambda_min.  Newton runs on the shift mu = lam - 1 with the
        # denominators base + mu, where base = w + 1 is exact and zero on
        # the lowest eigenvalue, so each is positive, the lowest being mu
        # itself, within (0, ||a|| / radius].  With no gradient on the pole
        # and the shifted solution (1.00002e6 long at mu -> 0) inside radius
        # 1e7 there is no root: the hard case returns before Newton.
        w = np.array([-1.0, -1.0 + 1e-12, 2.0])
        a = np.array([a_lowest, 1e-6, 1.0])
        a /= np.linalg.norm(a)
        seen = []

        def spy(a_, denom):
            seen.append(bool((denom > 0.0).all()) and denom[0] <= 1.0 / radius)
            return _shifted_norm(a_, denom)

        with mock.patch("sdfo.subproblem._shifted_norm", spy):
            s, lam, on_boundary = solve_spectrum(w, a, radius, lambda coef: coef)
        assert all(seen) and bool(seen) == root
        assert (lam, on_boundary) == (1.0, True)
        assert np.isfinite(s).all()
        assert abs(np.linalg.norm(s) - radius) <= _BOUNDARY_RTOL * radius


class TestPoleStep:
    """A boundary root within rounding of the pole lam = -lambda_min gives a certified step."""

    @pytest.mark.parametrize("a_lowest", [1e-13, 0.0])
    @pytest.mark.parametrize("entry", ["solve_spectrum", "solve_exact"])
    def test_step_is_finite_certified_and_optimal(self, entry, a_lowest):
        sol, model = self.solve(entry, a_lowest, 1e7)
        assert np.isfinite(sol.s).all()
        assert sol.on_boundary and sol.multiplier == 1.0
        assert abs(np.linalg.norm(sol.s) - model.radius) <= _BOUNDARY_RTOL * model.radius
        assert_certificate(model, sol)
        _, brute_value = brute_force_min(model, 10**5)
        assert sol.model_decrease - brute_value <= 1e-6

    @pytest.mark.parametrize("entry", ["solve_spectrum", "solve_exact"])
    def test_root_next_to_the_pole_meets_criterion_1(self, entry):
        # With no gradient on the pole, the shifted solution is 1.00002e6
        # long at lam = 1 and 0.99978e6 one float above: the root lies
        # between, at a shift near 2e-17 from the pole.  Criterion 1's
        # tolerance there is 1e-6 * (1 + lam) = 2e-6.
        sol, model = self.solve(entry, 0.0, 1e6)
        assert sol.on_boundary and sol.multiplier == 1.0
        assert_certificate(model, sol)
        _, brute_value = brute_force_min(model, 10**5)
        assert sol.model_decrease - brute_value <= 1e-6

    @staticmethod
    def solve(entry, a_lowest, radius):
        w = np.array([-1.0, -1.0 + 1e-12, 2.0])
        g = np.array([a_lowest, 1e-6, 1.0])
        g /= np.linalg.norm(g)
        model = QuadraticModel(g=g, B=np.diag(w), radius=radius)
        if entry == "solve_exact":
            return solve_exact(model), model
        s, lam, on_boundary = solve_spectrum(w, g, radius, lambda coef: coef)
        return SubproblemSolution(s, lam, on_boundary, model_value(model, s)), model


# Gradient and matrix of models solved at every radius 10**k, k = -300...300
# in steps of 5.  Hard-case: no gradient on the negative eigenvalue, so the
# step reaches the boundary through an eigenvector bump.
SWEEP_MODELS = {
    "negative_identity": ([1.0, 0.0], [[-1.0, 0.0], [0.0, -1.0]]),
    "indefinite_diagonal": ([0.6, 0.8], [[1.0, 0.0], [0.0, -2.0]]),
    "indefinite": ([0.6, 0.8], [[1.0, 2.0], [2.0, -1.0]]),
    "positive_diagonal": ([0.6, 0.8], [[3.0, 0.0], [0.0, 5.0]]),
    "hard_case": ([0.0, 1.0], [[-1.0, 0.0], [0.0, 1.0]]),
}


class TestRadiusSweep:
    """Radii from 1e-300 to 1e300 solve without an exception or a warning.

    Below a radius of 1e-100 the squares of lengths near it underflow (a
    zero norm, or a step outside the ball); past 1e100 they, ``||s||**3``,
    the cubed denominators and the model value overflow.
    """

    @pytest.mark.parametrize("name", SWEEP_MODELS)
    def test_every_radius_gives_a_finite_step_in_the_ball(self, name):
        g, b = (np.array(v) for v in SWEEP_MODELS[name])
        w, q = eigendecomposition(b)
        for k in range(-300, 301, 5):
            radius = 10.0**k
            sol = solve_exact(QuadraticModel(g=g, B=b, radius=radius))
            s, lam, on_boundary = solve_spectrum(w, q.T @ g, radius, lambda coef: q @ coef)
            assert (s.tobytes(), lam, on_boundary) == (sol.s.tobytes(), sol.multiplier, sol.on_boundary)
            assert np.isfinite(s).all() and lam >= 0.0
            assert np.linalg.norm(s / radius) <= 1.0 + 1e-8
            assert sol.model_decrease <= 0.0
            if k <= -100:
                # The curvature term is below rounding: the step is -radius * g.
                assert np.linalg.norm(s / radius + g) <= 1e-12
