"""Exact minimization of a quadratic model over a Euclidean ball.

The solver characterizes the global minimizer of
``g @ s + 0.5 * s @ B @ s`` on ``||s|| <= radius`` through its optimality
system: ``(B + lam I) s = -g`` with ``lam >= max(0, -lambda_min(B))`` and
``lam * (radius - ||s||) = 0``.  On the spectrum of ``B``
(``solve_spectrum``) the boundary equation is one-dimensional (safeguarded
Newton on the secular equation in the shift from the pole
``lam = -lambda_min``), and the degenerate case where the gradient is
orthogonal to the lowest eigenspace is closed with an explicit eigenvector
correction.  Every norm on the spectrum is summed
by ``stats.sum_of_squares``, so a step does not depend on the BLAS kernel.
``solve_exact`` reaches the spectrum through a symmetric eigendecomposition
(LAPACK ``eigh`` through numpy; a diagonal matrix is read off directly).
A sampling-based verifier provides an independent check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .stats import sum_of_squares

_SYMMETRY_TOL = 1e-12
_UNIT_TOL = 1e-12
_HARD_CASE_TOL = 1e-12
_BOUNDARY_RTOL = 1e-10
_MAX_NEWTON = 100


@dataclass(frozen=True)
class QuadraticModel:
    """Unit model gradient ``g``, symmetric matrix ``B``, ball radius."""

    g: np.ndarray
    B: np.ndarray
    radius: float

    def __post_init__(self) -> None:
        g = np.asarray(self.g, dtype=float)
        b = np.asarray(self.B, dtype=float)
        object.__setattr__(self, "g", g)
        object.__setattr__(self, "B", b)
        if g.ndim != 1:
            raise ValueError("model gradient must be a vector")
        n = g.shape[0]
        if b.shape != (n, n):
            raise ValueError(f"matrix shape {b.shape} does not match gradient length {n}")
        if not np.all(np.isfinite(g)) or not np.all(np.isfinite(b)):
            raise ValueError("model entries must be finite")
        if not math.isfinite(self.radius) or self.radius <= 0.0:
            raise ValueError("radius must be positive and finite")
        if np.max(np.abs(b - b.T)) > _SYMMETRY_TOL:
            raise ValueError("matrix must be symmetric within 1e-12 elementwise")
        if abs(np.linalg.norm(g) - 1.0) > _UNIT_TOL:
            raise ValueError("model gradient must have unit norm within 1e-12")


@dataclass(frozen=True)
class SubproblemSolution:
    s: np.ndarray
    multiplier: float
    on_boundary: bool
    model_decrease: float


def model_value(model: QuadraticModel, s: np.ndarray) -> float:
    s = np.asarray(s, dtype=float)
    return float(model.g @ s + 0.5 * (s @ (model.B @ s)))


def eigendecomposition(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ascending eigenvalues ``w`` and orthonormal eigenvector columns ``q``.

    A matrix without off-diagonal entries needs no decomposition: ``w`` is
    its diagonal sorted stably and ``q`` the matching permutation of the
    identity.  Any other matrix goes to ``np.linalg.eigh``.
    """
    diag = np.diag(matrix)
    if np.count_nonzero(matrix) == np.count_nonzero(diag):
        order = np.argsort(diag, kind="stable")
        return diag[order], np.eye(diag.shape[0])[:, order]
    return np.linalg.eigh(matrix)


def _norm(v: np.ndarray) -> float:
    """The Euclidean norm of a 1-D float vector, summed by ``sum_of_squares``."""
    return math.sqrt(sum_of_squares(v))


def _shifted_norm(a: np.ndarray, denom: np.ndarray) -> float:
    """||s(lam)|| for s(lam) = -(B + lam I)^-1 g in the eigenbasis; ``denom = w + lam``.

    Newton forms ``denom`` as the gaps to the pole plus a positive shift,
    so every denominator is positive; a tiny one overflows the norm to inf.
    """
    return _norm(a / denom)


def solve_spectrum(
    w: np.ndarray, a: np.ndarray, radius: float, coords: Callable[[np.ndarray], np.ndarray]
) -> tuple[np.ndarray, float, bool]:
    """Step, multiplier and boundary flag of the model on its spectrum (Moré & Sorensen 1983).

    ``w`` holds the eigenvalues in ascending order, ``a = Q^T g``, and
    ``coords`` maps eigenbasis coefficients to coordinates (``Q @ coef``);
    the boundary rescale takes the norm of the step in coordinates.
    """
    w_min = float(w[0])

    if w_min > 0.0:
        newton_coef = -a / w
        newton_norm = _norm(newton_coef)
        if newton_norm <= radius:
            return coords(newton_coef), 0.0, newton_norm >= radius * (1.0 - _BOUNDARY_RTOL)

    lam_floor = max(0.0, -w_min)
    # The gaps w - lambda_min (w itself when lambda_min > 0): exact near
    # the lowest eigenvalue (Sterbenz) and zero on it.
    base = w + lam_floor
    if w_min <= 0.0:
        spread = max(1.0, abs(w_min), abs(float(w[-1])))
        lowest = w <= w_min + 1e-10 * spread
        hard = _norm(a[lowest]) <= _HARD_CASE_TOL
        if not hard:
            lowest = base == 0.0
            hard = not a[lowest].any()
        if hard:
            # Gradient orthogonal to the lowest eigenspace, within tolerance
            # or exactly: the shifted system at lam = max(0, -lambda_min) may
            # have a short solution, and then no boundary root exists.  For
            # a strictly negative lowest eigenvalue the multiplier is
            # positive, so complementarity forces the boundary and a
            # lowest-eigenvector component reaches it; for a singular
            # positive-semidefinite matrix the short solution is already
            # optimal with zero multiplier.
            coef = np.zeros_like(a)
            rest = ~lowest
            coef[rest] = -a[rest] / base[rest]
            part_norm = _norm(coef)
            if part_norm <= radius:
                if lam_floor > 0.0:
                    bump = math.sqrt(max(0.0, radius * radius - part_norm * part_norm))
                    coef[int(np.argmax(lowest))] = bump
                    return coords(coef), lam_floor, True
                return coords(coef), 0.0, part_norm >= radius * (1.0 - _BOUNDARY_RTOL)

    # Boundary root of 1/||s|| = 1/radius in the shift mu = lam - lam_floor
    # on (0, ||a|| / radius]: every denominator base + mu is positive, and a
    # root at mu = 1e-20 is as exact as one at mu = 1.
    a_sq = a * a
    lo = 0.0
    hi = _norm(a) / radius
    mu = 0.5 * hi
    for _ in range(_MAX_NEWTON):
        denom = base + mu
        nrm = _shifted_norm(a, denom)
        if abs(nrm - radius) <= _BOUNDARY_RTOL * radius:
            break
        phi = 1.0 / nrm - 1.0 / radius
        if phi < 0.0:
            lo = mu
        else:
            hi = mu
        # Below a radius of about 1e-108 the cube underflows to zero; the
        # step then bisects.
        cube = nrm**3
        dphi = float(np.add.reduce(a_sq / (denom * denom * denom))) / cube if cube > 0.0 else 0.0
        step = -phi / dphi if dphi > 0.0 else math.nan
        candidate = mu + step
        if not math.isfinite(candidate) or not lo < candidate < hi:
            candidate = 0.5 * (lo + hi)
        mu = candidate

    s = coords(-a / (base + mu))
    norm_s = _norm(s)
    if norm_s > 0.0:
        s = s * (radius / norm_s)
    return s, lam_floor + mu, True


def solve_exact(model: QuadraticModel) -> SubproblemSolution:
    """Global minimizer of the model over the ball.

    Satisfies the optimality certificate: ``||s|| <= radius``,
    ``(B + lam I)`` positive semidefinite, and ``lam (radius - ||s||) = 0``
    to the documented tolerances.
    """
    g = model.g
    radius = model.radius
    if not model.B.any():
        # Linear model: the minimizer is exactly -radius * g on the boundary.
        s, lam, on_boundary = -radius * g, _norm(g) / radius, True
    else:
        w, q = eigendecomposition(model.B)
        s, lam, on_boundary = solve_spectrum(w, q.T @ g, radius, lambda coef: q @ coef)
    return SubproblemSolution(s, lam, on_boundary, model_value(model, s))


def brute_force_min(
    model: QuadraticModel,
    n_samples: int,
    seed: int = 0,
    include_candidates: bool = True,
) -> tuple[np.ndarray, float]:
    """Independent sampling-based verifier for :func:`solve_exact`.

    Evaluates the model at ``n_samples`` points uniform in the ball, at the
    center, at ``+/- radius`` times each eigenvector, and at the Newton
    point projected into the ball; returns the best point and value found.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    n = model.g.shape[0]
    radius = model.radius
    rng = np.random.default_rng(seed)

    candidates = [np.zeros(n)]
    if include_candidates:
        w, q = eigendecomposition(model.B)
        for i in range(n):
            candidates.append(radius * q[:, i])
            candidates.append(-radius * q[:, i])
        a = q.T @ model.g
        scale = max(1.0, float(np.max(np.abs(w))))
        invertible = np.abs(w) > 1e-12 * scale
        if np.all(invertible):
            newton = q @ (-a / w)
            norm_newton = float(np.linalg.norm(newton))
            if norm_newton > radius:
                newton = newton * (radius / norm_newton)
            candidates.append(newton)

    z = rng.standard_normal((n_samples, n))
    norms = np.linalg.norm(z, axis=1)
    norms[norms == 0.0] = 1.0
    radii = radius * rng.random(n_samples) ** (1.0 / n)
    points = z * (radii / norms)[:, None]

    all_points = np.vstack([np.asarray(candidates), points])
    values = all_points @ model.g + 0.5 * np.einsum(
        "ij,ij->i", all_points @ model.B, all_points
    )
    best = int(np.argmin(values))
    return all_points[best].copy(), float(values[best])


def kkt_residuals(model: QuadraticModel, sol: SubproblemSolution) -> dict[str, float]:
    """Optimality-certificate residuals (all should be <= small tolerances)."""
    s = sol.s
    lam = sol.multiplier
    norm_s = float(np.linalg.norm(s))
    w_min = float(np.linalg.eigvalsh(model.B)[0])
    return {
        "norm_excess": norm_s - model.radius,
        "psd_margin": w_min + lam,
        "complementarity": lam * (model.radius - norm_s),
        "stationarity": float(np.linalg.norm(model.B @ s + lam * s + model.g)),
    }
