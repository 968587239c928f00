"""Deterministic direction sequences on the unit sphere.

The quasi-random scheme pushes Halton points through the inverse normal
CDF coordinate-wise and normalizes, which spreads a low-discrepancy cube
sequence over the sphere in any dimension.  Direction choice never looks
at function estimates, so the measurability requirement of the optimizers
holds by construction.

For the same reason the k-th quasi-random direction is a function of the
dimension and the Halton index alone, so one module-level table memoizes
it for every generator and every run in the process.  Memoizing is exact:
each row is computed by the same scalar code as an uncached direction, and
callers get a copy.  The table holds at most ``TABLE_ROWS`` rows (about
10 MB at d = 50, 5 MB at d = 2); once full, further directions are
computed without being stored.  Rows are read-only and inserts take a
lock, so concurrent threads keep the table within its bound and read the
same sequences; forked workers inherit the rows their parent has built.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from itertools import takewhile

import numpy as np

from .stats import check_integer, inverse_normal_cdf, sum_of_squares

_DEGENERATE_NORM = 1e-8

# Bound on the rows of the direction table.
TABLE_ROWS = 2**14

# (dimension, Halton index) -> read-only unit direction, or None where the
# Halton point maps too near the origin and the sequence skips it.
_table: dict[tuple[int, int], np.ndarray | None] = {}
_table_lock = threading.Lock()
_MISSING = object()


def first_primes(count: int) -> tuple[int, ...]:
    """The first ``count`` primes, by trial division."""
    if count < 1:
        raise ValueError("count must be >= 1")
    primes: list[int] = []
    candidate = 2
    while len(primes) < count:
        if all(candidate % p for p in takewhile(lambda p: p * p <= candidate, primes)):
            primes.append(candidate)
        candidate += 1
    return tuple(primes)


def radical_inverse(index: int, base: int) -> float:
    """Reflect the base-b digits of ``index`` about the radix point."""
    if index < 0:
        raise ValueError("index must be nonnegative")
    if base < 2:
        raise ValueError("base must be >= 2")
    value = 0.0
    factor = 1.0 / base
    while index > 0:
        index, digit = divmod(index, base)
        value += digit * factor
        factor /= base
    return value


def halton_point(index: int, bases) -> np.ndarray:
    """The index-th Halton point in [0, 1)^d for the given prime bases."""
    bases = tuple(int(b) for b in bases)
    if len(bases) != len(set(bases)):
        raise ValueError("bases must be distinct")
    return np.array([radical_inverse(index, b) for b in bases])


def halton_direction(index: int, bases) -> np.ndarray | None:
    """The normalized normal quantiles of a Halton point, uncached.

    None when their norm is below ``1e-8``; the sequence skips that index.
    """
    u = halton_point(index, bases)
    z = np.array([inverse_normal_cdf(c) for c in u])
    norm = math.sqrt(sum_of_squares(z))
    return z / norm if norm >= _DEGENERATE_NORM else None


def _quasi_random_row(index: int, bases: tuple[int, ...]) -> np.ndarray | None:
    """``halton_direction(index, bases)`` through the shared table, read-only.

    ``bases`` are the first d primes, so ``(d, index)`` is the row's key.
    """
    key = (len(bases), index)
    row = _table.get(key, _MISSING)
    if row is _MISSING:
        row = halton_direction(index, bases)
        if row is not None:
            row.flags.writeable = False
        with _table_lock:
            if len(_table) < TABLE_ROWS:
                row = _table.setdefault(key, row)
    return row


@dataclass(frozen=True)
class QuasiRandomSphere:
    """Halton points mapped through the normal quantile and normalized."""


@dataclass(frozen=True)
class UniformRandomSphere:
    """Seeded i.i.d. uniform directions; the k-th draw depends only on (seed, k)."""

    seed: int = 0


class FixedCycle:
    """Cycle through an explicit list of unit vectors."""

    def __init__(self, vectors) -> None:
        vecs = []
        for v in vectors:
            arr = np.asarray(v, dtype=float)
            if arr.ndim != 1:
                raise ValueError("cycle entries must be vectors")
            # Not "> 1e-12": a NaN or infinite entry fails this test.
            if not abs(np.linalg.norm(arr) - 1.0) <= 1e-12:
                raise ValueError(f"cycle entry {arr} is not a finite unit vector")
            vecs.append(arr.copy())
        if not vecs:
            raise ValueError("cycle must contain at least one vector")
        self.vectors = tuple(vecs)

    def __eq__(self, other) -> bool:
        return isinstance(other, FixedCycle) and all(
            np.array_equal(a, b) for a, b in zip(self.vectors, other.vectors)
        ) and len(self.vectors) == len(other.vectors)


class DirectionGenerator:
    """Reproducible stream of unit vectors.

    The state is ``(scheme, cursor)``: a fresh generator advanced ``cursor``
    times emits the same continuation.  Every emitted vector has Euclidean
    norm 1 up to 1e-12.
    """

    def __init__(self, dimension: int, scheme, cursor: int = 0) -> None:
        self.dimension = dimension = check_integer("dimension", dimension)
        cursor = check_integer("cursor", cursor, 0)
        self.scheme = scheme
        self.cursor = 0
        if isinstance(scheme, QuasiRandomSphere):
            self._bases = first_primes(dimension)
            # Index 0 maps to the origin; the sequence starts at 1.
            self._halton_index = 0
        elif isinstance(scheme, FixedCycle):
            for v in scheme.vectors:
                if v.shape != (dimension,):
                    raise ValueError("cycle vectors must match the generator dimension")
        elif not isinstance(scheme, UniformRandomSphere):
            raise ValueError(f"unknown direction scheme: {scheme!r}")
        for _ in range(cursor):
            self.next_direction()

    def clone(self) -> "DirectionGenerator":
        fresh = DirectionGenerator(self.dimension, self.scheme)
        fresh.cursor = self.cursor
        if isinstance(self.scheme, QuasiRandomSphere):
            fresh._halton_index = self._halton_index
        return fresh

    def next_direction(self) -> np.ndarray:
        if isinstance(self.scheme, FixedCycle):
            vecs = self.scheme.vectors
            direction = vecs[self.cursor % len(vecs)].copy()
        elif isinstance(self.scheme, UniformRandomSphere):
            direction = self._uniform_direction(self.cursor)
        else:
            direction = self._quasi_random_direction()
        self.cursor += 1
        return direction

    def _uniform_direction(self, index: int) -> np.ndarray:
        seq = np.random.SeedSequence(entropy=self.scheme.seed, spawn_key=(index,))
        rng = np.random.default_rng(seq)
        while True:
            z = rng.standard_normal(self.dimension)
            norm = math.sqrt(sum_of_squares(z))
            if norm >= _DEGENERATE_NORM:
                return z / norm

    def _quasi_random_direction(self) -> np.ndarray:
        while True:
            self._halton_index += 1
            row = _quasi_random_row(self._halton_index, self._bases)
            if row is not None:
                return row.copy()
