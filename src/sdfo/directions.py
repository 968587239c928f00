"""Deterministic direction sequences on the unit sphere.

The quasi-random scheme pushes Halton points through the inverse normal
CDF coordinate-wise and normalizes, which spreads a low-discrepancy cube
sequence over the sphere in any dimension.  Direction choice never looks
at function estimates, so the measurability requirement of the optimizers
holds by construction.

For the same reason the k-th quasi-random direction is a function of the
dimension and the Halton index alone.  Each generator computes its own,
``BLOCK_INDICES`` Halton indices at a time and bit for bit as the scalar
``halton_direction`` does, keeps only its current block and hands out
copies; generators share no state.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass
from itertools import takewhile

import numpy as np

from .stats import check_integer, inverse_normal_cdf, sum_of_squares

_DEGENERATE_NORM = 1e-8

# Halton indices per block of quasi-random directions: the 150 directions
# of a 150-iteration run at d = 20 take three blocks, 42 rows past them.
BLOCK_INDICES = 64


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


def _halton_directions(start: int, bases: tuple[int, ...]) -> np.ndarray:
    """The rows ``halton_direction(i, bases)`` for the ``BLOCK_INDICES``
    indices ``i`` from ``start`` on, skipping those that are None."""
    index = np.arange(start, start + BLOCK_INDICES)[:, np.newaxis]
    divisors = np.array(bases)
    u = np.zeros((BLOCK_INDICES, len(bases)))
    factor = 1.0 / divisors
    # radical_inverse's digit loop, all bases at once, as long as base 2
    # has digits left; a point whose digits have run out adds 0.0, which
    # leaves it as it is.
    for _ in range((start + BLOCK_INDICES - 1).bit_length()):
        index, digit = np.divmod(index, divisors)
        u += digit * factor
        factor /= divisors
    z = np.fromiter(map(inverse_normal_cdf, u.ravel().tolist()), float, u.size).reshape(u.shape)
    norm = np.sqrt(sum_of_squares(z))
    keep = norm >= _DEGENERATE_NORM
    return z[keep] / norm[keep, np.newaxis]


@dataclass(frozen=True)
class QuasiRandomSphere:
    """Halton points mapped through the normal quantile and normalized."""


@dataclass(frozen=True)
class UniformRandomSphere:
    """Seeded i.i.d. uniform directions; the k-th draw depends only on (seed, k)."""

    seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "seed", check_integer("seed", self.seed, 0))


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
            # The current block, its next row to emit and the Halton index
            # the next block starts at; index 0 maps to the origin.
            self._block, self._row, self._halton_index = np.empty((0, dimension)), 0, 1
        elif isinstance(scheme, FixedCycle):
            for v in scheme.vectors:
                if v.shape != (dimension,):
                    raise ValueError("cycle vectors must match the generator dimension")
        elif not isinstance(scheme, UniformRandomSphere):
            raise ValueError(f"unknown direction scheme: {scheme!r}")
        for _ in range(cursor):
            self.next_direction()

    def clone(self) -> "DirectionGenerator":
        # Blocks are never written to, so the twins can share one.
        return copy.copy(self)

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
        while self._row == len(self._block):
            self._block = _halton_directions(self._halton_index, self._bases)
            self._row, self._halton_index = 0, self._halton_index + BLOCK_INDICES
        self._row += 1
        return self._block[self._row - 1].copy()
