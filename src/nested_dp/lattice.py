"""Uniform lattices on the probability simplex and nearest-point quantization.

The resolution-n lattice on the (m-1)-simplex is the set of probability
vectors whose coordinates are integer multiples of 1/n; it has
C(m+n-1, m-1) points.  Quantization maps a simplex point to a nearest
lattice point in total-variation (L1) distance, with ties broken toward the
lexicographically smallest point so repeated solves produce identical
policies.

The nearest point comes from a scale-floor-repair scheme rather than a
search (Reznik, "An algorithm for quantization of discrete probability
distributions", DCC 2011): scale by n, take floors, then hand out the
remaining mass to the coordinates with the largest fractional parts.  Among
equal fractional parts the later coordinate wins an increment, which keeps
earlier coordinates small and yields the lexicographic minimizer.
`nearest_point` needs no lattice, and `lattice_rank` names a point's index
within the lattice without building it.  Tests validate the fast path
against exhaustive search point-for-point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import ResourceLimitExceeded
from .limits import resolve_budget

__all__ = [
    "Lattice",
    "QuantizedBelief",
    "build_lattice",
    "lattice_size",
    "lattice_rank",
    "tv_distance",
    "nearest_point",
    "quantize",
    "error_bound",
]


@dataclass(frozen=True)
class Lattice:
    """All resolution-n points of the (m-1)-simplex.  Equality and hashing go
    by (m, n): the point list is fully determined by them."""

    m: int
    n: int
    points: tuple[tuple[Fraction, ...], ...]

    def __eq__(self, other):
        return isinstance(other, Lattice) and (self.m, self.n) == (other.m, other.n)

    def __hash__(self):
        return hash((self.m, self.n))


@dataclass(frozen=True)
class QuantizedBelief:
    """A lattice point named by its index within its lattice."""

    index: int
    lattice: Lattice

    def __post_init__(self):
        if not (0 <= self.index < len(self.lattice.points)):
            raise ValueError(f"index {self.index} outside lattice of {len(self.lattice.points)} points")

    def point(self) -> tuple[Fraction, ...]:
        return self.lattice.points[self.index]


def lattice_size(m: int, n: int) -> int:
    """Number of resolution-n points on the (m-1)-simplex: C(m+n-1, m-1)."""
    if m < 1 or n < 1:
        raise ValueError("m and n must be >= 1")
    return math.comb(m + n - 1, m - 1)


def _compositions(n: int, m: int):
    """All ways to write n as an ordered sum of m non-negative integers,
    in lexicographic order."""
    if m == 1:
        yield (n,)
        return
    for first in range(n + 1):
        for rest in _compositions(n - first, m - 1):
            yield (first,) + rest


def lattice_rank(point: tuple[Fraction, ...], n: int) -> int:
    """Index of the resolution-n point `point` in `build_lattice` order,
    without building the lattice.  Its counts n*point form a composition of
    n; per coordinate, C(left+parts, parts) - C(left-k+parts, parts) counts
    the compositions that put fewer than k there (combinatorial number
    system)."""
    rank = 0
    left = n
    for i, c in enumerate(point):
        k = int(c * n)
        parts = len(point) - i - 1
        rank += math.comb(left + parts, parts) - math.comb(left - k + parts, parts)
        left -= k
    return rank


def build_lattice(m: int, n: int, budget: int | None = None) -> Lattice:
    """Enumerate the full lattice.  Guarded: the point count is checked
    against the budget before any enumeration happens."""
    count = lattice_size(m, n)
    cap = resolve_budget(budget)
    if count > cap:
        raise ResourceLimitExceeded(
            f"lattice would hold {count} points, over the cap of {cap}", estimate=count
        )
    points = tuple(
        tuple(Fraction(k, n) for k in comp) for comp in _compositions(n, m)
    )
    return Lattice(m, n, points)


def tv_distance(p: tuple[Fraction, ...], q: tuple[Fraction, ...]) -> Fraction:
    """Total variation distance as used here: the plain L1 distance
    sum_i |p(i) - q(i)| between two points of the same simplex."""
    if len(p) != len(q):
        raise ValueError(f"dimension mismatch: {len(p)} vs {len(q)}")
    return sum((abs(a - b) for a, b in zip(p, q)), Fraction(0))


def nearest_point(point: tuple[Fraction, ...], n: int) -> tuple[Fraction, ...]:
    """Nearest resolution-n simplex point in TV distance, lexicographically
    smallest among minimizers, without building the lattice."""
    scaled = [coord * n for coord in point]
    floors = [int(v) for v in scaled]  # coords are >= 0, so int() is floor
    fracs = [v - f for v, f in zip(scaled, floors)]
    remaining = n - sum(floors)
    # Give the remaining increments to the largest fractional parts; among
    # ties prefer the later index so earlier coordinates stay smaller.
    order = sorted(range(len(point)), key=lambda i: (fracs[i], i), reverse=True)
    for i in order[:remaining]:
        floors[i] += 1
    return tuple(Fraction(k, n) for k in floors)


def quantize(lattice: Lattice, point: tuple[Fraction, ...]) -> QuantizedBelief:
    """Nearest lattice point in TV distance, lexicographically smallest among
    minimizers, named by its index in the lattice."""
    if len(point) != lattice.m:
        raise ValueError(f"point has {len(point)} coordinates, lattice expects {lattice.m}")
    return QuantizedBelief(lattice_rank(nearest_point(point, lattice.n), lattice.n), lattice)


def error_bound(m: int, n: int) -> Fraction:
    """Worst-case TV distance between any simplex point and its quantization:
    2*a*(1+a) / (m*n) with a = floor(m/2)."""
    if m < 1 or n < 1:
        raise ValueError("m and n must be >= 1")
    a = m // 2
    return Fraction(2 * a * (1 + a), m * n)


def exhaustive_nearest(lattice: Lattice, point: tuple[Fraction, ...]) -> tuple[int, Fraction]:
    """Reference implementation: scan every lattice point, minimize
    (distance, point) so ties resolve to the lexicographically smallest.
    Used by tests to certify the fast path."""
    best_idx = None
    best = None
    for idx, q in enumerate(lattice.points):
        cand = (tv_distance(point, q), q)
        if best is None or cand < best:
            best = cand
            best_idx = idx
    return best_idx, best[0]
