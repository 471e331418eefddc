"""Picard lattice of a del Pezzo surface of degree 9 - r.

The lattice is Z^(r+1) with basis (h, l_1, ..., l_r): h is the pullback of a
plane line, l_i the exceptional classes of the r blown-up points. The
intersection form is diagonal of signature (1, r):

    pair(a, b) = a_0*b_0 - sum_{i>=1} a_i*b_i.

The Weyl group W(E_r) is generated by the reflections in the r fundamental
roots. In coefficients, the reflection in rho_i = l_i - l_{i+1} swaps d_i
and d_{i+1}, and the Cremona reflection in rho_r = h - l_1 - l_2 - l_3 adds
(d_0 + d_1 + d_2 + d_3) * rho_r. Everything here is exact integer
arithmetic on immutable values.

The lattice is a set of plain functions, not an object: `hyperplane(r)`,
`exceptional(r, i)`, `canonical(r)` and `roots(r)` build the distinguished
classes of rank r, and `reflect`, `is_line` and `is_conic_class` read the
rank from the classes they are given. A `DivisorClass` rejects an
unsupported rank and `pair` rejects mixed ranks (RankMismatch), so no other
rank check is needed.
"""

from __future__ import annotations

import operator
from functools import total_ordering
from typing import Iterable

from .records import Record

SUPPORTED_RANKS = range(3, 9)


class RankMismatch(ValueError):
    """Two classes of different ranks were combined."""


class NotARoot(ValueError):
    """A reflection was requested in a class that is not a root."""


@total_ordering
class DivisorClass(Record):
    """Integer divisor class in the basis (h, l_1, ..., l_r).

    coeffs has length r + 1 with r in {3..8}; entry 0 is the h coefficient.
    Each coefficient must be an integer (numpy integers included); anything
    else raises TypeError. Instances are immutable, hashable and ordered
    lexicographically by coefficient tuple (the canonical ordering used for
    line tables).
    """

    __slots__ = ("coeffs",)
    coeffs: tuple[int, ...]

    def __init__(self, coeffs: Iterable[int]) -> None:
        coeffs = tuple(map(operator.index, coeffs))
        if len(coeffs) - 1 not in SUPPORTED_RANKS:
            raise ValueError(f"need r+1 coefficients with r in 3..8, got {len(coeffs)}")
        object.__setattr__(self, "coeffs", coeffs)

    def __eq__(self, other: object) -> bool:
        return other.__class__ is self.__class__ and self.coeffs == other.coeffs

    def __lt__(self, other: DivisorClass) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.coeffs < other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    @property
    def rank(self) -> int:
        return len(self.coeffs) - 1

    def __add__(self, other: DivisorClass) -> DivisorClass:
        _check_ranks(self, other)
        return DivisorClass(tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: DivisorClass) -> DivisorClass:
        _check_ranks(self, other)
        return DivisorClass(tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __mul__(self, n: int) -> DivisorClass:
        return DivisorClass(tuple(n * a for a in self.coeffs))

    __rmul__ = __mul__


def _check_ranks(a: DivisorClass, b: DivisorClass) -> None:
    if a.rank != b.rank:
        raise RankMismatch(f"rank {a.rank} vs rank {b.rank}")


def pair(a: DivisorClass, b: DivisorClass) -> int:
    """Intersection pairing a_0*b_0 - sum_{i>=1} a_i*b_i (signature (1, r))."""
    _check_ranks(a, b)
    total = a.coeffs[0] * b.coeffs[0]
    for x, y in zip(a.coeffs[1:], b.coeffs[1:]):
        total -= x * y
    return total


def _basis(r: int, k: int) -> DivisorClass:
    return DivisorClass(tuple(int(j == k) for j in range(r + 1)))


def hyperplane(r: int) -> DivisorClass:
    """The class h of a plane line."""
    return _basis(r, 0)


def exceptional(r: int, i: int) -> DivisorClass:
    """The class l_i, 1-based."""
    if not 1 <= i <= r:
        raise ValueError(f"exceptional index must be in 1..{r}")
    return _basis(r, i)


def canonical(r: int) -> DivisorClass:
    """K = -3h + sum l_i, with pair(K, K) = 9 - r."""
    return DivisorClass((-3,) + (1,) * r)


def roots(r: int) -> tuple[DivisorClass, ...]:
    """Fundamental roots rho_i = l_i - l_(i+1) (i < r), rho_r = h - l_1 - l_2 - l_3."""
    l = [exceptional(r, i) for i in range(1, r + 1)]
    cremona = hyperplane(r) - l[0] - l[1] - l[2]
    return tuple(a - b for a, b in zip(l, l[1:])) + (cremona,)


def reflect(rho: DivisorClass, d: DivisorClass) -> DivisorClass:
    """Reflection of d in the root rho: d + pair(d, rho) * rho.

    rho must satisfy pair(rho, rho) = -2 and pair(rho, K) = 0, i.e. be a
    root of the orthogonal complement of the canonical class.
    """
    if pair(rho, rho) != -2 or pair(rho, canonical(rho.rank)) != 0:
        raise NotARoot(f"{rho.coeffs} is not a root")
    return d + pair(d, rho) * rho


def is_line(d: DivisorClass) -> bool:
    """True iff pair(d, d) = -1 and pair(K, d) = -1."""
    return pair(d, d) == -1 and pair(canonical(d.rank), d) == -1


def is_conic_class(d: DivisorClass) -> bool:
    """True iff pair(d, d) = 0 and pair(K, d) = -2.

    A pencil of rational curves has self-intersection 0, and adjunction
    (K + c, c) = -2 then forces anticanonical degree 2, so (K, c) = -2 is
    the correct companion condition for a conic class.
    """
    return pair(d, d) == 0 and pair(canonical(d.rank), d) == -2
