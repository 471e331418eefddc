"""Picard lattice of a del Pezzo surface of degree 9 - r.

The lattice is Z^(r+1) with basis (h, l_1, ..., l_r): h is the pullback of a
plane line, l_i the exceptional classes of the r blown-up points. The
intersection form is diagonal of signature (1, r):

    pair(a, b) = a_0*b_0 - sum_{i>=1} a_i*b_i.

Everything here is exact integer arithmetic, on immutable values or on
int64 arrays whose rows are coefficient vectors.
"""

from __future__ import annotations

import operator
from functools import cached_property, total_ordering
from typing import Iterable

import numpy as np

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

    def __neg__(self) -> DivisorClass:
        return DivisorClass(tuple(-a for a in self.coeffs))

    def __mul__(self, n: int) -> DivisorClass:
        return DivisorClass(tuple(n * a for a in self.coeffs))

    __rmul__ = __mul__

    def to_json(self) -> list[str]:
        """Serialize as a JSON-ready array of decimal integer strings."""
        return [str(c) for c in self.coeffs]

    @classmethod
    def from_json(cls, data: Iterable[str]) -> DivisorClass:
        return cls(tuple(int(s) for s in data))


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


def pair_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """pair() of every coefficient row of a with every row of b, as a matrix."""
    return a[:, :1] @ b[:, :1].T - a[:, 1:] @ b[:, 1:].T


class DelPezzoLattice(Record):
    """Pic of the blow-up of the plane at r general points, 3 <= r <= 8.

    Carries the canonical class K = -3h + sum l_i (so pair(K, K) = 9 - r)
    and the r fundamental roots

        rho_i = l_i - l_{i+1}   (i = 1..r-1),
        rho_r = h - l_1 - l_2 - l_3,

    whose reflections generate the Weyl group W(E_r).
    """

    __slots__ = ("r", "__dict__")
    r: int

    def __init__(self, r: int) -> None:
        if r not in SUPPORTED_RANKS:
            raise ValueError(f"rank must be in 3..8, got {r}")
        object.__setattr__(self, "r", r)

    def __eq__(self, other: object) -> bool:
        return other.__class__ is self.__class__ and self.r == other.r

    def __hash__(self) -> int:
        return hash(self.r)

    @property
    def d(self) -> int:
        """Anticanonical degree 9 - r."""
        return 9 - self.r

    @property
    def h(self) -> DivisorClass:
        return self._basis(0)

    def exceptional(self, i: int) -> DivisorClass:
        """The class l_i, 1-based."""
        if not 1 <= i <= self.r:
            raise ValueError(f"exceptional index must be in 1..{self.r}")
        return self._basis(i)

    def _basis(self, k: int) -> DivisorClass:
        return DivisorClass(tuple(1 if j == k else 0 for j in range(self.r + 1)))

    @cached_property
    def canonical(self) -> DivisorClass:
        return DivisorClass((-3,) + (1,) * self.r)

    @cached_property
    def roots(self) -> tuple[DivisorClass, ...]:
        """Fundamental roots (rho_1, ..., rho_r)."""
        out = [self.exceptional(i) - self.exceptional(i + 1) for i in range(1, self.r)]
        out.append(self.h - self.exceptional(1) - self.exceptional(2) - self.exceptional(3))
        return tuple(out)

    def _check(self, d: DivisorClass) -> None:
        if d.rank != self.r:
            raise RankMismatch(f"class of rank {d.rank} in lattice of rank {self.r}")

    def reflect(self, rho: DivisorClass, d: DivisorClass) -> DivisorClass:
        """Reflection of d in the root rho: d + pair(d, rho) * rho.

        rho must satisfy pair(rho, rho) = -2 and pair(rho, K) = 0, i.e. be a
        root of the orthogonal complement of the canonical class.
        """
        self._check(rho)
        self._check(d)
        if pair(rho, rho) != -2 or pair(rho, self.canonical) != 0:
            raise NotARoot(f"{rho.coeffs} is not a root")
        return d + pair(d, rho) * rho

    def is_line(self, d: DivisorClass) -> bool:
        """True iff pair(d, d) = -1 and pair(K, d) = -1."""
        self._check(d)
        return pair(d, d) == -1 and pair(self.canonical, d) == -1

    def is_conic_class(self, d: DivisorClass) -> bool:
        """True iff pair(d, d) = 0 and pair(K, d) = -2.

        A pencil of rational curves has self-intersection 0, and adjunction
        (K + c, c) = -2 then forces anticanonical degree 2, so (K, c) = -2 is
        the correct companion condition for a conic class.
        """
        self._check(d)
        return pair(d, d) == 0 and pair(self.canonical, d) == -2
