"""Picard lattice of a del Pezzo surface of degree 9 - r.

The lattice is Z^(r+1) with basis (h, l_1, ..., l_r): h is the pullback of a
plane line, l_i the exceptional classes of the r blown-up points. A divisor
class is its tuple of r + 1 Python ints, entry 0 the h coefficient; tuples
order lexicographically, which is the canonical order of the line and conic
tables. The intersection form is diagonal of signature (1, r):

    pair(a, b) = a_0*b_0 - sum_{i>=1} a_i*b_i.

The lattice is a set of plain functions: `hyperplane(r)`, `exceptional(r, i)`
and `canonical(r)` build the distinguished classes of rank r, and `pair`,
`is_line` and `is_conic_class` read the rank from the lengths of the classes
they are given. `pair` rejects classes of different lengths (RankMismatch).
The Weyl group W(E_r) acts on these tuples by the fundamental reflections of
:mod:`dp_hlog.incidence`.
"""

from __future__ import annotations

SUPPORTED_RANKS = range(3, 9)
CERTIFICATE_RANKS = range(4, 9)  # ranks with a wedge-kernel certificate


class RankMismatch(ValueError):
    """Two classes of different ranks were combined."""


def pair(a: tuple[int, ...], b: tuple[int, ...]) -> int:
    """Intersection pairing a_0*b_0 - sum_{i>=1} a_i*b_i (signature (1, r))."""
    if len(a) != len(b):
        raise RankMismatch(f"rank {len(a) - 1} vs rank {len(b) - 1}")
    return a[0] * b[0] - sum(x * y for x, y in zip(a[1:], b[1:]))


def _basis(r: int, k: int) -> tuple[int, ...]:
    return tuple(int(j == k) for j in range(r + 1))


def hyperplane(r: int) -> tuple[int, ...]:
    """The class h of a plane line."""
    return _basis(r, 0)


def exceptional(r: int, i: int) -> tuple[int, ...]:
    """The class l_i, 1-based."""
    if not 1 <= i <= r:
        raise ValueError(f"exceptional index must be in 1..{r}")
    return _basis(r, i)


def canonical(r: int) -> tuple[int, ...]:
    """K = -3h + sum l_i, with pair(K, K) = 9 - r."""
    return (-3,) + (1,) * r


def is_line(d: tuple[int, ...]) -> bool:
    """True iff pair(d, d) = -1 and pair(K, d) = -1."""
    return pair(d, d) == -1 and pair(canonical(len(d) - 1), d) == -1


def is_conic_class(d: tuple[int, ...]) -> bool:
    """True iff pair(d, d) = 0 and pair(K, d) = -2.

    A pencil of rational curves has self-intersection 0, and adjunction
    (K + c, c) = -2 then forces anticanonical degree 2, so (K, c) = -2 is
    the correct companion condition for a conic class.
    """
    return pair(d, d) == 0 and pair(canonical(len(d) - 1), d) == -2
