"""Lines, conic classes and reducible fibers on a del Pezzo surface.

A degree 9 - r del Pezzo surface carries finitely many lines and finitely
many conic fibration classes; the Weyl group W(E_r) acts transitively on
both sets, so each is enumerated here as the orbit closure of one seed
(l_r for lines, h - l_1 for conics) under the fundamental reflections.

Each conic fibration has exactly r - 1 reducible fibers, and every
reducible fiber is a pair of lines meeting transversely in one point:
from l + l' = c, expanding (c, c) = 0 gives pair(l, l') = 1. Conversely two
lines meeting once sum to a conic class, so the fibers are read off the Gram
matrix of the lines, and their sums must be exactly the conic orbit. The
work runs on int64 coefficient arrays; DivisorClass objects are built only
for the returned tables.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import InternalError
from .lattice import SUPPORTED_RANKS, DelPezzoLattice, DivisorClass, pair_matrix
from .records import Record


class RankCounts(NamedTuple):
    lines: int
    conics: int
    group_order: int  # |W(E_r)|


# Lines, conic classes and Weyl group order of the degree 9 - r surface.
COUNTS = {
    3: RankCounts(6, 3, 12),
    4: RankCounts(10, 5, 120),
    5: RankCounts(16, 10, 1920),
    6: RankCounts(27, 27, 51840),
    7: RankCounts(56, 126, 2903040),
    8: RankCounts(240, 2160, 696729600),
}


class UnsupportedRank(ValueError):
    """Rank outside 3..8 (or outside the range a routine can afford)."""


class FiberCountViolation(RuntimeError):
    """A conic fibration did not decompose into exactly r - 1 line pairs."""


def rank_for_line_count(n: int) -> int:
    """The rank r whose surface has n lines."""
    for r, counts in COUNTS.items():
        if counts.lines == n:
            return r
    raise ValueError(f"no rank has {n} lines")


class LineTable(Record):
    """The lines of X_r in canonical (lexicographic) order, with index map.

    coeffs holds them as the rows of an (n, r + 1) int64 array. Tables are
    equal when their rank and lines are.
    """

    __slots__ = ("r", "lines", "index", "coeffs")
    r: int
    lines: tuple[DivisorClass, ...]
    index: dict[DivisorClass, int]
    coeffs: np.ndarray

    def __init__(self, r: int, lines: tuple[DivisorClass, ...]) -> None:
        super().__init__(
            r,
            lines,
            {l: i for i, l in enumerate(lines)},
            np.array([l.coeffs for l in lines], dtype=np.int64),
        )

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.r, self.lines) == (other.r, other.lines)

    def __hash__(self) -> int:
        return hash((self.r, self.lines))

    def __len__(self) -> int:
        return len(self.lines)


class ConicFibration(NamedTuple):
    """A conic class together with its r - 1 reducible fibers.

    Fibers are unordered pairs (i, j) of line-table indices with
    line_i + line_j = cls, stored sorted by (min, max).
    """

    cls: DivisorClass
    fibers: tuple[tuple[int, int], ...]


def _check_rank(r: int) -> None:
    if r not in SUPPORTED_RANKS:
        raise UnsupportedRank(f"rank must be in 3..8, got {r}")


# Orbit rows are keyed as mixed-radix int64 numbers, _KEY_BITS bits per
# coefficient after an offset (54 bits at r = 8), so the keys sort as the
# rows do lexicographically.
_KEY_BITS = 6
_KEY_OFFSET = 1 << (_KEY_BITS - 1)


def _keys(rows: np.ndarray) -> np.ndarray:
    """Order-preserving int64 keys of (n, r + 1) coefficient rows."""
    digits = rows + _KEY_OFFSET
    if digits.size and (digits.min() < 0 or digits.max() >= 1 << _KEY_BITS):
        raise InternalError(
            f"a coefficient leaves the key range [{-_KEY_OFFSET}, {_KEY_OFFSET})"
        )
    keys = np.zeros(len(rows), dtype=np.int64)
    for column in digits.T:
        keys = (keys << _KEY_BITS) | column
    return keys


def _rows(keys: np.ndarray, r: int) -> np.ndarray:
    """The coefficient rows of keys made by _keys."""
    shifts = _KEY_BITS * np.arange(r, -1, -1)
    return ((keys[:, None] >> shifts) & ((1 << _KEY_BITS) - 1)) - _KEY_OFFSET


def _orbit(lat: DelPezzoLattice, seed: DivisorClass) -> np.ndarray:
    """Closure of seed under the fundamental reflections, as sorted keys.

    Each step reflects a whole frontier at once, d -> d + pair(d, rho) rho,
    and keeps the images whose keys are not seen yet; they are merged into
    the sorted key array.
    """
    roots = np.array([rho.coeffs for rho in lat.roots], dtype=np.int64)
    frontier = np.array([seed.coeffs], dtype=np.int64)
    seen = _keys(frontier)
    while len(frontier):
        images = frontier[:, None, :] + pair_matrix(frontier, roots)[:, :, None] * roots
        images = images.reshape(-1, lat.r + 1)
        fresh, first = np.unique(_keys(images), return_index=True)
        pos = np.searchsorted(seen, fresh)
        new = seen[np.minimum(pos, len(seen) - 1)] != fresh
        frontier = images[first[new]]
        seen = np.insert(seen, pos[new], fresh[new])
    return seen


def enumerate_lines(r: int) -> LineTable:
    """All lines of X_r, as the Weyl orbit of l_r, in canonical order."""
    _check_rank(r)
    lat = DelPezzoLattice(r)
    orbit = _orbit(lat, lat.exceptional(r))
    if len(orbit) != COUNTS[r].lines:
        raise RuntimeError(f"line orbit has size {len(orbit)}, expected {COUNTS[r].lines}")
    return LineTable(r, tuple(DivisorClass(tuple(row)) for row in _rows(orbit, r).tolist()))


def _meeting_pairs(lt: LineTable) -> tuple[np.ndarray, np.ndarray]:
    """Every index pair i < j of lines with pair = 1, row-major, and its sum."""
    i, j = np.nonzero(np.triu(pair_matrix(lt.coeffs, lt.coeffs) == 1, 1))
    return np.stack([i, j], axis=1), lt.coeffs[i] + lt.coeffs[j]


def reducible_fibers(c: DivisorClass, lt: LineTable) -> list[tuple[int, int]]:
    """All unordered line-index pairs {i, j} with line_i + line_j = c.

    Exactly r - 1 pairs must exist for a conic class; anything else signals
    a broken enumeration.
    """
    pairs, sums = _meeting_pairs(lt)
    found = pairs[(sums == np.array(c.coeffs)).all(axis=1)].tolist()
    if len(found) != lt.r - 1:
        raise FiberCountViolation(
            f"conic {c.coeffs} has {len(found)} reducible fibers, expected {lt.r - 1}"
        )
    return [(i, j) for i, j in found]


def enumerate_conics(r: int, lt: LineTable | None = None) -> list[ConicFibration]:
    """All conic fibrations of X_r, as the Weyl orbit of h - l_1.

    Classes come back in canonical (lexicographic) order, each with its
    reducible fibers resolved against the canonical line table.
    """
    _check_rank(r)
    lat = DelPezzoLattice(r)
    if lt is None:
        lt = enumerate_lines(r)
    orbit = _orbit(lat, lat.h - lat.exceptional(1))
    if len(orbit) != COUNTS[r].conics:
        raise RuntimeError(f"conic orbit has size {len(orbit)}, expected {COUNTS[r].conics}")
    pairs, sums = _meeting_pairs(lt)
    keys = _keys(sums)
    order = np.argsort(keys, kind="stable")
    ranked = keys[order]
    counts = np.searchsorted(ranked, orbit, side="right") - np.searchsorted(ranked, orbit)
    if counts.sum() != len(ranked) or not counts.all():
        raise RuntimeError("the sums of meeting line pairs are not the conic orbit")
    rows = _rows(orbit, r).tolist()
    for c, n in zip(rows, counts.tolist()):
        if n != r - 1:
            raise FiberCountViolation(f"conic {c} has {n} reducible fibers, expected {r - 1}")
    grouped = pairs[order].reshape(len(orbit), r - 1, 2)
    return [
        ConicFibration(DivisorClass(tuple(c)), tuple((i, j) for i, j in fibers))
        for c, fibers in zip(rows, grouped.tolist())
    ]
