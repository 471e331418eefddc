"""Lines, conic classes and reducible fibers on a del Pezzo surface.

A degree 9 - r del Pezzo surface carries finitely many lines and finitely
many conic fibration classes; the Weyl group W(E_r) acts transitively on
both sets, so each is enumerated here as the orbit closure of one seed
(l_r for lines, h - l_1 for conics) under the fundamental reflections: a
breadth-first search over coefficient tuples, where the reflection in
l_i - l_{i+1} swaps two coefficients and the Cremona reflection in
h - l_1 - l_2 - l_3 adds (d_0 + d_1 + d_2 + d_3) times that root.

Each conic fibration has exactly r - 1 reducible fibers, and every
reducible fiber is a pair of lines meeting transversely in one point:
from l + l' = c, expanding (c, c) = 0 gives pair(l, l') = 1. The seed
h - l_1 gets its fibers by lookup (l is in a fiber when h - l_1 - l is a
line too). A reflection maps the fibers of a conic onto those of its image,
so every other conic takes its BFS parent's fibers through the generator's
line permutation, and each fiber is checked to sum to its conic. All of it
is plain integer arithmetic.
"""

from __future__ import annotations

from operator import add
from typing import NamedTuple

from .lattice import SUPPORTED_RANKS, DivisorClass, exceptional, hyperplane
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


class LineTable(Record):
    """The lines of X_r in canonical (lexicographic) order, with index map.

    generators[g][i] is the index of the image of line i under the
    reflection in the fundamental root rho_(g+1): the one table of generator
    line permutations. exceptional[i - 1] is the index of l_i.
    """

    __slots__ = ("r", "lines", "index", "generators", "exceptional")
    r: int
    lines: tuple[DivisorClass, ...]
    index: dict[DivisorClass, int]
    generators: tuple[tuple[int, ...], ...]
    exceptional: tuple[int, ...]

    def __init__(self, r: int, lines: tuple[DivisorClass, ...]) -> None:
        position = {l.coeffs: i for i, l in enumerate(lines)}
        generators = tuple(
            tuple(position[_reflect(l.coeffs, g)] for l in lines) for g in range(r)
        )
        exc = tuple(position[exceptional(r, i).coeffs] for i in range(1, r + 1))
        super().__init__(r, lines, {l: i for i, l in enumerate(lines)}, generators, exc)

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


def _reflect(d: tuple[int, ...], g: int) -> tuple[int, ...]:
    """d reflected in rho_(g+1): a swap of d_(g+1) and d_(g+2), or Cremona for g = r - 1."""
    if g < len(d) - 2:
        return d[: g + 1] + (d[g + 2], d[g + 1]) + d[g + 3 :]
    k = d[0] + d[1] + d[2] + d[3]
    return (d[0] + k, d[1] - k, d[2] - k, d[3] - k) + d[4:]


def _orbit(seed: tuple[int, ...]) -> dict[tuple[int, ...], tuple | None]:
    """Closure of seed under the fundamental reflections, in BFS order.

    Maps each class to the (parent, g) whose reflection reached it first;
    the seed maps to None.
    """
    r = len(seed) - 1
    reached: dict[tuple[int, ...], tuple | None] = {seed: None}
    frontier = [seed]
    while frontier:
        nxt = []
        for d in frontier:
            for g in range(r):
                image = _reflect(d, g)
                if image not in reached:
                    reached[image] = (d, g)
                    nxt.append(image)
        frontier = nxt
    return reached


def enumerate_lines(r: int) -> LineTable:
    """All lines of X_r, as the Weyl orbit of l_r, in canonical order."""
    _check_rank(r)
    lines = sorted(_orbit(exceptional(r, r).coeffs))
    if len(lines) != COUNTS[r].lines:
        raise RuntimeError(f"line orbit has size {len(lines)}, expected {COUNTS[r].lines}")
    return LineTable(r, tuple(map(DivisorClass, lines)))


def reducible_fibers(c: DivisorClass, lt: LineTable) -> list[tuple[int, int]]:
    """All unordered line-index pairs {i, j} with line_i + line_j = c.

    Exactly r - 1 pairs must exist for a conic class; anything else signals
    a broken enumeration.
    """
    found = []
    for i, line in enumerate(lt.lines):
        j = lt.index.get(c - line, -1)
        if i < j:
            found.append((i, j))
    if len(found) != lt.r - 1:
        raise FiberCountViolation(
            f"conic {c.coeffs} has {len(found)} reducible fibers, expected {lt.r - 1}"
        )
    return found


def enumerate_conics(r: int, lt: LineTable | None = None) -> list[ConicFibration]:
    """All conic fibrations of X_r, as the Weyl orbit of h - l_1.

    Classes come back in canonical (lexicographic) order, each with its
    reducible fibers resolved against the canonical line table.
    """
    _check_rank(r)
    if lt is None:
        lt = enumerate_lines(r)
    seed = hyperplane(r) - exceptional(r, 1)
    reached = _orbit(seed.coeffs)
    if len(reached) != COUNTS[r].conics:
        raise RuntimeError(f"conic orbit has size {len(reached)}, expected {COUNTS[r].conics}")
    fibers = {seed.coeffs: tuple(reducible_fibers(seed, lt))}
    for c, step in reached.items():
        if step is not None:
            parent, g = step
            perm = lt.generators[g]
            carried = set()
            for i, j in fibers[parent]:
                a, b = perm[i], perm[j]
                carried.add((a, b) if a < b else (b, a))
            fibers[c] = tuple(sorted(carried))
    lines = [l.coeffs for l in lt.lines]
    out = []
    for c in sorted(reached):
        if len(fibers[c]) != r - 1:
            raise FiberCountViolation(
                f"conic {c} has {len(fibers[c])} reducible fibers, expected {r - 1}"
            )
        for i, j in fibers[c]:
            if tuple(map(add, lines[i], lines[j])) != c:
                raise FiberCountViolation(f"fiber {lines[i]} + {lines[j]} is not the conic {c}")
        out.append(ConicFibration(DivisorClass(c), fibers[c]))
    return out
