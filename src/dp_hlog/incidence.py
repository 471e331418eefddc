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
h - l_1 has the fibers {l_i, h - l_1 - l_i}, i = 2..r (Manin, "Cubic
Forms"), looked up in the line table. A reflection maps the fibers of a
conic onto those of its image, so each other conic takes the fibers of the
conic the search first reached it from, through the generator's line
permutation, and each fiber is checked to sum to its conic. All of it is
plain integer arithmetic.
"""

from __future__ import annotations

from functools import lru_cache
from operator import add, sub
from typing import Iterator, NamedTuple

from .lattice import SUPPORTED_RANKS, exceptional, hyperplane
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
    lines: tuple[tuple[int, ...], ...]
    index: dict[tuple[int, ...], int]
    generators: tuple[tuple[int, ...], ...]
    exceptional: tuple[int, ...]

    def __init__(self, r: int, lines: tuple[tuple[int, ...], ...]) -> None:
        index = {l: i for i, l in enumerate(lines)}
        generators = tuple(tuple(index[_reflect(l, g)] for l in lines) for g in range(r))
        exc = tuple(index[exceptional(r, i)] for i in range(1, r + 1))
        super().__init__(r, lines, index, generators, exc)

    def __len__(self) -> int:
        return len(self.lines)


class ConicFibration(NamedTuple):
    """A conic class together with its r - 1 reducible fibers.

    Fibers are unordered pairs (i, j) of line-table indices with
    line_i + line_j = cls, stored sorted by (min, max).
    """

    cls: tuple[int, ...]
    fibers: tuple[tuple[int, int], ...]


def _check_rank(r: int) -> None:
    ranks = SUPPORTED_RANKS
    if r not in ranks:
        raise UnsupportedRank(f"rank must be in {ranks[0]}..{ranks[-1]}, got {r}")


def _reflect(d: tuple[int, ...], g: int) -> tuple[int, ...]:
    """d reflected in rho_(g+1): a swap of d_(g+1) and d_(g+2), or Cremona for g = r - 1."""
    if g < len(d) - 2:
        return d[: g + 1] + (d[g + 2], d[g + 1]) + d[g + 3 :]
    k = d[0] + d[1] + d[2] + d[3]
    return (d[0] + k, d[1] - k, d[2] - k, d[3] - k) + d[4:]


def orbit(seed: tuple[int, ...]) -> Iterator[tuple[tuple[int, ...], tuple[int, ...], int]]:
    """Closure of seed under the fundamental reflections, breadth first.

    Yields (image, d, g) once for each class but the seed, when the search
    first reaches it: image is d reflected in rho_(g+1).
    """
    r = len(seed) - 1
    reached = {seed}
    frontier = [seed]
    while frontier:
        nxt = []
        for d in frontier:
            for g in range(r):
                image = _reflect(d, g)
                if image not in reached:
                    reached.add(image)
                    nxt.append(image)
                    yield image, d, g
        frontier = nxt


@lru_cache(maxsize=None)
def enumerate_lines(r: int) -> LineTable:
    """All lines of X_r, as the Weyl orbit of l_r, in canonical order (cached)."""
    _check_rank(r)
    seed = exceptional(r, r)
    lines = sorted([seed] + [image for image, _, _ in orbit(seed)])
    if len(lines) != COUNTS[r].lines:
        raise RuntimeError(f"line orbit has size {len(lines)}, expected {COUNTS[r].lines}")
    return LineTable(r, tuple(lines))


@lru_cache(maxsize=None)
def enumerate_conics(r: int) -> tuple[ConicFibration, ...]:
    """All conic fibrations of X_r, as the Weyl orbit of h - l_1 (cached).

    Classes come back in canonical (lexicographic) order, each with its
    reducible fibers resolved against the canonical line table.
    """
    _check_rank(r)
    lt = enumerate_lines(r)
    seed = tuple(map(sub, hyperplane(r), exceptional(r, 1)))
    # The seed's fibers {l_i, h - l_1 - l_i}, i = 2..r; l_i (h-degree 0)
    # sorts before h - l_1 - l_i, so each pair is (min, max).
    pairs = [(k, lt.index[tuple(map(sub, seed, lt.lines[k]))]) for k in lt.exceptional[1:]]
    fibers = {seed: tuple(sorted(pairs))}
    for image, c, g in orbit(seed):
        perm = lt.generators[g]
        carried = set()
        for i, j in fibers[c]:
            a, b = perm[i], perm[j]
            carried.add((a, b) if a < b else (b, a))
        fibers[image] = tuple(sorted(carried))
    if len(fibers) != COUNTS[r].conics:
        raise RuntimeError(f"conic orbit has size {len(fibers)}, expected {COUNTS[r].conics}")
    lines = lt.lines
    out = []
    for c in sorted(fibers):
        if len(fibers[c]) != r - 1:
            raise FiberCountViolation(
                f"conic {c} has {len(fibers[c])} reducible fibers, expected {r - 1}"
            )
        for i, j in fibers[c]:
            if tuple(map(add, lines[i], lines[j])) != c:
                raise FiberCountViolation(f"fiber {lines[i]} + {lines[j]} is not the conic {c}")
        out.append(ConicFibration(c, fibers[c]))
    return tuple(out)
