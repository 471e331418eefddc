"""Oracles that only the tests call.

The lattice ones combine and reflect divisor classes, coefficient tuples,
by the textbook formulas; they are the reference for the coefficient
reflections of incidence, and a scan of the line table finds a conic's
fibers without the orbit that carries them. Closing the fundamental roots
under their reflections gives the positive roots, whose height counts give
the degrees and the Poincare polynomial of W(E_r): its order and length
counts without enumerating the group. The group-level ones work element by
element (or class by class) on the enumerated group, independently of the
bulk character and kernel routes they cross-check. The group itself is
enumerated a second way, by a breadth-first closure with generator-word
witnesses (WeylElement), apart from the transversal chain of
weyl.group_data, and the Pic basis is looked up in the line table. The
numeric ones transport words along straight segments through the kernel
the numeric route runs, and decompose a transported weight-3 value into
transported values of lower weight. GAP's transcribed W(D_5) table, class
words and Dynkin relabelling are the second route to the D5 table that
rep_theory computes by rule. The canonical certificate of a rank is
computed once per process, for the tests that read it.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterator, NamedTuple

import numpy as np
import sympy

from dp_hlog.hyperlog import numeric
from dp_hlog.hyperlog.words import Word, WordCombination, asym
from dp_hlog.incidence import COUNTS, LineTable, enumerate_conics, enumerate_lines
from dp_hlog.lattice import canonical, exceptional, hyperplane, is_conic_class, is_line, pair
from dp_hlog.rep_theory import d5_classes
from dp_hlog.wedge_kernel import HlogCertificate, kernel_signs
from dp_hlog.weyl import group_data


class NotARoot(ValueError):
    """A reflection was requested in a class that is not a root."""


def combine(*classes: tuple[int, ...], by: tuple[int, ...] | None = None) -> tuple[int, ...]:
    """sum_k by[k] * classes[k], coefficient by coefficient (by defaults to
    all ones). Classes of different lengths raise ValueError."""
    by = (1,) * len(classes) if by is None else by
    return tuple(
        sum(n * x for n, x in zip(by, column, strict=True))
        for column in zip(*classes, strict=True)
    )


def roots(r: int) -> tuple[tuple[int, ...], ...]:
    """Fundamental roots rho_i = l_i - l_(i+1) (i < r), rho_r = h - l_1 - l_2 - l_3."""
    l = [exceptional(r, i) for i in range(1, r + 1)]
    cremona = combine(hyperplane(r), *l[:3], by=(1, -1, -1, -1))
    return tuple(combine(a, b, by=(1, -1)) for a, b in zip(l, l[1:])) + (cremona,)


def reflect(rho: tuple[int, ...], d: tuple[int, ...]) -> tuple[int, ...]:
    """Reflection of d in the root rho: d + pair(d, rho) * rho.

    rho must satisfy pair(rho, rho) = -2 and pair(rho, K) = 0, i.e. be a
    root of the orthogonal complement of the canonical class.
    """
    if pair(rho, rho) != -2 or pair(rho, canonical(len(rho) - 1)) != 0:
        raise NotARoot(f"{rho} is not a root")
    return combine(d, rho, by=(1, pair(d, rho)))


def reducible_fibers(c: tuple[int, ...], lt: LineTable) -> list[tuple[int, int]]:
    """Every pair i < j of line indices with line_i + line_j = c, found by a
    scan of the whole line table."""
    partners = (lt.index.get(combine(c, line, by=(1, -1)), -1) for line in lt.lines)
    return [(i, j) for i, j in enumerate(partners) if i < j]


def positive_roots(r: int) -> list[tuple[int, ...]]:
    """The positive roots of E_r, as coefficients over `roots(r)`.

    The fundamental roots are closed under their own reflections, each
    image's coefficients carried along (reflecting d in rho_i adds
    pair(d, rho_i) to coefficient i); the positive roots are the images
    whose coefficients are all nonnegative.
    """
    simple = roots(r)
    unit = [tuple(int(i == j) for j in range(r)) for i in range(r)]
    coefficients = dict(zip(simple, unit))
    frontier = list(simple)
    while frontier:
        found = []
        for d in frontier:
            for i, rho in enumerate(simple):
                image = reflect(rho, d)
                if image not in coefficients:
                    coefficients[image] = combine(coefficients[d], unit[i], by=(1, pair(d, rho)))
                    found.append(image)
        frontier = found
    return [c for c in coefficients.values() if min(c) >= 0]


def height_counts(positive: list[tuple[int, ...]]) -> list[int]:
    """counts[h - 1] is the number of positive roots of height h (the sum
    of the coefficients), h = 1 .. the largest height."""
    heights = [sum(c) for c in positive]
    return [heights.count(h) for h in range(1, max(heights) + 1)]


def degrees(counts: list[int]) -> list[int]:
    """The degrees d_i = m_i + 1 of the basic invariants, ascending: the
    exponents m_i are the dual partition of the height counts (Kostant
    1959), m_j = #{h : counts[h - 1] >= j} for j = 1 .. counts[0]."""
    return sorted(1 + sum(n >= j for n in counts) for j in range(1, counts[0] + 1))


def poincare_polynomial(degrees: list[int]) -> list[int]:
    """Coefficients, constant term first, of prod (1 + q + ... + q^(d - 1))
    over the degrees: the number of group elements of each length (Solomon
    1966)."""
    poly = [1]
    for d in degrees:
        poly = [sum(poly[max(0, k - d + 1) : k + 1]) for k in range(len(poly) + d - 1)]
    return poly


class WeylElement(NamedTuple):
    """perm[i] is the line-table index of the image of line i; word, a
    witness, not a canonical form, composes to s_{word[0]} o ... o
    s_{word[-1]}; sign = (-1)**len(word) is the determinant on Pic."""

    perm: tuple[int, ...]
    sign: int
    word: tuple[int, ...]


def generators(r: int) -> list[WeylElement]:
    """The r fundamental reflections as line permutations (sign -1, order 2)."""
    return [WeylElement(perm, -1, (g,)) for g, perm in enumerate(enumerate_lines(r).generators)]


def fixed_points(perm: tuple[int, ...], power: int) -> int:
    """Points fixed by perm**power (power >= 1), composing perm power times."""
    images = perm
    for _ in range(power - 1):
        images = [perm[i] for i in images]
    return sum(i == j for i, j in enumerate(images))


def spanning_lines(lt: LineTable) -> np.ndarray:
    """Indices of l_1..l_r and h - l_1 - l_2, looked up in the line table."""
    basis = [exceptional(lt.r, i) for i in range(1, lt.r + 1)]
    basis.append(combine(hyperplane(lt.r), basis[0], basis[1], by=(1, -1, -1)))
    return np.array([lt.index[d] for d in basis], dtype=np.int64)


def rank_for_line_count(n: int) -> int:
    """The rank r whose surface has n lines."""
    for r, counts in COUNTS.items():
        if counts.lines == n:
            return r
    raise ValueError(f"no rank has {n} lines")


class Closure(NamedTuple):
    """W(E_r) by breadth-first closure, in discovery order.

    perms[i] permutes the lines; levels[i] is its BFS level (the word
    length), parents[i] its BFS predecessor and gens[i] the generator that
    reached it from there (-1 for the identity).
    """

    perms: np.ndarray  # (N, l) uint8
    levels: np.ndarray  # (N,) uint8
    parents: np.ndarray  # (N,) int32
    gens: np.ndarray  # (N,) int8

    def word(self, i: int) -> tuple[int, ...]:
        """A shortest generator word of element i, read off the parents."""
        word = []
        while i != 0:
            word.append(int(self.gens[i]))
            i = int(self.parents[i])
        return tuple(reversed(word))


def _pack_keys(rows: np.ndarray) -> np.ndarray:
    """Pack (n, r+1) image tuples into uint64 keys, 6 bits per image."""
    keys = np.zeros(rows.shape[0], dtype=np.uint64)
    for j in range(rows.shape[1]):
        keys = (keys << np.uint64(6)) | rows[:, j].astype(np.uint64)
    return keys


@lru_cache(maxsize=None)
def bfs_closure(r: int) -> Closure:
    """Close the identity under right multiplication by the r generators.

    The images of a spanning set of r + 1 lines determine an element, so a
    48-bit packed key over that set deduplicates elements exactly. Raises
    RuntimeError unless the closure has the expected order (r in 3..7).
    """
    lt = enumerate_lines(r)
    l = len(lt)
    gen_rows = np.array(lt.generators, dtype=np.uint8)
    kcols = spanning_lines(lt)
    # key-gather columns per generator: child[kcols] = parent[gen_rows[g][kcols]]
    key_cols = [gen_rows[g][kcols] for g in range(r)]

    cap = COUNTS[r].group_order
    perms = np.empty((cap, l), dtype=np.uint8)
    levels = np.empty(cap, dtype=np.uint8)
    parents = np.empty(cap, dtype=np.int32)
    gens = np.empty(cap, dtype=np.int8)
    perms[0] = np.arange(l, dtype=np.uint8)
    levels[0], parents[0], gens[0] = 0, -1, -1
    seen = _pack_keys(perms[0:1][:, kcols])
    count, front_lo, level = 1, 0, 0

    while True:
        front = perms[front_lo:count]
        n_front = count - front_lo
        cand_keys = np.concatenate([_pack_keys(front[:, cols]) for cols in key_cols])
        pos = np.minimum(np.searchsorted(seen, cand_keys), len(seen) - 1)
        fresh = np.nonzero(seen[pos] != cand_keys)[0]
        if fresh.size == 0:
            break
        uniq, first = np.unique(cand_keys[fresh], return_index=True)
        sel = fresh[first]
        g_sel = (sel // n_front).astype(np.int8)
        p_sel = (sel % n_front + front_lo).astype(np.int32)
        n_new = len(sel)
        if count + n_new > cap:
            raise RuntimeError(f"group closure exceeds expected order {cap}")
        block = slice(count, count + n_new)
        for g in range(r):
            m = g_sel == g
            if m.any():
                perms[block][m] = perms[np.ix_(p_sel[m], gen_rows[g])]
        levels[block] = level + 1
        parents[block] = p_sel
        gens[block] = g_sel
        # uniq is sorted and disjoint from seen, so a sorted merge keeps seen sorted.
        seen = np.insert(seen, np.searchsorted(seen, uniq), uniq)
        front_lo, count = count, count + n_new
        level += 1

    if count != cap:
        raise RuntimeError(f"group closure found {count} elements, expected {cap}")
    return Closure(perms, levels, parents, gens)


def chain_elements(r: int) -> Iterator[tuple[np.ndarray, int]]:
    """Each element of the chain as (line permutation, length), in chain order."""
    gd = group_data(r)
    rows = (row for t in gd.top for row in t[gd.lower])
    yield from zip(rows, map(int, gd.levels))


def enumerate_group(r: int, lt: LineTable | None = None) -> Iterator[WeylElement]:
    """Stream every element of W(E_r) exactly once, r in 3..7.

    The order is the chain order of group_data (the order of the character
    samples), so positions in this stream are a stable element key. Each
    word is the BFS closure's witness for that permutation; each sign is the
    parity of the chain length.
    """
    group_data(r)  # refuses r = 8 and 9 before the closure runs
    if lt is not None and lt.lines != enumerate_lines(r).lines:
        raise ValueError("line table does not match the canonical ordering")
    closure = bfs_closure(r)
    where = {row.tobytes(): i for i, row in enumerate(closure.perms)}
    for perm, length in chain_elements(r):
        word = closure.word(where[perm.tobytes()])
        yield WeylElement(tuple(perm.tolist()), -1 if length & 1 else 1, word)


def stabilizer_order(r: int, target: tuple[int, ...]) -> int:
    """Number of group elements fixing a line or conic class."""
    gd, lt = group_data(r), enumerate_lines(r)
    if is_line(target):
        idx = lt.index[target]
        return sum(int(np.count_nonzero(t[gd.lower[:, idx]] == idx)) for t in gd.top)
    if is_conic_class(target):
        i, j = reducible_fibers(target, lt)[0]
        lines = np.array(lt.lines, dtype=np.int64)
        total = 0
        for t in gd.top:
            sums = lines[t[gd.lower[:, i]]] + lines[t[gd.lower[:, j]]]
            total += int(np.count_nonzero(np.all(sums == target, axis=1)))
        return total
    raise ValueError("target must be a line or a conic class")


@lru_cache(maxsize=None)
def spanning_inverse(r: int) -> tuple[np.ndarray, np.ndarray]:
    """The inverse of the matrix V whose columns are the spanning lines,
    by exact rational inversion, and the spanning line indices.

    V is unimodular, so the inverse must come out integral.
    """
    lt = enumerate_lines(r)
    kcols = spanning_lines(lt)
    inv = sympy.Matrix([lt.lines[k] for k in kcols.tolist()]).T.inv()
    if not all(v.is_integer for v in inv):
        raise RuntimeError("spanning lines are not a unimodular basis")
    return np.array(inv.tolist(), dtype=np.int64), kcols


def induced_matrix(e: WeylElement, lt: LineTable) -> tuple[tuple[int, ...], ...]:
    """The (r+1) x (r+1) integer matrix of e on Pic, from the permutation.

    Solves A * V = V' where V holds the spanning lines as columns and V'
    their images, with V^-1 from spanning_inverse.
    """
    inv, kcols = spanning_inverse(lt.r)
    images = np.array([lt.lines[e.perm[k]] for k in kcols.tolist()], dtype=np.int64).T
    return tuple(tuple(row) for row in (images @ inv).tolist())


def reflection_character_value(g: WeylElement) -> int:
    """Trace on Pic minus 1 for a single element, exactly (any rank)."""
    lt = enumerate_lines(rank_for_line_count(len(g.perm)))
    return int(np.trace(induced_matrix(g, lt))) - 1


# GAP3's CharTable(CoxeterGroup("D", 5)): row s, column c is the value of the
# irreducible rep_theory.IRREDUCIBLE_LABELS[s] on class rep_theory.CLASS_LABELS[c].
GAP_D5_TABLE: tuple[tuple[int, ...], ...] = (
    (10, -2,  2, -4,  2,  0, -2,  2, -2,  0,  1, -1,  1, -1,  1,  0,  0,  0),
    ( 5,  1, -3, -3, -1,  1,  3,  1,  1, -1,  2,  0, -2,  0,  0, -1,  1,  0),
    ( 1,  1,  1, -1, -1, -1, -1,  1,  1,  1,  1,  1,  1, -1, -1, -1, -1,  1),
    (10, -2,  2, -2,  0,  2, -4, -2,  2,  0,  1, -1,  1,  1, -1,  0,  0,  0),
    (20, -4,  4, -2,  2, -2,  2,  0,  0,  0, -1,  1, -1,  1, -1,  0,  0,  0),
    (15,  3, -9, -3, -1,  1,  3, -1, -1,  1,  0,  0,  0,  0,  0,  1, -1,  0),
    ( 4,  4,  4, -2, -2, -2, -2,  0,  0,  0,  1,  1,  1,  1,  1,  0,  0, -1),
    (10,  2, -6,  0,  0,  0,  0,  2,  2, -2, -2,  0,  2,  0,  0,  0,  0,  0),
    (20, -4,  4,  2, -2,  2, -2,  0,  0,  0, -1,  1, -1, -1,  1,  0,  0,  0),
    ( 5,  5,  5, -1, -1, -1, -1,  1,  1,  1, -1, -1, -1, -1, -1,  1,  1,  0),
    (10, -2,  2,  2,  0, -2,  4, -2,  2,  0,  1, -1,  1, -1,  1,  0,  0,  0),
    (15,  3, -9,  3,  1, -1, -3, -1, -1,  1,  0,  0,  0,  0,  0, -1,  1,  0),
    ( 6,  6,  6,  0,  0,  0,  0, -2, -2, -2,  0,  0,  0,  0,  0,  0,  0,  1),
    (10, -2,  2,  4, -2,  0,  2,  2, -2,  0,  1, -1,  1,  1, -1,  0,  0,  0),
    ( 5,  5,  5,  1,  1,  1,  1,  1,  1,  1, -1, -1, -1,  1,  1, -1, -1,  0),
    ( 5,  1, -3,  3,  1, -1, -3,  1,  1, -1,  2,  0, -2,  0,  0,  1, -1,  0),
    ( 4,  4,  4,  2,  2,  2,  2,  0,  0,  0,  1,  1,  1, -1, -1,  0,  0, -1),
    ( 1,  1,  1,  1,  1,  1,  1,  1,  1,  1,  1,  1,  1,  1,  1,  1,  1,  1),
)

# GAP's CoxeterWord representative of each class, in GAP's generators zeta_i.
GAP_D5_CLASS_WORDS: tuple[tuple[int, ...], ...] = (
    (),
    (1, 2),
    (1, 2, 3, 1, 2, 3, 4, 3, 1, 2, 3, 4),
    (1,),
    (1, 2, 3),
    (1, 2, 4),
    (1, 2, 3, 1, 2, 3, 4, 3, 1, 2, 3, 4, 5),
    (1, 4),
    (1, 3, 1, 2, 3, 4),
    (1, 2, 3, 5),
    (1, 3),
    (1, 2, 3, 4),
    (1, 2, 4, 5),
    (1, 3, 5),
    (1, 3, 1, 2, 3, 4, 5),
    (1, 4, 3),
    (1, 2, 3, 4, 5),
    (1, 4, 3, 5),
)

# zeta_i -> the fundamental root s_j of lattice's labelling (fork at rho_3,
# arms rho_4/rho_5, tail rho_2-rho_1), matching the two D5 diagrams node by node.
ZETA_TO_S: dict[int, int] = {1: 4, 2: 5, 3: 3, 4: 2, 5: 1}


def d5_conic_values() -> tuple[int, ...]:
    """The conic-action character on the 18 classes, by fixed conics."""
    lines, conics = enumerate_lines(5).lines, enumerate_conics(5)
    out = []
    for perm in d5_classes()[0].tolist():
        fixed = 0
        for fib in conics:
            i, j = fib.fibers[0]
            fixed += combine(lines[perm[i]], lines[perm[j]]) == fib.cls
        out.append(fixed)
    return tuple(out)


@lru_cache(maxsize=None)
def canonical_certificate(r: int) -> HlogCertificate:
    """kernel_signs(r) with the canonical fiber orders and bases."""
    return kernel_signs(r)


def segments(*segs):
    """Batched letter coefficients of straight segments (base, end, points),
    as numeric._rk4_batch reads them, and the number of segments."""

    def coef(paths, t):
        cols = []
        for p in paths:
            base, end, points = segs[p]
            pts = np.asarray(points, dtype=complex)
            seg = end - base
            cols.append(seg / (base + t[:, None] * seg - pts[None, :]))
        return np.stack(cols, axis=1)

    return coef, len(segs)


def segment_words(
    base: complex, end: complex, points, max_weight: int, tol: float = 1e-12
) -> tuple[dict[Word, complex], float]:
    """Every word of weight <= max_weight in the letters dz/(z - points[k]),
    transported alone along the segment base -> end, keyed by word, and its
    error estimate."""
    values, errors = numeric._rk4_batch(
        *segments((base, end, points)), len(points), max_weight, tol
    )
    index = numeric._word_system(len(points), max_weight)
    return {w: complex(values[0, i]) for w, i in index.items()}, float(errors[0])


def combination_value(values: dict[Word, complex], combination: WordCombination) -> complex:
    """The combination's value from word values, term by term."""
    total = 0j
    for w, c in combination:
        total += float(c) * values[w]
    return total


def ai3_cross_check(points, base: complex, end: complex) -> float:
    """Discrepancy of the weight-3 antisymmetric value on the letters
    dz/(z - points[k]) against its logarithm-times-weight-2 decomposition
    (must be at quadrature level)."""
    if len(points) != 3:
        raise ValueError("the decomposition needs exactly three finite letters")
    values, _ = segment_words(base, end, points, 3)
    lhs = combination_value(values, asym((0, 1, 2)))
    rhs = 0j
    for i in range(3):
        rest = tuple(k for k in range(3) if k != i)
        rhs += (-1) ** i * values[(i,)] * combination_value(values, asym(rest))
    return abs(lhs - rhs / 3)
