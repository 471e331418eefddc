"""Oracles that only the tests call.

The group-level ones work element by element (or class by class) on the
enumerated group, independently of the bulk character and kernel routes
they cross-check. The group itself is enumerated a second way, by a
breadth-first closure with generator-word witnesses (WeylElement), apart
from the transversal chain of weyl.group_data, and the Pic basis is looked
up in the line table. The numeric one decomposes a transported weight-3
value into transported values of lower weight.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterator, NamedTuple

import numpy as np
import sympy

from dp_hlog.hyperlog.numeric import LogFormBasis, evaluate_words
from dp_hlog.hyperlog.words import asym
from dp_hlog.incidence import COUNTS, LineTable, enumerate_conics, enumerate_lines
from dp_hlog.incidence import reducible_fibers
from dp_hlog.lattice import DivisorClass, exceptional, hyperplane, is_conic_class, is_line
from dp_hlog.rep_theory import d5_class_representatives
from dp_hlog.weyl import group_data


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
    basis.append(hyperplane(lt.r) - basis[0] - basis[1])
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
    lines = gd.lower[:, : len(gd.lt)]
    k = 0
    for t in gd.top:
        for row in t[lines]:
            yield row, int(gd.levels[k])
            k += 1


def enumerate_group(r: int, lt: LineTable | None = None) -> Iterator[WeylElement]:
    """Stream every element of W(E_r) exactly once, r in 3..7.

    The order is the chain order of group_data (the order of the character
    samples), so positions in this stream are a stable element key. Each
    word is the BFS closure's witness for that permutation; each sign is the
    parity of the chain length.
    """
    gd = group_data(r)
    if lt is not None and lt.lines != gd.lt.lines:
        raise ValueError("line table does not match the canonical ordering")
    closure = bfs_closure(r)
    where = {row.tobytes(): i for i, row in enumerate(closure.perms)}
    for perm, length in chain_elements(r):
        word = closure.word(where[perm.tobytes()])
        yield WeylElement(tuple(perm.tolist()), -1 if length & 1 else 1, word)


def stabilizer_order(r: int, target: DivisorClass) -> int:
    """Number of group elements fixing a line or conic class."""
    gd = group_data(r)
    if is_line(target):
        idx = gd.lt.index[target]
        return sum(int(np.count_nonzero(t[gd.lower[:, idx]] == idx)) for t in gd.top)
    if is_conic_class(target):
        i, j = reducible_fibers(target, gd.lt)[0]
        coeffs = np.array([l.coeffs for l in gd.lt.lines], dtype=np.int64)
        total = 0
        for t in gd.top:
            sums = coeffs[t[gd.lower[:, i]]] + coeffs[t[gd.lower[:, j]]]
            total += int(np.count_nonzero(np.all(sums == target.coeffs, axis=1)))
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
    inv = sympy.Matrix([lt.lines[k].coeffs for k in kcols.tolist()]).T.inv()
    if not all(v.is_integer for v in inv):
        raise RuntimeError("spanning lines are not a unimodular basis")
    return np.array(inv.tolist(), dtype=np.int64), kcols


def induced_matrix(e: WeylElement, lt: LineTable) -> tuple[tuple[int, ...], ...]:
    """The (r+1) x (r+1) integer matrix of e on Pic, from the permutation.

    Solves A * V = V' where V holds the spanning lines as columns and V'
    their images, with V^-1 from spanning_inverse.
    """
    inv, kcols = spanning_inverse(lt.r)
    images = np.array([lt.lines[e.perm[k]].coeffs for k in kcols.tolist()], dtype=np.int64).T
    return tuple(tuple(row) for row in (images @ inv).tolist())


def reflection_character_value(g: WeylElement) -> int:
    """Trace on Pic minus 1 for a single element, exactly (any rank)."""
    lt = enumerate_lines(rank_for_line_count(len(g.perm)))
    return int(np.trace(induced_matrix(g, lt))) - 1


def d5_conic_values() -> tuple[int, ...]:
    """The conic-action character on the 18 classes, by fixed conics."""
    gd = group_data(5)
    conics = enumerate_conics(5, gd.lt)
    out = []
    for perm in d5_class_representatives().tolist():
        fixed = 0
        for fib in conics:
            i, j = fib.fibers[0]
            fixed += gd.lt.lines[perm[i]] + gd.lt.lines[perm[j]] == fib.cls
        out.append(fixed)
    return tuple(out)


def ai3_cross_check(basis: LogFormBasis, base: complex, end: complex) -> float:
    """Discrepancy of the weight-3 antisymmetric value against its
    logarithm-times-weight-2 decomposition (must be at quadrature level)."""
    if len(basis) != 3:
        raise ValueError("the decomposition needs exactly three finite letters")
    pe = evaluate_words(basis, base, end, 3)
    lhs = pe.value_of(asym((0, 1, 2)))
    rhs = 0j
    for i in range(3):
        rest = tuple(k for k in range(3) if k != i)
        rhs += (-1) ** i * pe.values[(i,)] * pe.value_of(asym(rest))
    return abs(lhs - rhs / 3)
