"""Group-level oracles that only the tests call.

Each works element by element (or class by class) on the enumerated group,
independently of the bulk character and kernel routes it cross-checks.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from dp_hlog.incidence import (
    COUNTS,
    LineTable,
    enumerate_conics,
    enumerate_lines,
    reducible_fibers,
)
from dp_hlog.lattice import DelPezzoLattice, DivisorClass
from dp_hlog.weyl import (
    _CHUNK,
    WeylElement,
    _check_line_table,
    _spanning_inverse,
    d5_class_representatives,
    group_data,
    line_coeffs,
)


def rank_for_line_count(n: int) -> int:
    """The rank r whose surface has n lines."""
    for r, counts in COUNTS.items():
        if counts.lines == n:
            return r
    raise ValueError(f"no rank has {n} lines")


def enumerate_group(r: int, lt: LineTable | None = None) -> Iterator[WeylElement]:
    """Stream every element of W(E_r) exactly once, r in 3..7.

    Discovery order is deterministic (BFS level, then packed-key order), so
    positions in this stream are a stable element key.
    """
    gd = group_data(r)
    _check_line_table(lt, gd.lt)
    for i in range(len(gd)):
        word = []
        k = i
        while k != 0:
            word.append(int(gd.gens[k]))
            k = int(gd.parents[k])
        sign = -1 if gd.levels[i] & 1 else 1
        yield WeylElement(tuple(gd.perms[i].tolist()), sign, tuple(reversed(word)))


def stabilizer_order(r: int, target: DivisorClass) -> int:
    """Number of group elements fixing a line or conic class."""
    gd = group_data(r)
    lat = DelPezzoLattice(r)
    if lat.is_line(target):
        idx = gd.lt.index[target]
        return int(np.count_nonzero(gd.perms[:, idx] == idx))
    if lat.is_conic_class(target):
        i, j = reducible_fibers(target, gd.lt)[0]
        coeffs = line_coeffs(gd.lt)
        total = 0
        for lo in range(0, len(gd), _CHUNK):
            pi = gd.perms[lo : lo + _CHUNK, i]
            pj = gd.perms[lo : lo + _CHUNK, j]
            sums = coeffs[pi] + coeffs[pj]
            total += int(np.count_nonzero(np.all(sums == target.coeffs, axis=1)))
        return total
    raise ValueError("target must be a line or a conic class")


def induced_matrix(e: WeylElement, lt: LineTable) -> tuple[tuple[int, ...], ...]:
    """The (r+1) x (r+1) integer matrix of e on Pic, from the permutation.

    Solves A * V = V' where V holds the spanning lines as columns and V'
    their images; V is unimodular so A is exact.
    """
    inv, kcols = _spanning_inverse(lt.r)
    images = np.array([lt.lines[e.perm[k]].coeffs for k in kcols.tolist()], dtype=np.int64).T
    return tuple(tuple(row) for row in (images @ inv).tolist())


def reflection_character_value(g: WeylElement) -> int:
    """Trace on Pic minus 1 for a single element, exactly (any rank)."""
    lt = enumerate_lines(rank_for_line_count(len(g.perm)))
    mat = induced_matrix(g, lt)
    return sum(mat[k][k] for k in range(len(mat))) - 1


def d5_conic_values() -> tuple[int, ...]:
    """The conic-action character on the 18 classes, by fixed conics."""
    gd = group_data(5)
    conics = enumerate_conics(5, gd.lt)
    out = []
    for e in d5_class_representatives():
        fixed = 0
        for fib in conics:
            i, j = fib.fibers[0]
            fixed += gd.lt.lines[e.perm[i]] + gd.lt.lines[e.perm[j]] == fib.cls
        out.append(fixed)
    return tuple(out)
