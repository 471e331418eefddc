"""W(E_r) materialized as a permutation group on the canonical line list.

The group is generated by the r fundamental reflections. Elements are stored
as permutations of line indices: the images of a spanning set of r + 1 lines
determine the whole lattice map, so a 48-bit packed key over that set
deduplicates elements exactly. Enumeration is a breadth-first closure under
right multiplication by the generators, vectorized with numpy; signs ride
along as the parity of the BFS level (every word for a fixed element has the
same parity, since the determinant on Pic is well defined).

The r = 7 group (2 903 040 elements on 56 lines) fits in roughly 170 MB of
uint8 rows; r = 8 (|W(E_8)| ~ 6.96e8) is refused.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

import numpy as np

from . import d5_data
from .errors import InternalError
from .incidence import COUNTS, LineTable, UnsupportedRank, enumerate_lines
from .lattice import SUPPORTED_RANKS, DelPezzoLattice
from .records import Record

# Group elements per block when a sum runs over the whole group.
_CHUNK = 1 << 18


class GroupTooLarge(ValueError):
    """Raised for r = 8: the full W(E_8) is out of enumeration scope."""


class WeylElement(NamedTuple):
    """A group element as a permutation of the canonical line list.

    perm[i] is the line-table index of the image of line i. word is a witness
    list of 0-based fundamental-root indices, not a canonical form; the
    element is the composition s_{word[0]} o ... o s_{word[-1]} (rightmost
    factor applied first). sign is the determinant of the induced map on Pic,
    always (-1)**len(word).
    """

    perm: tuple[int, ...]
    sign: int
    word: tuple[int, ...]

    def fixed_lines(self) -> int:
        return sum(1 for i, img in enumerate(self.perm) if i == img)


def line_coeffs(lt: LineTable) -> np.ndarray:
    """The lines of lt as the rows of an (l, r + 1) int64 array."""
    return np.array([l.coeffs for l in lt.lines], dtype=np.int64)


def spanning_line_indices(r: int, lt: LineTable) -> np.ndarray:
    """Indices of l_1..l_r and h - l_1 - l_2: a unimodular basis of Pic."""
    lat = DelPezzoLattice(r)
    cols = [lt.index[lat.exceptional(i)] for i in range(1, r + 1)]
    cols.append(lt.index[lat.h - lat.exceptional(1) - lat.exceptional(2)])
    return np.array(cols, dtype=np.int64)


def _pack_keys(rows: np.ndarray) -> np.ndarray:
    """Pack (n, r+1) image tuples into uint64 keys, 6 bits per image."""
    keys = np.zeros(rows.shape[0], dtype=np.uint64)
    for j in range(rows.shape[1]):
        keys = (keys << np.uint64(6)) | rows[:, j].astype(np.uint64)
    return keys


class _GroupData(Record):
    """Cached bulk arrays for one enumerated group, in BFS discovery order.

    len() is the group order.
    """

    __slots__ = ("r", "lt", "perms", "levels", "parents", "gens")
    r: int
    lt: LineTable
    perms: np.ndarray  # (N, l) uint8
    levels: np.ndarray  # (N,) uint8, word length parity carrier
    parents: np.ndarray  # (N,) int32, BFS predecessor
    gens: np.ndarray  # (N,) int8, generator applied last

    def __len__(self) -> int:
        return len(self.levels)

    def signs(self) -> np.ndarray:
        return np.where(self.levels & 1, -1, 1).astype(np.int64)

    def length_distribution(self) -> list[int]:
        """Number of elements at each BFS level (word length)."""
        return np.bincount(self.levels).tolist()


@lru_cache(maxsize=None)
def group_data(r: int) -> _GroupData:
    """Enumerate W(E_r) for r in 3..7 (cached; r = 7 takes 5 to 6 s)."""
    if r == 8:
        raise GroupTooLarge("W(E_8) has ~6.96e8 elements; enumeration refused")
    if r not in COUNTS:
        raise UnsupportedRank(f"rank must be in 3..8, got {r}")
    lt = enumerate_lines(r)
    l = len(lt)
    gen_rows = np.array(lt.generators, dtype=np.uint8)
    kcols = spanning_line_indices(r, lt)
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
        if n_front == 0:
            break
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
    return _GroupData(r, lt, perms, levels, parents, gens)


def _check_line_table(lt: LineTable | None, canonical: LineTable) -> None:
    if lt is not None and lt.lines != canonical.lines:
        raise ValueError("line table does not match the canonical ordering")


def generators(r: int, lt: LineTable | None = None) -> list[WeylElement]:
    """The r fundamental reflections as line permutations (sign -1, order 2)."""
    if r not in SUPPORTED_RANKS:
        raise UnsupportedRank(f"rank must be in 3..8, got {r}")
    canonical = enumerate_lines(r)
    _check_line_table(lt, canonical)
    return [WeylElement(perm, -1, (g,)) for g, perm in enumerate(canonical.generators)]


def group_order(r: int) -> int:
    """Order of W(E_r) by actual enumeration (r in 3..7)."""
    return len(group_data(r))


def d5_class_representatives(lt: LineTable | None = None) -> list[WeylElement]:
    """Representatives of the 18 conjugacy classes of W(D_5) = W(E_5).

    Words come from GAP's CoxeterWord output, translated generator by
    generator through the Dynkin relabeling (d5_data.ZETA_TO_S) into the
    fundamental-root indexing used here; element k represents the class of
    the k-th column of the embedded character table.
    """
    canonical = enumerate_lines(5)
    _check_line_table(lt, canonical)
    out = []
    for zeta_word in d5_data.CLASS_WORDS:
        word = tuple(d5_data.ZETA_TO_S[z] - 1 for z in zeta_word)
        perm = tuple(range(len(canonical)))
        for g in word:
            perm = tuple(perm[k] for k in canonical.generators[g])
        out.append(WeylElement(perm, -1 if len(word) % 2 else 1, word))
    return out


@lru_cache(maxsize=None)
def _spanning_inverse(r: int) -> tuple[np.ndarray, np.ndarray]:
    """Inverse of the spanning-line coefficient matrix, exact over Z.

    The basis is unimodular, so its inverse is an integer matrix: the
    rounded float inverse is kept only once A * A^-1 = I holds exactly.
    """
    lt = enumerate_lines(r)
    kcols = spanning_line_indices(r, lt)
    basis = line_coeffs(lt)[kcols].T
    inv = np.rint(np.linalg.inv(basis)).astype(np.int64)
    if not np.array_equal(basis @ inv, np.eye(r + 1, dtype=np.int64)):
        raise InternalError("spanning lines are not a unimodular basis")
    return inv, kcols
