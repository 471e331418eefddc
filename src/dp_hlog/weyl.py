"""W(E_r) as a chain of coset transversals on the lines.

Elements are uint8 permutations of the lines in canonical order; a conic
class is the sum of the two lines of any of its fibers, so they fix the
conic action too. W_k (k = 2..r) is generated by the swaps with generator
indices 0..k-2 and, for k >= 3, by the Cremona reflection (index r - 1).
Its transversal T_k is a BFS of the orbit of l_k under W_k: one t with
t(l_k) = m per line m of the orbit, with its BFS depth. Every element is
t_r o ... o t_2 exactly once (Sims 1970). A BFS word is a shortest coset
representative, and lengths add across the parabolic factorization
W_k = T_k W_(k-1) (Humphreys, Reflection Groups and Coxeter Groups, 1.10),
so the length of an element is the sum of its depths and its sign, the
determinant on Pic, the parity of that sum.

The chain is proved, not assumed: the generators of W_(k-1) must fix l_k,
and every Schreier generator g o t (t in T_k, g a generator of W_k) must sift
through T_k, ..., T_2 to the identity, else RuntimeError. Then W_(k-1) is the
stabilizer of l_k and |W_k| = |T_k| |W_(k-1)|. Only the transversal T_r, the
product of the lower levels (|W(E_6)| x 56 bytes at r = 7) and a byte of
length per element are kept; r = 8 (|W(E_8)| ~ 6.96e8) is refused.

Elements are these uint8 rows alone; :mod:`dp_hlog.rep_theory` reads the
characters and the trace on Pic off them, and at r = 5 the W(D_5) classes:
signed cycle types on the five conic pairs, found in one scan of the chain.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Sequence

import numpy as np

from .incidence import enumerate_lines
from .records import Record


class GroupTooLarge(ValueError):
    """Raised for r = 8: the full W(E_8) is out of enumeration scope."""


class _GroupData(Record):
    """W(E_r) as T_r o W_(r-1), in chain order with the identity first.

    top holds T_r and lower every element of W_(r-1), as line permutations;
    element j * len(lower) + i is top[j] o lower[i], and levels[k] is the
    length of element k. len() is the group order.
    """

    __slots__ = ("top", "lower", "levels")
    top: np.ndarray  # (|T_r|, lines) uint8
    lower: np.ndarray  # (|W_(r-1)|, lines) uint8
    levels: np.ndarray  # (N,) uint8, word length

    def __len__(self) -> int:
        return len(self.levels)

    def length_distribution(self) -> list[int]:
        """Number of elements of each length. Lengths add across T_r o W_(r-1),
        whose first elements are the identity, so the counts of T_r (levels
        of top[j] o 1) and of W_(r-1) (levels of 1 o lower[i]) convolve. A
        bincount of all |W| levels would copy them to int64 (23 MB at r = 7)."""
        n = len(self.lower)
        return np.convolve(np.bincount(self.levels[::n]), np.bincount(self.levels[:n])).tolist()


def _transversal(gens: np.ndarray, base: int) -> tuple[np.ndarray, np.ndarray]:
    """BFS of the orbit of base under gens by left multiplication: one t
    with t(base) = m per orbit line m, identity first, and its depth."""
    perms, depths, reached = [np.arange(gens.shape[1], dtype=np.uint8)], [0], {base}
    for t, depth in zip(perms, depths):  # both grow while the loop runs
        for g in gens:
            child = g[t]
            if int(child[base]) not in reached:
                reached.add(int(child[base]))
                perms.append(child)
                depths.append(depth + 1)
    return np.array(perms), np.array(depths, dtype=np.uint8)


def chain(gens: np.ndarray, bases: Sequence[int]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """T_r, the product W_(r-1) of the lower transversals and the lengths of
    T_r o W_(r-1), for the line generators gens and bases l_2..l_r.

    Raises RuntimeError unless the generators of W_(k-1) fix l_k and every
    Schreier generator of W_k sifts to the identity.
    """
    r, n = gens.shape
    transversals = []  # (base, where, inverses) of T_k, ..., T_2
    lower, lengths = np.arange(n, dtype=np.uint8)[None], np.zeros(1, dtype=np.uint8)
    sub = gens[:0]
    for k, base in enumerate(bases, start=2):
        if (sub[:, base] != base).any():
            raise RuntimeError(f"a generator of W_{k - 1} moves l_{k}")
        sub = gens[list(range(k - 1)) + ([r - 1] if k >= 3 else [])]
        perms, depths = _transversal(sub, base)
        where = np.full(n, -1)
        where[perms[:, base]] = np.arange(len(perms))
        transversals.insert(0, (base, where, np.argsort(perms, axis=1).astype(np.uint8)))
        x = sub[:, perms].reshape(-1, n)  # the Schreier generators g o t
        for b, w, inverse in transversals:
            at = w[x[:, b]]
            if (at < 0).any():
                raise RuntimeError(f"a Schreier generator of W_{k} leaves a lower orbit")
            x = np.take_along_axis(inverse[at], x, axis=1)
        if (x != np.arange(n)).any():
            raise RuntimeError(f"a Schreier generator of W_{k} does not sift to the identity")
        if k < r:
            lower = perms[:, lower].reshape(-1, n)
            lengths = (depths[:, None] + lengths).ravel()
    return perms, lower, (depths[:, None] + lengths).ravel()


@lru_cache(maxsize=None)
def group_data(r: int) -> _GroupData:
    """W(E_r) for r in 3..7 as a proved chain of coset transversals (cached,
    so its arrays are read-only)."""
    if r == 8:
        raise GroupTooLarge("W(E_8) has ~6.96e8 elements; enumeration refused")
    lt = enumerate_lines(r)
    gd = _GroupData(*chain(np.array(lt.generators, dtype=np.uint8), lt.exceptional[1:]))
    for rows in (gd.top, gd.lower, gd.levels):
        rows.flags.writeable = False
    return gd
