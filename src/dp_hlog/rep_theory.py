"""Character theory of W(E_r) acting on lines and conic fibrations.

Permutation characters are sampled over the whole group (r <= 7), one block
t o W_(r-1) of the transversal chain of :mod:`dp_hlog.weyl` at a time. Each
element permutes the lines and the conic classes, so fixed lines and fixed
conics are fixed-point counts; power sums come from iterated composition.
The signature multiplicity needs only the sum of a class function, so it
reads one block per double coset W_(r-1) t W_(r-1), weighted by the number
of blocks in it. Every reduction is an exact integer; exterior powers use the
Newton recurrence on power sums.

The type D5 character table (r = 5) is embedded in :mod:`dp_hlog.d5_data`,
so that case decomposes completely: its 18 class representatives are rows
composed from GAP's class words, and their values go through the same
power-sum kernel as the group sums. For r = 6, 7 no tables are embedded;
only norms and the trivial/reflection projections are certified, which is
exactly what the kernel certificate needs.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple, Sequence

import numpy as np

from . import d5_data
from .errors import InternalError
from .incidence import COUNTS, enumerate_lines
from .lattice import RankMismatch
from .records import Record
from .weyl import group_data


# Rows per piece of a block whose powers are composed (a few MB of gather
# indices).
_PIECE = 1 << 12


class NotACharacter(ValueError):
    """Decomposition against the character table gave a non-integer."""


class ClassFunctionSample(Record):
    """A class function sampled over the whole group.

    values[i] is the value at element i of the chain order of
    weyl.group_data, one byte each; constancy on conjugacy classes is a
    property of the construction, spot-checked in tests. len() is the group
    order.
    """

    __slots__ = ("values", "r")
    values: np.ndarray
    r: int

    def __len__(self) -> int:
        return len(self.values)


def _power_fixed_counts(chunk: np.ndarray, s: int) -> np.ndarray:
    """(n, s) fixed-point counts of g^1..g^s for each permutation row, in
    pieces of _PIECE rows: g o g^k is a gather from the flattened piece."""
    n, l = chunk.shape
    idx = np.arange(l, dtype=chunk.dtype)
    out = np.empty((n, s), dtype=np.int64)
    for lo in range(0, n, _PIECE):
        cur = piece = np.ascontiguousarray(chunk[lo : lo + _PIECE])
        rows = np.arange(0, piece.size, l)[:, None]
        for k in range(s):
            if k:
                cur = piece.ravel()[cur + rows]
            out[lo : lo + len(piece), k] = (cur == idx).sum(axis=1, dtype=np.int16)
    return out


def _elementary_from_powers(p: np.ndarray) -> np.ndarray:
    """e_s per row of power sums p (n, s), by the Newton recurrence
    m e_m = sum_k (-1)^(k-1) p_k e_(m-k). For permutation power sums it
    divides exactly at every step; a non-integer means corrupted input."""
    n, s = p.shape
    e = [np.ones(n, dtype=np.int64)]
    for m in range(1, s + 1):
        acc = np.zeros(n, dtype=np.int64)
        sign = 1
        for k in range(1, m + 1):
            acc += sign * p[:, k - 1] * e[m - k]
            sign = -sign
        if (acc % m).any():
            raise InternalError(f"Newton recurrence non-integer at step {m}")
        e.append(acc // m)
    return e[s]


@lru_cache(maxsize=None)
def _trace_table(r: int) -> tuple[np.ndarray, np.ndarray]:
    """T[c, m] with trace(g on Pic) = sum_c T[c, perm_g[kcols[c]]].

    kcols indexes the basis l_1..l_r, h - l_1 - l_2 of Pic, the last read as
    the Cremona image l_3 + (h - l_1 - l_2 - l_3) of l_3. Column m holds line
    m's coordinates in it: d0 h + sum d_i l_i is d0 (h - l_1 - l_2) plus
    (d_1 + d0) l_1 + (d_2 + d0) l_2 + sum_(i >= 3) d_i l_i.
    """
    lt = enumerate_lines(r)
    coeffs = np.array([l.coeffs for l in lt.lines], dtype=np.int64).T
    table = np.concatenate([coeffs[1:], coeffs[:1]])
    table[:2] += coeffs[0]
    return table, np.array(lt.exceptional + (lt.generators[-1][lt.exceptional[2]],))


class _Values(NamedTuple):
    """Per-element values of the permutation-type characters, chain order."""

    line: np.ndarray  # fixed lines
    conic: np.ndarray  # fixed conic classes
    reflection: np.ndarray  # trace on Pic minus 1


@lru_cache(maxsize=None)
def _values(r: int) -> _Values:
    """The three characters one block t o W_(r-1) at a time, no block
    composed: t o w fixes x where w(x) = t^-1(x), and the trace reads the
    images t(w(k)) of the spanning lines k alone."""
    gd = group_data(r)
    l, step = len(gd.lt), len(gd.lower)
    table, kcols = _trace_table(r)
    rows, spans = np.arange(len(kcols)), gd.lower[:, kcols]
    out = _Values(*(np.empty(len(gd), dtype=np.int8) for _ in range(3)))
    for lo, t in zip(range(0, len(gd), step), gd.top):
        fixed = gd.lower == np.argsort(t).astype(np.uint8)
        out.line[lo : lo + step] = fixed[:, :l].sum(axis=1, dtype=np.int16)
        out.conic[lo : lo + step] = fixed[:, l:].sum(axis=1, dtype=np.int16)
        out.reflection[lo : lo + step] = table[rows, t[spans]].sum(axis=1) - 1
    return out


def line_character(r: int) -> ClassFunctionSample:
    """g -> number of fixed lines."""
    return ClassFunctionSample(_values(r).line, r)


def conic_character(r: int) -> ClassFunctionSample:
    """g -> number of fixed conic classes; degree kappa_r at the identity."""
    return ClassFunctionSample(_values(r).conic, r)


def reflection_character(r: int) -> ClassFunctionSample:
    """g -> trace of g on Pic minus 1 (the canonical class splits off)."""
    return ClassFunctionSample(_values(r).reflection, r)


def trivial_character(r: int) -> ClassFunctionSample:
    return ClassFunctionSample(np.ones(len(group_data(r)), dtype=np.int8), r)


def inner_product(chi: ClassFunctionSample, psi: ClassFunctionSample) -> Fraction:
    """(1/|W|) sum_g chi(g) psi(g), exact.

    einsum casts the int8 values to int64 inside its buffer, so no int64
    copy of a sample is made; |values| <= 126 and |W| <= 2,903,040 keep the
    sum far below 2^63.
    """
    if chi.r != psi.r or len(chi) != len(psi):
        raise RankMismatch(f"rank {chi.r} vs rank {psi.r}")
    return Fraction(int(np.einsum("i,i->", chi.values, psi.values, dtype=np.int64)), len(chi))


def _double_coset_blocks(r: int) -> tuple[np.ndarray, np.ndarray]:
    """(first, count): block first[k], top[first[k]] o W_(r-1), stands for
    the count[k] blocks of its double coset W_(r-1) t W_(r-1).

    The block t o W_(r-1) holds the elements that map l_r to t(l_r). For u
    in W_(r-1) a class function f has the same sum over u t W_(r-1) as over
    t W_(r-1), since f(u t w) = f(t w u); so the sum depends only on the
    W_(r-1)-orbit of t(l_r). lower holds all of W_(r-1), so the least image
    of a line under it labels the line's orbit.
    """
    gd = group_data(r)
    orbit = gd.lower[:, : len(gd.lt)].min(axis=0)
    l_r = gd.lt.exceptional[-1]
    _, first, count = np.unique(orbit[gd.top[:, l_r]], return_index=True, return_counts=True)
    return first, count


def signature_multiplicity(r: int) -> int:
    """Multiplicity of the sign character in wedge^(r-2) of the line action.

    An exact integer sum over the whole group, one block per double coset
    (`_double_coset_blocks`): 4 blocks of 51,840 elements at r = 7, not 56.
    r = 3 is refused, and `group_data` refuses r = 8 (|W(E_8)| ~ 6.96e8;
    the known value there is 5, recorded but not computed here).
    """
    if r < 4:
        raise ValueError(f"rank must be in 4..7, got {r}")
    gd = group_data(r)
    l, step = len(gd.lt), len(gd.lower)
    total = 0
    for j, count in zip(*_double_coset_blocks(r)):
        wedge = _elementary_from_powers(_power_fixed_counts(gd.top[j][gd.lower[:, :l]], r - 2))
        signs = 1 - 2 * (gd.levels[j * step : (j + 1) * step] & 1).astype(np.int64)
        total += int(count) * int(np.einsum("i,i->", signs, wedge, dtype=np.int64))
    mult = Fraction(total, len(gd))
    if mult.denominator != 1:
        raise InternalError(f"signature multiplicity is not an integer: {mult}")
    return int(mult)


def d5_class_representatives() -> np.ndarray:
    """(18, 16) uint8: row k represents the class of the k-th column of the
    embedded character table of W(D_5) = W(E_5).

    Row k composes the line permutations s_(w_1) o ... o s_(w_n) of GAP's
    CoxeterWord for class k, translated generator by generator through the
    Dynkin relabeling d5_data.ZETA_TO_S into the fundamental-root indexing.
    """
    gens = np.array(enumerate_lines(5).generators, dtype=np.uint8)
    reps = np.empty((18, gens.shape[1]), dtype=np.uint8)
    for k, zeta_word in enumerate(d5_data.CLASS_WORDS):
        perm = np.arange(gens.shape[1], dtype=np.uint8)
        for z in zeta_word:
            perm = perm[gens[d5_data.ZETA_TO_S[z] - 1]]
        reps[k] = perm
    return reps


@lru_cache(maxsize=None)
def d5_class_sizes() -> tuple[int, ...]:
    """Conjugacy class sizes for the 18 embedded representatives.

    Computed as conjugation orbits under the generators, then guarded by the
    row orthogonality of the embedded table (a transcription checksum).
    """
    gens = enumerate_lines(5).generators
    sizes = []
    covered: set[tuple[int, ...]] = set()
    for perm in map(tuple, d5_class_representatives().tolist()):
        orbit, frontier = {perm}, [perm]
        for p in frontier:  # grows while the loop runs
            for s in gens:
                q = tuple(s[p[s[i]]] for i in range(len(p)))
                if q not in orbit:
                    orbit.add(q)
                    frontier.append(q)
        if orbit & covered:
            raise InternalError("representatives do not hit distinct classes")
        covered |= orbit
        sizes.append(len(orbit))
    if sum(sizes) != COUNTS[5].group_order:
        raise InternalError("class sizes do not partition the group")
    table = d5_data.CHARACTER_TABLE
    for s in range(18):
        for t in range(s, 18):
            acc = sum(sizes[c] * table[s][c] * table[t][c] for c in range(18))
            if acc != (COUNTS[5].group_order if s == t else 0):
                raise InternalError("embedded table fails row orthogonality")
    return tuple(sizes)


def d5_decompose(values18: Sequence[int]) -> tuple[int, ...]:
    """Multiplicities of a class function against the embedded D5 table."""
    values = list(values18)
    if len(values) != 18:
        raise ValueError("expected 18 class values")
    sizes = d5_class_sizes()
    out = []
    for row in d5_data.CHARACTER_TABLE:
        num = sum(sizes[c] * row[c] * values[c] for c in range(18))
        q, rem = divmod(num, COUNTS[5].group_order)
        if rem:
            raise NotACharacter(f"non-integer multiplicity {Fraction(num, COUNTS[5].group_order)}")
        out.append(q)
    return tuple(out)


@lru_cache(maxsize=None)
def _d5_power_counts() -> np.ndarray:
    """(18, 3) fixed lines of g, g^2, g^3 for each class representative g."""
    return _power_fixed_counts(d5_class_representatives(), 3)


def d5_chi_values() -> tuple[int, ...]:
    """The line-action character on the 18 classes."""
    return tuple(_d5_power_counts()[:, 0].tolist())


def d5_wedge3_values() -> tuple[int, ...]:
    """wedge^3 of the line-action character on the 18 classes."""
    return tuple(_elementary_from_powers(_d5_power_counts()).tolist())
