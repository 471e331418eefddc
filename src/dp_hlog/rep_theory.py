"""Character theory of W(E_r) acting on lines and conic fibrations.

Permutation characters are sampled over the full enumerated group (r <= 7),
in chunks of the cached permutation arrays; power sums always come from
cycle data or iterated in-chunk composition, and every reduction is an exact
integer. Exterior powers use the Newton recurrence on power sums.

The type D5 character table (r = 5) is embedded in :mod:`dp_hlog.d5_data`,
so that case decomposes completely. For r = 6, 7 no tables are embedded;
only norms and the trivial/reflection projections are certified, which is
exactly what the kernel certificate needs.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Sequence

import numpy as np

from . import d5_data
from .errors import InternalError
from .incidence import enumerate_conics
from .lattice import RankMismatch
from .records import Record
from .weyl import (
    _CHUNK,
    GroupTooLarge,
    WeylElement,
    d5_class_representatives,
    generators,
    group_data,
    line_coeffs,
    _spanning_inverse,
)


class NotACharacter(ValueError):
    """Decomposition against the character table gave a non-integer."""


class ClassFunctionSample(Record):
    """A class function sampled over the whole group.

    values[i] is the value at the i-th element of the canonical enumeration
    stream (a map keyed by stream position); constancy on conjugacy classes
    is a property of the construction, spot-checked in tests. len() is the
    group order.
    """

    __slots__ = ("values", "r")
    values: np.ndarray
    r: int

    def __len__(self) -> int:
        return len(self.values)


def fixed_points(g: WeylElement, power: int = 1) -> int:
    """Fixed lines of g**power, from the cycle type of g (no composition)."""
    if power < 1:
        raise ValueError("power must be >= 1")
    seen = [False] * len(g.perm)
    total = 0
    for start in range(len(g.perm)):
        if seen[start]:
            continue
        length = 0
        i = start
        while not seen[i]:
            seen[i] = True
            i = g.perm[i]
            length += 1
        if power % length == 0:
            total += length
    return total


def exterior_power_value(powersums: Sequence[int], m: int) -> int:
    """e_m from p_1..p_m via m*e_m = sum_k (-1)^(k-1) p_k e_{m-k}.

    For permutation power sums the recurrence divides exactly at every step;
    a non-integer would mean corrupted input.
    """
    if m < 0 or len(powersums) < m:
        raise ValueError(f"need {m} power sums, got {len(powersums)}")
    e = [1] + [0] * m
    for mm in range(1, m + 1):
        acc = 0
        sign = 1
        for k in range(1, mm + 1):
            acc += sign * powersums[k - 1] * e[mm - k]
            sign = -sign
        q, rem = divmod(acc, mm)
        if rem:
            raise InternalError(f"Newton recurrence non-integer at step {mm}")
        e[mm] = q
    return e[m]


def _exact_dot(a: np.ndarray, b: np.ndarray) -> int:
    """Exact integer dot product with an int64 overflow guard."""
    if len(a) != len(b):
        raise ValueError("length mismatch")
    if len(a) == 0:
        return 0
    bound = int(np.abs(a).max(initial=0)) * int(np.abs(b).max(initial=0))
    if bound and bound > (1 << 62) // len(a):
        return sum(int(x) * int(y) for x, y in zip(a.tolist(), b.tolist()))
    return int(np.dot(a.astype(np.int64), b.astype(np.int64)))


def _power_fixed_counts(chunk: np.ndarray, s: int) -> np.ndarray:
    """(n, s) fixed-point counts of g^1..g^s for each permutation row."""
    n, l = chunk.shape
    idx = np.arange(l, dtype=chunk.dtype)
    out = np.empty((n, s), dtype=np.int64)
    cur = chunk
    out[:, 0] = (cur == idx).sum(axis=1)
    for k in range(1, s):
        cur = np.take_along_axis(chunk, cur, axis=1)
        out[:, k] = (cur == idx).sum(axis=1)
    return out


def _elementary_from_powers(p: np.ndarray) -> np.ndarray:
    """Vectorized Newton recurrence: e_s per row of power sums p (n, s)."""
    n, s = p.shape
    e = [np.ones(n, dtype=np.int64)]
    for m in range(1, s + 1):
        acc = np.zeros(n, dtype=np.int64)
        sign = 1
        for k in range(1, m + 1):
            acc += sign * p[:, k - 1] * e[m - k]
            sign = -sign
        if (acc % m).any():
            raise InternalError(f"vector Newton recurrence non-integer at step {m}")
        e.append(acc // m)
    return e[s]


@lru_cache(maxsize=None)
def _line_values(r: int) -> np.ndarray:
    gd = group_data(r)
    idx = np.arange(gd.perms.shape[1], dtype=gd.perms.dtype)
    return (gd.perms == idx).sum(axis=1).astype(np.int64)


@lru_cache(maxsize=None)
def _conic_values(r: int) -> np.ndarray:
    gd = group_data(r)
    conics = enumerate_conics(r, gd.lt)
    l = len(gd.lt)
    pair_to_conic = np.full((l, l), -1, dtype=np.int16)
    rep_pairs = np.empty((len(conics), 2), dtype=np.int64)
    for k, fib in enumerate(conics):
        rep_pairs[k] = fib.fibers[0]
        for i, j in fib.fibers:
            pair_to_conic[i, j] = pair_to_conic[j, i] = k
    out = np.empty(len(gd), dtype=np.int64)
    for lo in range(0, len(gd), _CHUNK):
        block = gd.perms[lo : lo + _CHUNK]
        counts = np.zeros(len(block), dtype=np.int64)
        for k in range(len(conics)):
            i, j = rep_pairs[k]
            counts += pair_to_conic[block[:, i], block[:, j]] == k
        out[lo : lo + _CHUNK] = counts
    return out


@lru_cache(maxsize=None)
def _trace_table(r: int) -> tuple[np.ndarray, np.ndarray]:
    """T[c, m] with trace(g on Pic) = sum_c T[c, perm_g[kcols[c]]]."""
    inv, kcols = _spanning_inverse(r)
    return inv @ line_coeffs(group_data(r).lt).T, kcols


@lru_cache(maxsize=None)
def _reflection_values(r: int) -> np.ndarray:
    gd = group_data(r)
    table, kcols = _trace_table(r)
    traces = np.zeros(len(gd), dtype=np.int64)
    for c in range(r + 1):
        traces += table[c][gd.perms[:, int(kcols[c])]]
    return traces - 1


def line_character(r: int) -> ClassFunctionSample:
    """g -> number of fixed lines."""
    return ClassFunctionSample(_line_values(r), r)


def conic_character(r: int) -> ClassFunctionSample:
    """g -> number of fixed conic classes; degree kappa_r at the identity."""
    return ClassFunctionSample(_conic_values(r), r)


def reflection_character(r: int) -> ClassFunctionSample:
    """g -> trace of g on Pic minus 1 (the canonical class splits off)."""
    return ClassFunctionSample(_reflection_values(r), r)


def trivial_character(r: int) -> ClassFunctionSample:
    return ClassFunctionSample(np.ones(len(group_data(r)), dtype=np.int64), r)


def inner_product(chi: ClassFunctionSample, psi: ClassFunctionSample) -> Fraction:
    """(1/|W|) sum_g chi(g) psi(g), exact."""
    if chi.r != psi.r or len(chi) != len(psi):
        raise RankMismatch(f"rank {chi.r} vs rank {psi.r}")
    return Fraction(_exact_dot(chi.values, psi.values), len(chi))


def signature_multiplicity(r: int) -> int:
    """Multiplicity of the sign character in wedge^(r-2) of the line action.

    Full-group summation, exact integers throughout. r = 8 is refused
    (|W(E_8)| ~ 6.96e8; the known value there is 5, recorded but not
    computed here).
    """
    if r == 8:
        raise GroupTooLarge("signature multiplicity for r=8 needs the full W(E_8) sum")
    if r not in (4, 5, 6, 7):
        raise ValueError(f"rank must be in 4..7, got {r}")
    gd = group_data(r)
    s = r - 2
    signs = gd.signs()
    total = 0
    for lo in range(0, len(gd), _CHUNK):
        powers = _power_fixed_counts(gd.perms[lo : lo + _CHUNK], s)
        wedge = _elementary_from_powers(powers)
        total += _exact_dot(signs[lo : lo + _CHUNK], wedge)
    mult = Fraction(total, len(gd))
    if mult.denominator != 1:
        raise InternalError(f"signature multiplicity is not an integer: {mult}")
    return int(mult)


@lru_cache(maxsize=None)
def d5_class_sizes() -> tuple[int, ...]:
    """Conjugacy class sizes for the 18 embedded representatives.

    Computed as conjugation orbits under the generators, then guarded by the
    row orthogonality of the embedded table (a transcription checksum).
    """
    reps = d5_class_representatives()
    gens = [g.perm for g in generators(5)]
    sizes = []
    covered: set[tuple[int, ...]] = set()
    for e in reps:
        orbit = {e.perm}
        frontier = [e.perm]
        while frontier:
            nxt = []
            for p in frontier:
                for s in gens:
                    q = tuple(s[p[s[i]]] for i in range(len(p)))
                    if q not in orbit:
                        orbit.add(q)
                        nxt.append(q)
            frontier = nxt
        if orbit & covered:
            raise InternalError("representatives do not hit distinct classes")
        covered |= orbit
        sizes.append(len(orbit))
    if sum(sizes) != d5_data.GROUP_ORDER:
        raise InternalError("class sizes do not partition the group")
    table = d5_data.CHARACTER_TABLE
    for s in range(18):
        for t in range(s, 18):
            acc = sum(sizes[c] * table[s][c] * table[t][c] for c in range(18))
            if acc != (d5_data.GROUP_ORDER if s == t else 0):
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
        q, rem = divmod(num, d5_data.GROUP_ORDER)
        if rem:
            raise NotACharacter(f"non-integer multiplicity {Fraction(num, d5_data.GROUP_ORDER)}")
        out.append(q)
    return tuple(out)


def d5_chi_values() -> tuple[int, ...]:
    """The line-action character on the 18 classes."""
    return tuple(fixed_points(e, 1) for e in d5_class_representatives())


def d5_wedge3_values() -> tuple[int, ...]:
    """wedge^3 of the line-action character on the 18 classes."""
    out = []
    for e in d5_class_representatives():
        powers = tuple(fixed_points(e, k) for k in (1, 2, 3))
        out.append(exterior_power_value(powers, 3))
    return tuple(out)
