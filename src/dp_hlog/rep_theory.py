"""Character theory of W(E_r) acting on lines and conic fibrations.

Permutation characters are sampled over the whole group (r <= 7), one block
t o W_(r-1) of the transversal chain of :mod:`dp_hlog.weyl` at a time. Each
element permutes the lines, and a conic class goes where its first fiber
goes; fixed points are counted, power sums come from iterated composition.
The signature multiplicity needs only the sum of a class function, so it
reads one block per double coset W_(r-1) t W_(r-1), weighted by the number
of blocks in it. Every reduction is an exact integer; exterior powers use the
Newton recurrence on power sums.

A class function is an int8 array over the group: entry i is its value at
element i of the chain order of weyl.group_data. Constancy on conjugacy
classes is a property of the construction, spot-checked in tests. The
per-rank caches hand out read-only arrays.

At r = 5 the D5 character table is computed, not transcribed: a class of
W(E_5) = W(D_5) is the signed cycle type of its action on the five conic
pairs {c, -K - c}, one scan of the chain finds each class's size and first
element, and the Murnaghan-Nakayama rule of type B gives the values. For
r = 6, 7 no tables are built; only norms and the trivial/reflection
projections are certified, which is exactly what the kernel certificate
needs.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple, Sequence

import numpy as np

from .errors import InternalError
from .incidence import COUNTS, enumerate_conics, enumerate_lines
from .lattice import RankMismatch, canonical
from .weyl import group_data


# Rows per piece of a block whose powers are composed (a few MB of gather
# indices).
_PIECE = 1 << 12


class NotACharacter(InternalError):
    """Decomposition against the character table gave a non-integer."""


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
    d = np.array(lt.lines, dtype=np.int64).T
    table = np.concatenate([d[1:], d[:1]])
    table[:2] += d[0]
    kcols = np.array(lt.exceptional + (lt.generators[-1][lt.exceptional[2]],))
    table.flags.writeable = kcols.flags.writeable = False
    return table, kcols


class _Values(NamedTuple):
    """Per-element values of the permutation-type characters, chain order."""

    line: np.ndarray  # fixed lines
    conic: np.ndarray  # fixed conic classes
    reflection: np.ndarray  # trace on Pic minus 1


def _conic_images(perms: np.ndarray, r: int) -> np.ndarray:
    """(n, kappa) conic images under the line permutation rows: a row maps
    conic c to the conic of the images of c's first fiber, read off a table
    of the fiber pairs; an image pair that is no fiber raises InternalError."""
    conics, l = enumerate_conics(r), COUNTS[r].lines
    kappa = len(conics)
    fiber_conic = np.full((l, l), kappa, dtype=np.min_scalar_type(kappa))
    for c, f in enumerate(conics):
        for i, j in f.fibers:
            fiber_conic[i, j] = fiber_conic[j, i] = c
    a, b = np.array([f.fibers[0] for f in conics]).T
    images = fiber_conic[perms[:, a], perms[:, b]]
    if (images == kappa).any():
        raise InternalError("a group element maps a first fiber off the fibers")
    return images


@lru_cache(maxsize=None)
def _values(r: int) -> _Values:
    """The three characters one block t o W_(r-1) at a time, no block
    composed: t o w fixes x where w(x) = t^-1(x), and the trace reads the
    images t(w(k)) of the spanning lines k alone. Conics go by
    `_conic_images`."""
    gd = group_data(r)
    step = len(gd.lower)
    inverses = np.argsort(gd.top, axis=1).astype(np.uint8)
    lower_conics, inverse_conics = (_conic_images(x, r) for x in (gd.lower, inverses))
    table, kcols = _trace_table(r)
    rows, spans = np.arange(len(kcols)), gd.lower[:, kcols]
    out = _Values(*(np.empty(len(gd), dtype=np.int8) for _ in range(3)))
    for j, t in enumerate(gd.top):
        block = slice(j * step, (j + 1) * step)
        out.line[block] = (gd.lower == inverses[j]).sum(axis=1, dtype=np.int16)
        out.conic[block] = (lower_conics == inverse_conics[j]).sum(axis=1, dtype=np.int16)
        out.reflection[block] = table[rows, t[spans]].sum(axis=1) - 1
    for values in out:
        values.flags.writeable = False
    return out


def line_character(r: int) -> np.ndarray:
    """g -> number of fixed lines."""
    return _values(r).line


def conic_character(r: int) -> np.ndarray:
    """g -> number of fixed conic classes; degree kappa_r at the identity."""
    return _values(r).conic


def reflection_character(r: int) -> np.ndarray:
    """g -> trace of g on Pic minus 1 (the canonical class splits off)."""
    return _values(r).reflection


def trivial_character(r: int) -> np.ndarray:
    return np.ones(len(group_data(r)), dtype=np.int8)


def inner_product(chi: np.ndarray, psi: np.ndarray) -> Fraction:
    """(1/|W|) sum_g chi(g) psi(g), exact.

    The group orders of the ranks all differ, so samples of different
    lengths are of different ranks (RankMismatch). einsum casts the int8
    values to int64 inside its buffer, so no int64 copy of a sample is
    made; |values| <= 126 and |W| <= 2,903,040 keep the sum far below 2^63.
    """
    if len(chi) != len(psi):
        raise RankMismatch(f"samples of {len(chi)} and {len(psi)} group elements")
    return Fraction(int(np.einsum("i,i->", chi, psi, dtype=np.int64)), len(chi))


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
    orbit = gd.lower.min(axis=0)
    l_r = enumerate_lines(r).exceptional[-1]
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
    step = len(gd.lower)
    total = 0
    for j, count in zip(*_double_coset_blocks(r)):
        wedge = _elementary_from_powers(_power_fixed_counts(gd.top[j][gd.lower], r - 2))
        signs = 1 - 2 * (gd.levels[j * step : (j + 1) * step] & 1).astype(np.int64)
        total += int(count) * int(np.einsum("i,i->", signs, wedge, dtype=np.int64))
    mult = Fraction(total, len(gd))
    if mult.denominator != 1:
        raise InternalError(f"signature multiplicity is not an integer: {mult}")
    return int(mult)


# W(D_5) = W(E_5): its classes and irreducibles, each named by a bipartition
# of 5 as in GAP3's CharTable(CoxeterGroup("D", 5)). Both orders and
# spellings reach the artifact.
CLASS_LABELS: tuple[str, ...] = (
    "(1^5.)", "(1^3.1^2)", "(1.1^4)", "(21^3.)", "(1^2.21)", "(21.1^2)",
    "(.21^3)", "(221.)", "(1.22)", "(2.21)", "(311.)", "(1.31)",
    "(3.11)", "(32.)", "(.32)", "(41.)", "(.41)", "(5.)",
)
IRREDUCIBLE_LABELS: tuple[str, ...] = (
    "[1^2.1^3]", "[1.1^4]", "[.1^5]", "[1^3.2]", "[1^2.21]", "[1.21^2]",
    "[.21^3]", "[1.2^2]", "[2.21]", "[.2^21]", "[1^2.3]", "[1.31]",
    "[.31^2]", "[2.3]", "[.32]", "[1.4]", "[.41]", "[.5]",
)


def _bipartition(label: str) -> tuple[tuple[int, ...], ...]:
    """'(21^3.)' -> ((2, 1, 1, 1), ()): each part a digit with an optional
    ^k repeat, so '221' and '2^21' read alike."""
    return tuple(
        tuple(int(d) for d, k in re.findall(r"(\d)(?:\^(\d))?", side) for _ in range(int(k or 1)))
        for side in label[1:-1].split(".")
    )


def _signed_cycle_type(images: list[int], partner: list[int]) -> tuple[tuple[int, ...], ...]:
    """(lambda, mu) of a conic permutation that commutes with c -> -K - c =
    partner[c]. A k-cycle of the pairs that returns a pair unswapped is two
    k-cycles of conics and a part k of lambda; one that swaps it is a single
    2k-cycle through both conics of the pair and a part k of mu."""
    lam, mu, seen = [], [], set()
    for c in range(len(images)):
        if c not in seen:
            cycle = [c]
            while images[cycle[-1]] != c:
                cycle.append(images[cycle[-1]])
            seen.update(cycle, (partner[x] for x in cycle))
            if partner[c] in cycle:
                mu.append(len(cycle) // 2)
            else:
                lam.append(len(cycle))
    return tuple(sorted(lam, reverse=True)), tuple(sorted(mu, reverse=True))


@lru_cache(maxsize=None)
def d5_classes() -> tuple[np.ndarray, tuple[int, ...]]:
    """(representatives, sizes) of the classes of CLASS_LABELS: the first
    chain element of each signed cycle type on the conic pairs, as a
    read-only (18, 16) uint8 array, and the number of elements of the type,
    from one scan of W(E_5)."""
    gd, conics = group_data(5), enumerate_conics(5)
    elements = gd.top[:, gd.lower].reshape(len(gd), -1)
    index = {f.cls: c for c, f in enumerate(conics)}
    partner = [index[tuple(-k - x for k, x in zip(canonical(5), f.cls))] for f in conics]
    kinds = [_signed_cycle_type(images, partner) for images in _conic_images(elements, 5).tolist()]
    types = [_bipartition(label) for label in CLASS_LABELS]
    if set(kinds) != set(types):
        raise InternalError(f"cycle types and class labels differ: {set(kinds) ^ set(types)}")
    reps = elements[[kinds.index(t) for t in types]]
    reps.flags.writeable = False
    return reps, tuple(kinds.count(t) for t in types)


def _rim_hooks(part: tuple[int, ...], k: int):
    """(rest, (-1)^height) for each rim hook of length k of the partition.
    On the beta-numbers part[i] + len(part) - 1 - i, removing a k-hook moves
    a bead b to a free b - k, and its height is the number of beads passed."""
    n = len(part)
    beads = {p + n - 1 - i for i, p in enumerate(part)}
    for b in beads:
        if b >= k and b - k not in beads:
            moved = sorted(beads - {b} | {b - k}, reverse=True)
            rest = (x - (n - 1 - i) for i, x in enumerate(moved))
            yield tuple(p for p in rest if p), (-1) ** sum(b - k < x < b for x in beads)


def _type_b_value(alpha: tuple[int, ...], beta: tuple[int, ...], lam: tuple, mu: tuple) -> int:
    """chi^(alpha, beta) of W(B_n) at the signed cycle type (lam, mu), by the
    Murnaghan-Nakayama rule: a hook of the first cycle's length comes off
    alpha or beta with sign (-1)^height, one off beta for a negative cycle
    (a part of mu) with one more -1 (Geck & Pfeiffer, Characters of Finite
    Coxeter Groups and Iwahori-Hecke Algebras, 2000)."""
    if not lam and not mu:
        return 1
    negative = not lam
    k, lam, mu = (mu[0], lam, mu[1:]) if negative else (lam[0], lam[1:], mu)
    off_alpha = sum(s * _type_b_value(a, beta, lam, mu) for a, s in _rim_hooks(alpha, k))
    off_beta = sum(s * _type_b_value(alpha, b, lam, mu) for b, s in _rim_hooks(beta, k))
    return off_alpha - off_beta if negative else off_alpha + off_beta


@lru_cache(maxsize=None)
def d5_character_table() -> tuple[tuple[int, ...], ...]:
    """Row s, column c: IRREDUCIBLE_LABELS[s] on CLASS_LABELS[c], the
    restriction of chi^(alpha, beta) from W(B_5), irreducible as 5 is odd.
    Guarded by row orthogonality under the scanned class sizes."""
    table = tuple(
        tuple(_type_b_value(*_bipartition(row), *_bipartition(column)) for column in CLASS_LABELS)
        for row in IRREDUCIBLE_LABELS
    )
    rows = np.array(table)
    if ((rows * d5_classes()[1]) @ rows.T != COUNTS[5].group_order * np.eye(len(rows))).any():
        raise InternalError("computed D5 table fails row orthogonality")
    return table


def d5_decompose(values18: Sequence[int]) -> tuple[int, ...]:
    """Multiplicities of a class function against the D5 character table."""
    values = list(values18)
    if len(values) != 18:
        raise ValueError("expected 18 class values")
    sizes = d5_classes()[1]
    out = []
    for row in d5_character_table():
        num = sum(sizes[c] * row[c] * values[c] for c in range(18))
        q, rem = divmod(num, COUNTS[5].group_order)
        if rem:
            raise NotACharacter(f"non-integer multiplicity {Fraction(num, COUNTS[5].group_order)}")
        out.append(q)
    return tuple(out)


@lru_cache(maxsize=None)
def _d5_power_counts() -> np.ndarray:
    """(18, 3) fixed lines of g, g^2, g^3 for each class representative g."""
    return _power_fixed_counts(d5_classes()[0], 3)


def d5_chi_values() -> tuple[int, ...]:
    """The line-action character on the 18 classes."""
    return tuple(_d5_power_counts()[:, 0].tolist())


def d5_wedge3_values() -> tuple[int, ...]:
    """wedge^3 of the line-action character on the 18 classes."""
    return tuple(_elementary_from_powers(_d5_power_counts()).tolist())
