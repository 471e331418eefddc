"""The conic webs of the quintic and quartic del Pezzo surfaces, derived
from their points.

Blowing up the plane at r points p_1..p_r gives a del Pezzo surface of
degree 9 - r. Each non-exceptional line class d h - sum m_i l_i (m_i in
{0, 1} for r <= 5) is the unique plane curve of degree d through the points
with m_i = 1, found as an exact nullspace. A conic pencil's reducible fibers
are pairs of lines, so a fiber's equation is the product of its components'
curves; the first integral of the pencil is U = lambda F_0 / F_inf, scaled
so that the fiber F_1 maps to 1, and r_i is the value of U on the remaining
fiber. As U - c vanishes exactly on the fiber over c, d log(U - c) is that
fiber's affine factors minus those of the infinity fiber: an integer residue
row over the affine lines, which the residue check proves as an exact
polynomial identity. The line through [1:0:0] and [0:1:0] is the line at
infinity; it is a constant in affine coordinates, so it is no factor.

At r = 5 the points [1:0:0], [0:1:0], (0,0), (1,1), (pi, gamma) give the
two-parameter ten-integral web; at r = 4 the points (0,0), (1,1), [1:0:0],
[0:1:0] give the five-term web (x, y, x/y, (1-x)/(1-y), x(1-y)/(y(1-x))).
A fiber spec names, for each first integral, its conic class and one line
of the fiber at each spectrum value 0, 1, [r_i,] infinity. That is also the
conic alignment: feeding those fiber orders to the wedge-kernel engine
produces the sign vector used by the symbolic identity and the numeric
verification, so signs are never hard-coded. The tests check the derived
webs against hand-written tables of the integrals, factors, residues and
fibers, and against a sympy expansion of those tables.
"""

from __future__ import annotations

import functools
import math
import re
from fractions import Fraction
from typing import NamedTuple, Sequence

from ..errors import InternalError
from ..incidence import enumerate_conics, enumerate_lines
from ..wedge_kernel import iterated_wedge, kernel_epsilon

Poly = dict  # {(x_degree, y_degree): Fraction}

# The (gamma, pi) pair whose entries fill any parameter a caller leaves out.
DEFAULT_PARAMETERS = (Fraction(1, 3), Fraction(5, 2))

# The points p_1..p_4 of the five-term web, as [X:Y:Z] with x = X/Z, y = Y/Z.
FIVE_TERM_POINTS = ((0, 0, 1), (1, 1, 1), (1, 0, 0), (0, 1, 0))

# One row per first integral, in integral order: the conic class, and one
# line of the fiber over each spectrum value 0, 1, [r_i,] infinity.
FIVE_TERM_SPEC = (
    ("h-l4", ("h-l1-l4", "h-l2-l4", "h-l3-l4")),
    ("h-l3", ("h-l1-l3", "h-l2-l3", "h-l3-l4")),
    ("h-l1", ("h-l1-l4", "h-l1-l2", "h-l1-l3")),
    ("h-l2", ("h-l2-l4", "h-l1-l2", "h-l2-l3")),
    ("2h-l1-l2-l3-l4", ("h-l1-l4", "h-l1-l2", "h-l1-l3")),
)
TEN_TERM_SPEC = (
    ("h-l2", ("h-l2-l3", "h-l2-l4", "h-l2-l5", "h-l1-l2")),
    ("h-l1", ("h-l1-l2", "h-l1-l4", "h-l1-l5", "h-l1-l3")),
    ("h-l3", ("h-l1-l3", "h-l3-l4", "h-l3-l5", "h-l2-l3")),
    ("h-l4", ("h-l3-l4", "h-l1-l4", "h-l4-l5", "h-l2-l4")),
    ("h-l5", ("h-l2-l5", "h-l1-l5", "h-l4-l5", "h-l3-l5")),
    ("2h-l1-l2-l4-l5", ("h-l1-l2", "h-l1-l4", "2h-l1-l2-l3-l4-l5", "h-l1-l5")),
    ("2h-l1-l3-l4-l5", ("h-l1-l5", "h-l1-l4", "2h-l1-l2-l3-l4-l5", "h-l1-l3")),
    ("2h-l2-l3-l4-l5", ("h-l2-l3", "h-l2-l4", "2h-l1-l2-l3-l4-l5", "h-l2-l5")),
    ("2h-l1-l2-l3-l5", ("h-l1-l3", "h-l1-l2", "2h-l1-l2-l3-l4-l5", "h-l1-l5")),
    ("2h-l1-l2-l3-l4", ("h-l1-l4", "h-l1-l2", "2h-l1-l2-l3-l4-l5", "h-l1-l3")),
)


class ResidueMismatch(RuntimeError):
    """A residue vector disagrees with the derivative of log U."""


class SymbolicIdentityViolation(RuntimeError):
    """The weight r - 2 antisymmetric tensor sum failed to vanish."""


def _pdiff(p: Poly, var: int) -> Poly:
    out: Poly = {}
    for (i, j), c in p.items():
        e = (i, j)[var]
        if e:
            key = (i - 1, j) if var == 0 else (i, j - 1)
            out[key] = out.get(key, Fraction(0)) + e * c
    return out


def _pscale_sub(a: Poly, c: Fraction, b: Poly) -> Poly:
    """a - c*b with zero terms dropped."""
    out = dict(a)
    for key, v in b.items():
        total = out.get(key, Fraction(0)) - c * v
        if total:
            out[key] = total
        else:
            out.pop(key, None)
    return out


def _pmul(a: Poly, b: Poly) -> Poly:
    out: Poly = {}
    for (i, j), u in a.items():
        for (k, m), v in b.items():
            key = (i + k, j + m)
            total = out.get(key, Fraction(0)) + u * v
            if total:
                out[key] = total
            else:
                out.pop(key, None)
    return out


def _without_content(*polys: Poly) -> tuple[Poly, ...]:
    """Divide the polys by their joint rational content, with one sign rule:
    the last poly's coefficient at its lowest (x, y) exponent pair is
    positive.

    The content is the gcd of every coefficient numerator over the lcm of
    every coefficient denominator, so the results have coprime integer
    coefficients. The numeric transport evaluates these coefficients in
    floating point, so its residuals depend on the scaling, but not on the
    joint sign: negating a numerator and its denominator together leaves
    every quotient bit-identical.
    """
    values = [c for p in polys for c in p.values()]
    content = Fraction(
        math.gcd(*(c.numerator for c in values)),
        math.lcm(*(c.denominator for c in values)),
    )
    if polys[-1][min(polys[-1])] < 0:
        content = -content
    return tuple({k: c / content for k, c in p.items()} for p in polys)


def _nullspace(rows: Sequence[Sequence], n: int) -> list[list[Fraction]]:
    """A basis of {v in Q^n : rows v = 0}, by exact row reduction."""
    rows = [[Fraction(v) for v in row] for row in rows]
    pivots: list[int] = []
    for col in range(n):
        k = len(pivots)
        pick = next((i for i in range(k, len(rows)) if rows[i][col]), None)
        if pick is None:
            continue
        rows[k], rows[pick] = rows[pick], rows[k]
        rows[k] = [v / rows[k][col] for v in rows[k]]
        for i, row in enumerate(rows):
            if i != k and row[col]:
                rows[i] = [a - row[col] * b for a, b in zip(row, rows[k])]
        pivots.append(col)
    basis = []
    for free in (c for c in range(n) if c not in pivots):
        v = [Fraction(0)] * n
        v[free] = Fraction(1)
        for k, col in enumerate(pivots):
            v[col] = -rows[k][free]
        basis.append(v)
    return basis


def _kernel_vector(rows: Sequence[Sequence], n: int, what: str) -> list[Fraction]:
    basis = _nullspace(rows, n)
    if len(basis) != 1:
        raise InternalError(f"{what}: nullspace of dimension {len(basis)}, expected 1")
    return basis[0]


def _divisor(r: int, text: str) -> tuple[int, ...]:
    """The class written as, say, '2h-l1-l2' on the rank-r lattice."""
    d = [0] * (r + 1)
    for sign, mult, base, i in re.findall(r"([+-]?)(\d*)([hl])(\d*)", text):
        d[int(i or 0)] += (-1 if sign == "-" else 1) * int(mult or 1)
    return tuple(d)


def _curve(line: tuple[int, ...], points: Sequence[tuple]) -> Poly:
    """The plane curve of a non-exceptional line class, at Z = 1."""
    d = line[0]
    monomials = [(i, j) for i in range(d + 1) for j in range(d + 1 - i)]
    rows = [
        [X**i * Y**j * Z ** (d - i - j) for i, j in monomials]
        for (X, Y, Z), m in zip(points, line[1:])
        if m
    ]
    v = _kernel_vector(rows, len(monomials), f"curves of class {line}")
    return {k: c for k, c in zip(monomials, v) if c}


def _pencil_coordinates(f0: Poly, finf: Poly, fs: Poly) -> tuple[Fraction, Fraction]:
    """(a, b), both nonzero, with fs = a f0 + b finf."""
    keys = sorted({*f0, *finf, *fs})
    rows = [[f0.get(k, 0), finf.get(k, 0), fs.get(k, 0)] for k in keys]
    a, b, c = _kernel_vector(rows, 3, "fibers of one pencil")
    if not (a and b and c):
        raise InternalError("a fiber is not a third member of its pencil")
    return -a / c, -b / c


class AlignmentEntry(NamedTuple):
    """Which conic a first integral cuts out, with fibers in spectrum order.

    An alignment lists one entry per first integral, in integral order.
    """

    conic: int
    fiber_order: tuple[tuple[int, int], ...]  # fibers at 0, 1, [r_i,] infinity


class DP4Data(NamedTuple):
    """Exact web data of the plane blown up at r points, as conic_web
    derives it from the points and a fiber spec, for any rank r. gamma and
    pi are the parameter pair of the rank-5 web of dp4_data, and None for
    every other web."""

    gamma: Fraction | None
    pi: Fraction | None
    integrals: tuple[tuple[Poly, Poly], ...]  # (numerator, denominator)
    lines: tuple[tuple[int, ...], ...]  # the line class of each factor
    factors: tuple[Poly, ...]
    spectra: tuple[tuple[Fraction, ...], ...]  # (0, 1[, r_i])
    residues: tuple[tuple[tuple[int, ...], ...], ...]
    alignment: tuple[AlignmentEntry, ...]


def conic_web(points: Sequence[tuple], spec: Sequence[tuple]) -> DP4Data:
    """Derive the web of the plane blown up at `points` ([X:Y:Z] triples)
    from its fiber spec, with gamma = pi = None."""
    r = len(points)
    lt, conics = enumerate_lines(r), enumerate_conics(r)
    curves = {k: _curve(l, points) for k, l in enumerate(lt.lines) if l[0]}
    factor_ids = [k for k, f in curves.items() if set(f) != {(0, 0)}]
    conic_ids = {f.cls: k for k, f in enumerate(conics)}
    integrals, spectra, residues, alignment = [], [], [], []
    for i, (conic_name, slot_names) in enumerate(spec):
        k = conic_ids.get(_divisor(r, conic_name))
        if k is None:
            raise InternalError(f"spec row {i + 1}: {conic_name} is not a conic class")
        fibers = []
        for name in slot_names:
            line = lt.index.get(_divisor(r, name))
            owner = [f for f in conics[k].fibers if line in f]
            if not owner:
                raise InternalError(
                    f"spec row {i + 1}: {name} is in no fiber of {conic_name}"
                )
            fibers.append(owner[0])
        if len(set(fibers)) != len(fibers) or len(fibers) != r - 1:
            raise InternalError(
                f"spec row {i + 1} must name each of the {r - 1} fibers once"
            )
        f0, f1, *rest, finf = (
            functools.reduce(
                _pmul, (curves[j] for j in f if j in curves), {(0, 0): Fraction(1)}
            )
            for f in fibers
        )
        a1, b1 = _pencil_coordinates(f0, finf, f1)
        values = [Fraction(0), Fraction(1)]
        for fs in rest:
            a, b = _pencil_coordinates(f0, finf, fs)
            values.append(a1 * b / (b1 * a))
        if len(set(values)) != len(values):
            raise InternalError(f"spectrum of integral {i + 1} degenerates")
        lam = -a1 / b1
        integrals.append(_without_content({m: lam * c for m, c in f0.items()}, finf))
        spectra.append(tuple(values))
        residues.append(
            tuple(
                tuple(int(j in f) - int(j in fibers[-1]) for j in factor_ids)
                for f in fibers[:-1]
            )
        )
        alignment.append(AlignmentEntry(k, tuple(fibers)))
    if sorted(e.conic for e in alignment) != list(range(len(conics))):
        raise InternalError("spec rows do not exhaust the conic classes")
    return DP4Data(
        gamma=None,
        pi=None,
        integrals=tuple(integrals),
        lines=tuple(lt.lines[j] for j in factor_ids),
        factors=tuple(_without_content(curves[j])[0] for j in factor_ids),
        spectra=tuple(spectra),
        residues=tuple(residues),
        alignment=tuple(alignment),
    )


def five_term_web() -> DP4Data:
    """The rank-4 web of the five-term relation."""
    return conic_web(FIVE_TERM_POINTS, FIVE_TERM_SPEC)


def dp4_data(gamma=None, pi=None) -> DP4Data:
    """Build the rank-5 web at exact rational parameters, checking genericity.

    A parameter left as None takes its value from DEFAULT_PARAMETERS.
    """
    g = Fraction(DEFAULT_PARAMETERS[0] if gamma is None else gamma)
    p = Fraction(DEFAULT_PARAMETERS[1] if pi is None else pi)
    if g * p * (p - 1) * (g - 1) * (p - g) == 0:
        raise ValueError(
            "parameters must satisfy pi*gamma*(pi-1)*(gamma-1)*(pi-gamma) != 0"
        )
    points = ((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1), (p, g, 1))
    return conic_web(points, TEN_TERM_SPEC)._replace(gamma=g, pi=p)


def _strict_zip(what: str, *tables):
    """zip(*tables), raising ResidueMismatch where their lengths differ."""
    try:
        yield from zip(*tables, strict=True)
    except ValueError:
        raise ResidueMismatch(f"{what}: table lengths differ") from None


def _proportional(a: Poly, b: Poly) -> bool:
    """Whether a = k b for a constant k != 0."""
    key = next((m for m, v in b.items() if v), None)
    if key is None or not a.get(key):
        return False
    return not any(_pscale_sub(a, a[key] / b[key], b).values())


def dp4_residue_check(data: DP4Data) -> int:
    """Prove every residue row as a polynomial identity; return the count.

    Row m of U = num/den at spectrum value c claims (num - c den)/den =
    k prod_j L_j^(m_j) for a constant k != 0, which is d log(U - c) =
    sum_j m_j d log L_j. With the negative exponents cleared, that is the
    exact identity (num - c den) prod_(m_j<0) L_j^(-m_j) = k den
    prod_(m_j>0) L_j^(m_j). The proof uses field operations only, so it
    reads any coefficient field.
    """
    proved = 0
    for i, ((num, den), values, rows) in enumerate(
        _strict_zip("integrals", data.integrals, data.spectra, data.residues)
    ):
        for s, (c, row) in enumerate(_strict_zip(f"U_{i + 1}", values, rows)):
            lhs, rhs = _pscale_sub(num, c, den), den
            where = f"U_{i + 1} at spectrum slot {s + 1}"
            for f, mj in _strict_zip(where, data.factors, row):
                for _ in range(mj):
                    rhs = _pmul(rhs, f)
                for _ in range(-mj):
                    lhs = _pmul(lhs, f)
            if not _proportional(lhs, rhs):
                raise ResidueMismatch(f"dlog(U - c) mismatch for {where}")
            proved += 1
    return proved


class SymbolicReport(NamedTuple):
    terms_per_integral: tuple[int, ...]
    ambient_dimension: int


def dp4_symbolic_identity(data: DP4Data) -> SymbolicReport:
    """Verify sum_i eps_i R_i1 ^ ... ^ R_iw = 0 exactly, w = r - 2, with eps
    the aligned kernel signs; R_is is integral i's residue row at its s-th
    finite spectrum value.

    This is the paper's sum_i eps_i Asym^w(R_i1 (x) ... (x) R_iw) = 0:
    Asym^w of the rows is the alternating tensor of their wedge over w!, its
    entry at a sorted w-tuple of factor indices being the rows' minor on
    those columns over w!. `iterated_wedge` gives those minors exactly, as
    integers keyed by factor bitmask. terms_per_integral counts each
    integral's nonzero Asym entries, w! per wedge entry.
    """
    r = len(data.lines[0]) - 1
    if len(data.residues) != len(data.alignment):
        raise SymbolicIdentityViolation(
            f"{len(data.residues)} residue tables for {len(data.alignment)} integrals"
        )
    signs = aligned_signs(r, data.alignment)
    total: dict[int, int] = {}
    sizes = []
    for eps, rows in zip(signs, data.residues):
        wedge = iterated_wedge([(j, v) for j, v in enumerate(row) if v] for row in rows)
        sizes.append(math.factorial(r - 2) * len(wedge))
        for key, v in wedge.entries.items():
            total[key] = total.get(key, 0) + eps * v
    left = sum(1 for v in total.values() if v)
    if left:
        raise SymbolicIdentityViolation(f"{left} nonzero wedge entries remain")
    return SymbolicReport(tuple(sizes), len(data.factors) ** (r - 2))


def aligned_signs(r: int, alignment: Sequence[AlignmentEntry]) -> tuple[int, ...]:
    """Kernel signs with fibers in spectrum order, one per integral; the
    infinity fiber, last in each order, is the base."""
    orders = [e.fiber_order for e in sorted(alignment, key=lambda e: e.conic)]
    epsilon = kernel_epsilon(enumerate_conics(r), orders, (r - 2,) * len(orders), False)
    return tuple(epsilon[e.conic] for e in alignment)
