"""The explicit two-parameter ten-integral web on the quartic surface.

Blowing up the plane at [1:0:0], [0:1:0], (0,0), (1,1), (pi, gamma) gives a
degree-4 del Pezzo surface whose ten conic pencils push down to the ten
rational first integrals embedded here. Each U_i has spectrum
(0, 1, r_i, infinity); d log(U_i - c) decomposes exactly over the ten
affine log forms h_j = d log L_j, and those residue vectors are embedded
verbatim alongside a re-derivation check (exact probabilistic identity
testing at random rational points).

The web is written down once, as expressions in (gamma, pi, x, y), and
expanded at a parameter pair in exact rational arithmetic on Poly dicts;
the tests check every coefficient against a sympy expansion.

The conic alignment below matches each integral to its conic class and
orders the reducible fibers by spectrum value; feeding those orderings to
the wedge-kernel engine produces the sign vector used by the numeric
verification, so signs are never hard-coded.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from ..errors import InternalError
from ..incidence import enumerate_conics, enumerate_lines
from ..lattice import DelPezzoLattice, DivisorClass

Poly = dict  # {(x_degree, y_degree): Fraction}

# The (gamma, pi) pair used when a caller names none.
DEFAULT_PARAMETERS = (Fraction(1, 3), Fraction(5, 2))


class ResidueMismatch(RuntimeError):
    """An embedded residue vector disagrees with the derivative of log U."""


class SymbolicIdentityViolation(RuntimeError):
    """The weight-3 antisymmetric tensor sum failed to vanish."""


def _hv(entries: dict[int, int]) -> tuple[int, ...]:
    """A vector over the h-basis from 1-based index -> coefficient."""
    return tuple(entries.get(j, 0) for j in range(1, 11))


# d log(U_i - c) over (h_1..h_10) for c = 0, 1, r_i.
RESIDUE_VECTORS: tuple[tuple[tuple[int, ...], ...], ...] = (
    (_hv({1: 1}), _hv({4: 1}), _hv({5: 1})),
    (_hv({2: -1}), _hv({7: 1, 2: -1}), _hv({3: 1, 2: -1})),
    (_hv({1: -1, 2: 1}), _hv({1: -1, 6: 1}), _hv({1: -1, 10: 1})),
    (_hv({4: -1, 6: 1}), _hv({7: 1, 4: -1}), _hv({9: 1, 4: -1})),
    (_hv({10: -1, 5: 1}), _hv({3: 1, 10: -1}), _hv({9: 1, 10: -1})),
    (
        _hv({3: -1, 9: 1, 4: -1}),
        _hv({7: 1, 3: -1, 4: -1, 5: 1}),
        _hv({3: -1, 4: -1, 8: 1}),
    ),
    (
        _hv({3: 1, 9: -1, 6: 1, 2: -1}),
        _hv({7: 1, 9: -1, 10: 1, 2: -1}),
        _hv({9: -1, 2: -1, 8: 1}),
    ),
    (
        _hv({9: 1, 1: 1, 5: -1, 6: -1}),
        _hv({4: 1, 5: -1, 6: -1, 10: 1}),
        _hv({5: -1, 6: -1, 8: 1}),
    ),
    (
        _hv({3: -1, 1: -1, 5: 1, 2: 1}),
        _hv({3: -1, 1: -1, 10: 1}),
        _hv({3: -1, 1: -1, 8: 1}),
    ),
    (
        _hv({7: 1, 1: 1, 4: -1, 2: -1}),
        _hv({4: -1, 6: 1, 2: -1}),
        _hv({4: -1, 2: -1, 8: 1}),
    ),
)


def _u_expressions(g, p, x, y) -> tuple:
    return (
        x,
        1 / y,
        y / x,
        (x - y) / (x - 1),
        g * (p - x) / (p * y - g * x),
        ((1 - x) * g + x + (p - 1) * y - p) / ((x - 1) * (y - g)),
        (x - y) * (y - g) / (y * (p * y - g * x - p + g + x - y)),
        -x * (x * (g - 1) + (1 - y) * p - g + y) / ((x - y) * (x - p)),
        y * (x - p) / (x * (y - g)),
        x * (y - 1) / (y * (x - 1)),
    )


def _l_expressions(g, p, x, y) -> tuple:
    return (
        x,
        y,
        y - g,
        x - 1,
        x - p,
        x - y,
        y - 1,
        g * ((x - y) * p + x * (y - 1)) - p * y * (x - 1),
        g * (x - 1) - p * (y - 1) + y - x,
        g * x - p * y,
    )


def _r_values(g: Fraction, p: Fraction) -> tuple[Fraction, ...]:
    return (
        p,
        1 / g,
        g / p,
        (p - g) / (p - 1),
        g * (p - 1) / (p - g),
        (g - p) / g,
        1 / (1 - p),
        1 - g,
        (p - 1) / (g - 1),
        p * (g - 1) / (g * (p - 1)),
    )


def _peval(p: Poly, xv, yv):
    total = 0
    for (i, j), c in p.items():
        total += c * xv**i * yv**j
    return total


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


class _Quotient:
    """num/den as a pair of Poly dicts, combined without any cancellation.

    Evaluating an expression table over these operands expands each
    numerator and denominator exactly as written.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: Poly, den: Poly | None = None) -> None:
        self.num = num
        self.den = {(0, 0): Fraction(1)} if den is None else den

    @staticmethod
    def lift(v) -> _Quotient:
        if isinstance(v, _Quotient):
            return v
        return _Quotient({(0, 0): Fraction(v)} if v else {})

    def __add__(self, other) -> _Quotient:
        o = _Quotient.lift(other)
        num = _pscale_sub(_pmul(self.num, o.den), Fraction(-1), _pmul(o.num, self.den))
        return _Quotient(num, _pmul(self.den, o.den))

    __radd__ = __add__

    def __neg__(self) -> _Quotient:
        return _Quotient({k: -c for k, c in self.num.items()}, self.den)

    def __sub__(self, other) -> _Quotient:
        return self + -_Quotient.lift(other)

    def __rsub__(self, other) -> _Quotient:
        return -self + other

    def __mul__(self, other) -> _Quotient:
        o = _Quotient.lift(other)
        return _Quotient(_pmul(self.num, o.num), _pmul(self.den, o.den))

    __rmul__ = __mul__

    def __truediv__(self, other) -> _Quotient:
        o = _Quotient.lift(other)
        return _Quotient(_pmul(self.num, o.den), _pmul(self.den, o.num))

    def __rtruediv__(self, other) -> _Quotient:
        return _Quotient.lift(other) / self


def _without_content(q: _Quotient) -> tuple[Poly, Poly]:
    """Divide num and den by their joint rational content, keeping signs.

    The content is the gcd of every coefficient numerator over the lcm of
    every coefficient denominator, so both results have coprime integer
    coefficients. It is the form sympy's together/fraction/expand gives,
    which the tests keep as the reference. The numeric transport evaluates
    these coefficients in floating point, so its residuals depend on the
    scaling.
    """
    coeffs = [*q.num.values(), *q.den.values()]
    content = Fraction(
        math.gcd(*(c.numerator for c in coeffs)),
        math.lcm(*(c.denominator for c in coeffs)),
    )
    return (
        {k: c / content for k, c in q.num.items()},
        {k: c / content for k, c in q.den.items()},
    )


@dataclass(frozen=True, eq=False)
class DP4Data:
    """Exact web data at a fixed admissible parameter pair (gamma, pi)."""

    gamma: Fraction
    pi: Fraction
    integrals: tuple[tuple[Poly, Poly], ...]  # (numerator, denominator)
    factors: tuple[Poly, ...]
    spectra: tuple[tuple[Fraction, Fraction, Fraction], ...]  # (0, 1, r_i)
    residues: tuple[tuple[tuple[int, ...], ...], ...]


def dp4_data(gamma, pi) -> DP4Data:
    """Build the web at exact rational parameters, checking genericity."""
    g = Fraction(gamma)
    p = Fraction(pi)
    if g * p * (p - 1) * (g - 1) * (p - g) == 0:
        raise ValueError(
            "parameters must satisfy pi*gamma*(pi-1)*(gamma-1)*(pi-gamma) != 0"
        )
    x = _Quotient({(1, 0): Fraction(1)})
    y = _Quotient({(0, 1): Fraction(1)})
    integrals = tuple(_without_content(u) for u in _u_expressions(g, p, x, y))
    factors = tuple(f.num for f in _l_expressions(g, p, x, y))
    spectra = []
    for r in _r_values(g, p):
        if r in (0, 1):
            raise InternalError("spectrum degenerates despite genericity")
        spectra.append((Fraction(0), Fraction(1), r))
    return DP4Data(
        gamma=g,
        pi=p,
        integrals=integrals,
        factors=factors,
        spectra=tuple(spectra),
        residues=RESIDUE_VECTORS,
    )


@dataclass(frozen=True)
class ResidueReport:
    gamma: Fraction
    pi: Fraction
    identities_checked: int
    trials: int


def dp4_residue_check(data: DP4Data, trials: int = 20, seed: int = 0) -> ResidueReport:
    """Re-derive every residue vector by exact evaluation at random points.

    For each i and each finite spectrum value c, both partial derivatives of
    log(U_i - c) and of sum_j m_j log L_j are compared as exact fractions at
    `trials` random rational points off the arrangement.
    """
    rng = random.Random(seed)
    fx = [(_pdiff(f, 0), _pdiff(f, 1)) for f in data.factors]
    checked = 0
    for i, (num, den) in enumerate(data.integrals):
        dden = (_pdiff(den, 0), _pdiff(den, 1))
        for s, c in enumerate(data.spectra[i]):
            n_c = _pscale_sub(num, c, den)
            dnum = (_pdiff(n_c, 0), _pdiff(n_c, 1))
            m = data.residues[i][s]
            for _ in range(trials):
                xv, yv, lvals, nv, dv = _sample_point(rng, data, n_c, den)
                for var in range(2):
                    lhs = _peval(dnum[var], xv, yv) / nv - _peval(
                        dden[var], xv, yv
                    ) / dv
                    rhs = Fraction(0)
                    for j, mj in enumerate(m):
                        if mj:
                            rhs += mj * _peval(fx[j][var], xv, yv) / lvals[j]
                    if lhs != rhs:
                        raise ResidueMismatch(
                            f"dlog(U_{i + 1} - c) mismatch at spectrum slot {s + 1}"
                        )
            checked += 1
    return ResidueReport(data.gamma, data.pi, checked, trials)


def _sample_point(rng: random.Random, data: DP4Data, n_c: Poly, den: Poly):
    for _ in range(1000):
        xv = Fraction(rng.randrange(-40, 41), rng.randrange(1, 8))
        yv = Fraction(rng.randrange(-40, 41), rng.randrange(1, 8))
        lvals = [_peval(f, xv, yv) for f in data.factors]
        if any(v == 0 for v in lvals):
            continue
        nv = _peval(n_c, xv, yv)
        dv = _peval(den, xv, yv)
        if nv == 0 or dv == 0:
            continue
        return xv, yv, lvals, nv, dv
    raise InternalError("could not sample a point off the arrangement")


_PERMS3 = (
    ((0, 1, 2), 1),
    ((0, 2, 1), -1),
    ((1, 0, 2), -1),
    ((1, 2, 0), 1),
    ((2, 0, 1), 1),
    ((2, 1, 0), -1),
)


def asym3_residue_tensor(
    rows: Sequence[Sequence[int]],
) -> dict[tuple[int, int, int], Fraction]:
    """Asym^3(row_1 (x) row_2 (x) row_3) expanded over ordered h-triples."""
    nz = [[(j, v) for j, v in enumerate(row) if v] for row in rows]
    out: dict[tuple[int, int, int], Fraction] = {}
    for perm, sign in _PERMS3:
        coeff = Fraction(sign, 6)
        for (j1, v1), (j2, v2), (j3, v3) in itertools.product(
            nz[perm[0]], nz[perm[1]], nz[perm[2]]
        ):
            key = (j1, j2, j3)
            total = out.get(key, Fraction(0)) + coeff * v1 * v2 * v3
            if total:
                out[key] = total
            else:
                out.pop(key, None)
    return out


@dataclass(frozen=True)
class SymbolicReport:
    terms_per_integral: tuple[int, ...]
    ambient_dimension: int


def dp4_symbolic_identity(data: DP4Data) -> SymbolicReport:
    """Verify sum_i Asym^3(R_i1 (x) R_i2 (x) R_i3) = 0 exactly."""
    total: dict[tuple[int, int, int], Fraction] = {}
    sizes = []
    for rows in data.residues:
        tensor = asym3_residue_tensor(rows)
        sizes.append(len(tensor))
        for key, v in tensor.items():
            s = total.get(key, Fraction(0)) + v
            if s:
                total[key] = s
            else:
                total.pop(key, None)
    if total:
        raise SymbolicIdentityViolation(
            f"{len(total)} nonzero tensor entries remain"
        )
    return SymbolicReport(tuple(sizes), 1000)


def factor_classes() -> tuple[DivisorClass, ...]:
    """Divisor classes of the affine factors L_1..L_10, in order."""
    lat = DelPezzoLattice(5)
    h = lat.h
    e = [None] + [lat.exceptional(i) for i in range(1, 6)]
    return (
        h - e[2] - e[3],
        h - e[1] - e[3],
        h - e[1] - e[5],
        h - e[2] - e[4],
        h - e[2] - e[5],
        h - e[3] - e[4],
        h - e[1] - e[4],
        2 * h - e[1] - e[2] - e[3] - e[4] - e[5],
        h - e[4] - e[5],
        h - e[3] - e[5],
    )


@dataclass(frozen=True)
class AlignmentEntry:
    """Which conic a first integral cuts out, with fibers in spectrum order."""

    integral: int
    conic: int
    fiber_order: tuple[tuple[int, int], ...]  # fibers at 0, 1, r_i, infinity
    base: int  # position of the infinity fiber in fiber_order


def conic_alignment() -> tuple[AlignmentEntry, ...]:
    """Match each U_i to its conic class and order fibers by spectrum value.

    The positive support of each residue vector lists the affine curves in
    the fiber over that spectrum value; the (common) negative support lists
    the affine curves in the infinity fiber. A fiber component that is not
    an affine factor class must be an exceptional line or the line at
    infinity (those carry no affine residue), so the visible classes of each
    fiber must equal the support exactly. The resulting assignment must be
    uniquely consistent, and across the ten integrals it must exhaust the
    ten conic classes.
    """
    lt = enumerate_lines(5)
    conics = enumerate_conics(5, lt)
    lclasses = factor_classes()
    visible = set(lclasses)
    entries = []
    seen_conics = set()
    for i, rows in enumerate(RESIDUE_VECTORS):
        neg = {j for j, v in enumerate(rows[0]) if v < 0}
        for row in rows[1:]:
            if {j for j, v in enumerate(row) if v < 0} != neg:
                raise InternalError("pole support differs across spectrum slots")
        pole_classes = {lclasses[j] for j in neg}
        pos_classes = [
            {lclasses[j] for j, v in enumerate(row) if v > 0} for row in rows
        ]
        matches = []
        for k, f in enumerate(conics):
            fiber_vis = [
                {lt.lines[a], lt.lines[b]} & visible for a, b in f.fibers
            ]
            for assign in itertools.permutations(range(4)):
                slots = (*pos_classes, pole_classes)
                if all(slots[t] == fiber_vis[assign[t]] for t in range(4)):
                    matches.append((k, assign))
        if len(matches) != 1:
            raise InternalError(
                f"integral {i + 1} matched {len(matches)} fiber assignments"
            )
        k, assign = matches[0]
        seen_conics.add(k)
        fiber_order = tuple(conics[k].fibers[assign[t]] for t in range(4))
        entries.append(AlignmentEntry(i, k, fiber_order, 3))
    if len(seen_conics) != len(conics):
        raise InternalError("integrals do not exhaust the conic classes")
    return tuple(entries)
