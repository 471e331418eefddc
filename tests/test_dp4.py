"""Exact checks of the embedded ten-integral web data."""

import dataclasses
import itertools
import random
from fractions import Fraction

import pytest
import sympy

from dp_hlog import wedge_kernel
from dp_hlog.hyperlog import dp4
from dp_hlog.incidence import enumerate_conics, enumerate_lines


@pytest.fixture(scope="module")
def data():
    return dp4.dp4_data(Fraction(1, 3), Fraction(5, 2))


def _sympy_web(g, p):
    """Reference expansion: sympy's together/fraction/expand of the same table."""
    x, y = sympy.symbols("x y")
    gs = sympy.Rational(g.numerator, g.denominator)
    ps = sympy.Rational(p.numerator, p.denominator)

    def poly(expr):
        terms = sympy.Poly(sympy.expand(expr), x, y).terms()
        return {(int(i), int(j)): Fraction(c.p, c.q) for (i, j), c in terms}

    integrals = tuple(
        tuple(poly(e) for e in sympy.fraction(sympy.together(u)))
        for u in dp4._u_expressions(gs, ps, x, y)
    )
    factors = tuple(poly(e) for e in dp4._l_expressions(gs, ps, x, y))
    return integrals, factors


def _random_admissible_pairs(n, seed):
    rng = random.Random(seed)
    pairs = []
    while len(pairs) < n:
        g = Fraction(rng.randint(-30, 30), rng.randint(1, 12))
        p = Fraction(rng.randint(-30, 30), rng.randint(1, 12))
        if g * p * (g - 1) * (p - 1) * (p - g):
            pairs.append((g, p))
    return pairs


# The default pair; pairs where some integral's coefficient numerators share
# a factor, so clearing denominators alone misses sympy's form; random pairs.
ORACLE_PAIRS = [
    (Fraction(1, 3), Fraction(5, 2)),
    (Fraction(4), Fraction(2)),
    (Fraction(-5, 2), Fraction(15, 2)),
    (Fraction(29, 11), Fraction(-29, 9)),
    *_random_admissible_pairs(50, seed=2024),
]


@pytest.mark.parametrize("g, p", ORACLE_PAIRS)
def test_web_matches_sympy_expansion(g, p):
    data = dp4.dp4_data(g, p)
    integrals, factors = _sympy_web(g, p)
    assert data.integrals == integrals
    assert data.factors == factors


def test_embedded_residue_rows():
    assert dp4.RESIDUE_VECTORS[0][0] == (1, 0, 0, 0, 0, 0, 0, 0, 0, 0)
    assert dp4.RESIDUE_VECTORS[5][2] == (0, 0, -1, -1, 0, 0, 0, 1, 0, 0)
    assert dp4.RESIDUE_VECTORS[9][1] == (0, -1, 0, -1, 0, 1, 0, 0, 0, 0)


def test_spectra_formulas(data):
    g, p = data.gamma, data.pi
    r = [s[2] for s in data.spectra]
    assert r[0] == p
    assert r[1] == 1 / g
    assert r[5] == (g - p) / g
    assert r[7] == 1 - g
    assert r[9] == p * (g - 1) / (g * (p - 1))
    assert len(set(r)) == 10


def test_factor_degrees(data):
    degrees = [max(i + j for i, j in f) for f in data.factors]
    assert degrees == [1, 1, 1, 1, 1, 1, 1, 2, 1, 1]


@pytest.mark.parametrize(
    "g, p",
    [(0, 2), (1, 2), (2, 1), (3, 3), (2, 0)],
)
def test_genericity_rejected(g, p):
    with pytest.raises(ValueError):
        dp4.dp4_data(g, p)


def test_residue_check_passes(data):
    report = dp4.dp4_residue_check(data, trials=5, seed=7)
    assert report.identities_checked == 30
    assert report.trials == 5


def test_residue_check_other_parameters():
    other = dp4.dp4_data(Fraction(-3, 4), Fraction(9, 5))
    report = dp4.dp4_residue_check(other, trials=3, seed=2)
    assert report.identities_checked == 30


def test_residue_check_detects_tampering(data):
    rows = [list(map(list, triple)) for triple in data.residues]
    rows[3][1][6] = -rows[3][1][6]
    tampered = dataclasses.replace(
        data,
        residues=tuple(tuple(tuple(r) for r in triple) for triple in rows),
    )
    with pytest.raises(dp4.ResidueMismatch):
        dp4.dp4_residue_check(tampered, trials=3, seed=0)


def test_symbolic_identity_zero(data):
    report = dp4.dp4_symbolic_identity(data)
    assert len(report.terms_per_integral) == 10
    assert report.ambient_dimension == 1000


def test_single_tensor_nonzero(data):
    for rows in data.residues:
        assert dp4.asym3_residue_tensor(rows)


def test_symbolic_identity_sign_sensitive(data):
    rows = [list(map(list, triple)) for triple in data.residues]
    rows[0] = [[-v for v in row] for row in rows[0]]
    tampered = dataclasses.replace(
        data,
        residues=tuple(tuple(tuple(r) for r in triple) for triple in rows),
    )
    with pytest.raises(dp4.SymbolicIdentityViolation):
        dp4.dp4_symbolic_identity(tampered)


def test_symbolic_identity_needs_all_terms(data):
    dropped = dataclasses.replace(data, residues=data.residues[1:])
    with pytest.raises(dp4.SymbolicIdentityViolation):
        dp4.dp4_symbolic_identity(dropped)


def test_relabeling_equivariance(data):
    # Permuting the h-basis indices permutes tensor keys; the sum of the
    # relabeled tensors must still vanish coordinate by coordinate.
    perm = (3, 1, 4, 0, 9, 2, 6, 8, 7, 5)
    total = {}
    for rows in data.residues:
        for key, v in dp4.asym3_residue_tensor(rows).items():
            new = tuple(perm[j] for j in key)
            total[new] = total.get(new, Fraction(0)) + v
    assert not any(total.values())


def test_alignment_is_bijective():
    align = dp4.conic_alignment()
    assert len(align) == 10
    assert sorted(e.conic for e in align) == list(range(10))
    assert [e.integral for e in align] == list(range(10))
    assert all(e.base == 3 for e in align)


def test_alignment_orders_are_fiber_permutations():
    lt = enumerate_lines(5)
    conics = enumerate_conics(5, lt)
    for e in dp4.conic_alignment():
        assert sorted(e.fiber_order) == sorted(conics[e.conic].fibers)


def test_alignment_base_fiber_matches_poles():
    lt = enumerate_lines(5)
    lclasses = dp4.factor_classes()
    visible = set(lclasses)
    for e in dp4.conic_alignment():
        rows = dp4.RESIDUE_VECTORS[e.integral]
        pole = {lclasses[j] for j, v in enumerate(rows[0]) if v < 0}
        a, b = e.fiber_order[e.base]
        assert {lt.lines[a], lt.lines[b]} & visible == pole


def test_aligned_kernel_signs_all_plus():
    align = dp4.conic_alignment()
    fiber_orders = [None] * len(align)
    bases = [None] * len(align)
    for e in align:
        fiber_orders[e.conic] = e.fiber_order
        bases[e.conic] = e.base
    cert = wedge_kernel.kernel_signs(5, fiber_orders=fiber_orders, bases=bases)
    assert cert.kernel_dimension == 1
    assert [cert.epsilon[e.conic] for e in align] == [1] * 10


def test_poly_eval_and_diff(data):
    num, den = data.integrals[7]
    xv, yv = Fraction(3, 2), Fraction(-1, 3)
    g, p = data.gamma, data.pi
    expected = (-xv * (xv * (g - 1) + (1 - yv) * p - g + yv)) / (
        (xv - yv) * (xv - p)
    )
    assert dp4._peval(num, xv, yv) / dp4._peval(den, xv, yv) == expected
    d = dp4._pdiff(data.factors[7], 0)
    # d/dx of the conic factor: gamma*(pi + y - 1) - pi*y.
    assert dp4._peval(d, xv, yv) == g * (p + yv - 1) - p * yv
