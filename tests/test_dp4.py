"""Exact checks of the derived ten-integral web against hand-written tables.

The tables below (the integrals U_i, the affine factors L_j with their line
classes, the spectra and the residue rows) are the web as written down by
hand. The package derives the same web from a point configuration and a
fiber spec; these tests are the independent oracle for that derivation.
"""

import functools
import itertools
import math
import random
from fractions import Fraction

import pytest
import sympy

from dp_hlog import wedge_kernel
from dp_hlog.errors import InternalError
from dp_hlog.hyperlog import dp4
from dp_hlog.incidence import enumerate_conics, enumerate_lines
from dp_hlog.lattice import exceptional, hyperplane

from oracles import asym_residue_tensor, combine


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


def _r_values(g, p) -> tuple:
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


def _hv(entries):
    """A vector over L_1..L_10 from 1-based index -> coefficient."""
    return tuple(entries.get(j, 0) for j in range(1, 11))


# d log(U_i - c) over d log L_1 .. d log L_10 for c = 0, 1, r_i.
RESIDUE_VECTORS = (
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


def _factor_classes():
    """Divisor classes of the affine factors L_1..L_10, in order."""
    h = hyperplane(5)
    e = [None] + [exceptional(5, i) for i in range(1, 6)]

    def line(i: int, j: int) -> tuple[int, ...]:
        return combine(h, e[i], e[j], by=(1, -1, -1))

    return (
        line(2, 3),
        line(1, 3),
        line(1, 5),
        line(2, 4),
        line(2, 5),
        line(3, 4),
        line(1, 4),
        combine(h, *e[1:], by=(2, -1, -1, -1, -1, -1)),
        line(4, 5),
        line(3, 5),
    )


FACTOR_CLASSES = _factor_classes()


def _alignment_oracle():
    """Match each U_i to its conic by the supports of its residue rows.

    The positive support of each residue row lists the affine curves in the
    fiber over that spectrum value; the (common) negative support lists the
    affine curves in the infinity fiber. A fiber component that is not an
    affine factor class is an exceptional line or the line at infinity, so
    the visible classes of each fiber must equal the support exactly. The
    assignment must be unique, and across the ten integrals it must exhaust
    the ten conic classes.
    """
    lt = enumerate_lines(5)
    conics = enumerate_conics(5)
    visible = set(FACTOR_CLASSES)
    entries = []
    for i, rows in enumerate(RESIDUE_VECTORS):
        neg = {j for j, v in enumerate(rows[0]) if v < 0}
        assert all({j for j, v in enumerate(row) if v < 0} == neg for row in rows)
        slots = [
            {FACTOR_CLASSES[j] for j, v in enumerate(row) if v > 0} for row in rows
        ] + [{FACTOR_CLASSES[j] for j in neg}]
        matches = []
        for k, f in enumerate(conics):
            seen = [{lt.lines[a], lt.lines[b]} & visible for a, b in f.fibers]
            for assign in itertools.permutations(range(4)):
                if all(slots[t] == seen[assign[t]] for t in range(4)):
                    matches.append((k, tuple(f.fibers[a] for a in assign)))
        assert len(matches) == 1, f"integral {i + 1}: {len(matches)} assignments"
        k, order = matches[0]
        entries.append(dp4.AlignmentEntry(k, order))
    assert sorted(e.conic for e in entries) == list(range(len(conics)))
    return tuple(entries)


@pytest.fixture(scope="module")
def data():
    return dp4.dp4_data(Fraction(1, 3), Fraction(5, 2))


def _by_class(classes, row):
    return {c: v for c, v in zip(classes, row) if v}


def _primitive(poly):
    """poly over its rational content, its lowest monomial made positive."""
    content = Fraction(
        math.gcd(*(c.numerator for c in poly.values())),
        math.lcm(*(c.denominator for c in poly.values())),
    )
    if poly[min(poly)] < 0:
        content = -content
    return {k: c / content for k, c in poly.items()}


def _sympy_web(g, p):
    """Reference expansion: sympy's together/fraction/expand of the tables,
    numerator and denominator negated together when the denominator's lowest
    monomial is negative; factors as primitive polynomials, by class."""
    x, y = sympy.symbols("x y")
    gs = sympy.Rational(g.numerator, g.denominator)
    ps = sympy.Rational(p.numerator, p.denominator)

    def poly(expr):
        terms = sympy.Poly(sympy.expand(expr), x, y).terms()
        return {(int(i), int(j)): Fraction(c.p, c.q) for (i, j), c in terms}

    integrals = []
    for u in _u_expressions(gs, ps, x, y):
        num, den = (poly(e) for e in sympy.fraction(sympy.together(u)))
        if den[min(den)] < 0:
            num, den = {k: -c for k, c in num.items()}, {k: -c for k, c in den.items()}
        integrals.append((num, den))
    factors = {
        c: _primitive(poly(e))
        for c, e in zip(FACTOR_CLASSES, _l_expressions(gs, ps, x, y))
    }
    return tuple(integrals), factors


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
    assert dict(zip(data.lines, data.factors)) == factors
    assert data.spectra == tuple((0, 1, r) for r in _r_values(g, p))
    for derived, rows in zip(data.residues, RESIDUE_VECTORS):
        assert [_by_class(data.lines, row) for row in derived] == [
            _by_class(FACTOR_CLASSES, row) for row in rows
        ]


def test_embedded_residue_rows(data):
    def row(i, s):
        return _by_class(data.lines, data.residues[i][s])

    def hand(entries):
        return {FACTOR_CLASSES[j - 1]: v for j, v in entries.items()}

    assert row(0, 0) == hand({1: 1})
    assert row(5, 2) == hand({3: -1, 4: -1, 8: 1})
    assert row(9, 1) == hand({2: -1, 4: -1, 6: 1})


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
    degrees = {c: max(i + j for i, j in f) for c, f in zip(data.lines, data.factors)}
    assert [degrees[c] for c in FACTOR_CLASSES] == [1, 1, 1, 1, 1, 1, 1, 2, 1, 1]
    assert all(degrees[c] == c[0] for c in data.lines)


@pytest.mark.parametrize(
    "g, p",
    [(0, 2), (1, 2), (2, 1), (3, 3), (2, 0)],
)
def test_genericity_rejected(g, p):
    with pytest.raises(ValueError):
        dp4.dp4_data(g, p)


def test_a_missing_parameter_takes_its_default(data):
    g, p = Fraction(-3, 4), Fraction(9, 5)
    assert dp4.dp4_data() == data
    assert dp4.dp4_data(gamma=g) == dp4.dp4_data(g, Fraction(5, 2))
    assert dp4.dp4_data(pi=p) == dp4.dp4_data(Fraction(1, 3), p)


def test_residue_check_passes(data):
    assert dp4.dp4_residue_check(data) == 30


def test_residue_check_other_parameters():
    other = dp4.dp4_data(Fraction(-3, 4), Fraction(9, 5))
    assert dp4.dp4_residue_check(other) == 30


def test_residue_check_rank_four():
    web = dp4.five_term_web()
    assert dp4.dp4_residue_check(web) == 10
    rows = [list(map(list, pair)) for pair in web.residues]
    rows[2][1] = [-v for v in rows[2][1]]
    tampered = web._replace(
        residues=tuple(tuple(tuple(r) for r in pair) for pair in rows)
    )
    with pytest.raises(dp4.ResidueMismatch):
        dp4.dp4_residue_check(tampered)


def test_residue_check_detects_tampering(data):
    rows = [list(map(list, triple)) for triple in data.residues]
    j = data.lines.index(FACTOR_CLASSES[6])  # L_7, in the row at U_4 = 1
    rows[3][1][j] = -rows[3][1][j]
    tampered = data._replace(
        residues=tuple(tuple(tuple(r) for r in triple) for triple in rows),
    )
    with pytest.raises(dp4.ResidueMismatch):
        dp4.dp4_residue_check(tampered)


def _extra_row(data):
    residues = list(data.residues)
    residues[0] += (residues[0][0],)
    return data._replace(residues=tuple(residues))


def _missing_row(data):
    residues = list(data.residues)
    residues[0] = residues[0][:-1]
    return data._replace(residues=tuple(residues))


def _extra_entry(data):
    residues = list(data.residues)
    residues[0] = (residues[0][0] + (0,), *residues[0][1:])
    return data._replace(residues=tuple(residues))


def _missing_table(data):
    return data._replace(residues=data.residues[:-1])


@pytest.mark.parametrize(
    "reshape", [_extra_row, _missing_row, _extra_entry, _missing_table]
)
def test_residue_check_refuses_a_table_of_the_wrong_shape(data, reshape):
    with pytest.raises(dp4.ResidueMismatch, match="lengths differ"):
        dp4.dp4_residue_check(reshape(data))


def _single_integrals(web):
    """Each integral of the web alone, as a web of one integral."""
    for i in range(len(web.integrals)):
        yield web._replace(
            integrals=web.integrals[i : i + 1],
            spectra=web.spectra[i : i + 1],
            residues=web.residues[i : i + 1],
        )


def _tampered_single_integrals(web):
    """Every one-integral web with one residue entry moved by +-1, one
    spectrum value moved, or one numerator coefficient moved."""
    for one in _single_integrals(web):
        (num, den), values, rows = one.integrals[0], one.spectra[0], one.residues[0]
        for s, row in enumerate(rows):
            for j, dv in itertools.product(range(len(row)), (1, -1)):
                bumped = row[:j] + (row[j] + dv,) + row[j + 1 :]
                yield one._replace(residues=(rows[:s] + (bumped,) + rows[s + 1 :],))
            moved = values[:s] + (values[s] + Fraction(1, 7),) + values[s + 1 :]
            yield one._replace(spectra=(moved,))
        for key in num:
            yield one._replace(integrals=(({**num, key: num[key] + 1}, den),))


@pytest.mark.parametrize("web", [dp4.five_term_web, dp4.dp4_data])
def test_residue_check_catches_every_one_entry_change(web):
    web = web()
    rows = sum(map(len, web.residues))
    assert sum(map(dp4.dp4_residue_check, _single_integrals(web))) == rows
    cases = 0
    for tampered in _tampered_single_integrals(web):
        with pytest.raises(dp4.ResidueMismatch):
            dp4.dp4_residue_check(tampered)
        cases += 1
    terms = sum(len(num) for num, _ in web.integrals)
    assert cases == rows * (2 * len(web.factors) + 1) + terms


def test_symbolic_identity_zero(data):
    report = dp4.dp4_symbolic_identity(data)
    assert len(report.terms_per_integral) == 10
    assert report.ambient_dimension == 1000


def test_single_tensor_nonzero(data):
    for rows in data.residues:
        assert asym_residue_tensor(rows)


# The six signed permutations of three tensor slots, written out.
_PERMS3 = (
    ((0, 1, 2), 1),
    ((0, 2, 1), -1),
    ((1, 0, 2), -1),
    ((1, 2, 0), 1),
    ((2, 0, 1), 1),
    ((2, 1, 0), -1),
)


def test_weight_three_tensor_matches_written_out_permutations(data):
    for rows in data.residues:
        expected = {}
        for perm, sign in _PERMS3:
            for j1, j2, j3 in itertools.product(range(len(rows[0])), repeat=3):
                v = rows[perm[0]][j1] * rows[perm[1]][j2] * rows[perm[2]][j3]
                expected[j1, j2, j3] = expected.get((j1, j2, j3), 0) + Fraction(sign * v, 6)
        assert asym_residue_tensor(rows) == {k: v for k, v in expected.items() if v}


def test_five_term_symbolic_identity_needs_the_kernel_signs(monkeypatch):
    # At weight 2 the aligned signs are (-1, 1, 1, -1, -1); summed without
    # them, 8 tensor entries remain. Flipping any one fails both routes.
    web = _symbolic_web("five_term")
    report = dp4.dp4_symbolic_identity(web)
    assert report.terms_per_integral == (2, 2, 6, 6, 16)
    assert report.ambient_dimension == 25
    assert dp4.aligned_signs(4, web.alignment) == (-1, 1, 1, -1, -1)
    for k in range(5):
        _flip_fails_both_routes("five_term", k, monkeypatch)
        monkeypatch.undo()


def test_symbolic_identity_sign_sensitive(data):
    rows = [list(map(list, triple)) for triple in data.residues]
    rows[0] = [[-v for v in row] for row in rows[0]]
    tampered = data._replace(
        residues=tuple(tuple(tuple(r) for r in triple) for triple in rows),
    )
    with pytest.raises(dp4.SymbolicIdentityViolation):
        dp4.dp4_symbolic_identity(tampered)


def test_symbolic_identity_needs_all_terms(data):
    # Each integral dropped by zeroing its residue rows: every table keeps
    # its shape, so the wedge sum itself must be left with entries.
    for i, rows in enumerate(data.residues):
        zeroed = tuple(tuple(0 for _ in row) for row in rows)
        dropped = data._replace(residues=data.residues[:i] + (zeroed,) + data.residues[i + 1 :])
        with pytest.raises(dp4.SymbolicIdentityViolation, match="nonzero wedge entries remain"):
            dp4.dp4_symbolic_identity(dropped)


def test_relabeling_equivariance(data):
    # Permuting the h-basis indices permutes tensor keys; the sum of the
    # relabeled tensors must still vanish coordinate by coordinate.
    perm = (3, 1, 4, 0, 9, 2, 6, 8, 7, 5)
    total = {}
    for rows in data.residues:
        for key, v in asym_residue_tensor(rows).items():
            new = tuple(perm[j] for j in key)
            total[new] = total.get(new, Fraction(0)) + v
    assert not any(total.values())


def _spec_name(d):
    """A class in the notation of a fiber spec, say '2h-l1-l2' or 'l3'."""
    terms = (
        ("-" if c < 0 else "+") + (str(abs(c)) if abs(c) != 1 else "") + (f"l{i}" if i else "h")
        for i, c in enumerate(d)
        if c
    )
    return "".join(terms).lstrip("+")


# Six points in general position; the first two put the line through them
# at infinity.
SIX_POINTS = (
    (1, 0, 0),
    (0, 1, 0),
    (0, 0, 1),
    (1, 1, 1),
    (Fraction(5, 2), Fraction(1, 3), 1),
    (Fraction(-2, 3), Fraction(7, 4), 1),
)


def _six_point_web():
    """The weight-4 web of the cubic surface: every conic of X_6 in canonical
    order, its fibers in stored order, the last at infinity."""
    lines = enumerate_lines(6).lines
    spec = [
        (_spec_name(f.cls), tuple(_spec_name(lines[a]) for a, _ in f.fibers))
        for f in enumerate_conics(6)
    ]
    return dp4.conic_web(SIX_POINTS, spec)


SYMBOLIC_WEBS = {
    "five_term": dp4.five_term_web,
    "ten_term": dp4.dp4_data,
    "ten_term_other": lambda: dp4.dp4_data(Fraction(-3, 4), Fraction(9, 5)),
    "six_point": _six_point_web,
}


@functools.cache
def _symbolic_web(name):
    return SYMBOLIC_WEBS[name]()


@functools.cache
def _oracle_tensors(name):
    return tuple(asym_residue_tensor(rows) for rows in _symbolic_web(name).residues)


def _asym_sum(tensors, signs):
    """The nonzero entries of sum_i signs_i tensors_i."""
    total = {}
    for eps, tensor in zip(signs, tensors, strict=True):
        for key, v in tensor.items():
            total[key] = total.get(key, 0) + eps * v
    return {key: v for key, v in total.items() if v}


@pytest.mark.parametrize("name", SYMBOLIC_WEBS)
def test_wedge_agrees_with_the_asym_oracle(name):
    web = _symbolic_web(name)
    r = len(web.lines[0]) - 1
    norm = math.factorial(r - 2)
    report = dp4.dp4_symbolic_identity(web)
    tensors = _oracle_tensors(name)
    for rows, tensor, terms in zip(web.residues, tensors, report.terms_per_integral, strict=True):
        wedge = wedge_kernel.iterated_wedge(
            [(j, v) for j, v in enumerate(row) if v] for row in rows
        )
        for key, v in wedge.entries.items():
            columns = tuple(j for j in range(key.bit_length()) if key >> j & 1)
            assert v == norm * tensor[columns]
        assert len(tensor) == norm * len(wedge) == terms
    assert not _asym_sum(tensors, dp4.aligned_signs(r, web.alignment))


def _flip_fails_both_routes(name, k, monkeypatch):
    """Flipping the k-th aligned sign leaves entries in both sums."""
    web = _symbolic_web(name)
    signs = dp4.aligned_signs(len(web.lines[0]) - 1, web.alignment)
    flipped = signs[:k] + (-signs[k],) + signs[k + 1 :]
    monkeypatch.setattr(dp4, "aligned_signs", lambda r, alignment: flipped)
    with pytest.raises(dp4.SymbolicIdentityViolation):
        dp4.dp4_symbolic_identity(web)
    assert _asym_sum(_oracle_tensors(name), flipped)


def test_every_rank_five_sign_flip_fails_both_routes(monkeypatch):
    for k in range(10):
        _flip_fails_both_routes("ten_term", k, monkeypatch)
        monkeypatch.undo()


def test_six_point_web_weight_four_identity(monkeypatch):
    web = _symbolic_web("six_point")
    assert (len(web.integrals), len(web.factors)) == (27, 20)
    assert dp4.dp4_residue_check(web) == 108
    report = dp4.dp4_symbolic_identity(web)
    assert report.terms_per_integral == tuple(map(len, _oracle_tensors("six_point")))
    assert report.ambient_dimension == 20**4
    _flip_fails_both_routes("six_point", 0, monkeypatch)


def test_alignment_is_bijective(data):
    align = data.alignment
    assert len(align) == 10
    assert sorted(e.conic for e in align) == list(range(10))


def test_alignment_matches_residue_support_oracle(data):
    assert data.alignment == _alignment_oracle()


def test_alignment_orders_are_fiber_permutations(data):
    conics = enumerate_conics(5)
    for e in data.alignment:
        assert sorted(e.fiber_order) == sorted(conics[e.conic].fibers)


def test_alignment_base_fiber_matches_poles(data):
    lt = enumerate_lines(5)
    visible = set(FACTOR_CLASSES)
    for e, rows in zip(data.alignment, RESIDUE_VECTORS):
        pole = {FACTOR_CLASSES[j] for j, v in enumerate(rows[0]) if v < 0}
        a, b = e.fiber_order[-1]
        assert {lt.lines[a], lt.lines[b]} & visible == pole


def test_aligned_kernel_signs_all_plus(data):
    align = data.alignment
    fiber_orders = [None] * len(align)
    for e in align:
        fiber_orders[e.conic] = e.fiber_order
    # The infinity fiber, last in each order, is the base.
    epsilon = wedge_kernel.kernel_epsilon(enumerate_conics(5), fiber_orders, [3] * 10, False)
    assert [epsilon[e.conic] for e in align] == [1] * 10


def _peval(p, xv, yv):
    return sum(c * xv**i * yv**j for (i, j), c in p.items())


def test_poly_eval_and_diff(data):
    num, den = data.integrals[7]
    xv, yv = Fraction(3, 2), Fraction(-1, 3)
    g, p = data.gamma, data.pi
    expected = (-xv * (xv * (g - 1) + (1 - yv) * p - g + yv)) / (
        (xv - yv) * (xv - p)
    )
    assert _peval(num, xv, yv) / _peval(den, xv, yv) == expected
    # The conic factor is a rational multiple of L_8, whose x-derivative is
    # gamma*(pi + y - 1) - pi*y.
    conic = dict(zip(data.lines, data.factors))[FACTOR_CLASSES[7]]
    l8 = _l_expressions(g, p, xv, yv)[7]
    d = dp4._pdiff(conic, 0)
    assert _peval(d, xv, yv) * l8 == (g * (p + yv - 1) - p * yv) * _peval(
        conic, xv, yv
    )


def _ten_term_points(g, p):
    return ((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1), (p, g, 1))


def _with_row(row, new):
    spec = list(dp4.TEN_TERM_SPEC)
    spec[row] = new
    return spec


def test_spec_line_outside_the_conic_fails():
    # h - l1 - l2 lies in no fiber of the pencil of lines through p_5.
    conic, slots = dp4.TEN_TERM_SPEC[4]
    spec = _with_row(4, (conic, ("h-l1-l2", *slots[1:])))
    with pytest.raises(InternalError, match="in no fiber"):
        dp4.conic_web(_ten_term_points(Fraction(1, 3), Fraction(5, 2)), spec)


def test_spec_naming_one_fiber_twice_fails():
    # h - l2 - l5 and l2 are the two lines of one fiber of h - l5.
    conic, slots = dp4.TEN_TERM_SPEC[4]
    assert slots[0] == "h-l2-l5"
    spec = _with_row(4, (conic, (slots[0], "l2", *slots[2:])))
    with pytest.raises(InternalError, match="each of the 4 fibers once"):
        dp4.conic_web(_ten_term_points(Fraction(1, 3), Fraction(5, 2)), spec)


def test_spec_rows_must_exhaust_the_conics():
    spec = _with_row(1, dp4.TEN_TERM_SPEC[0])
    with pytest.raises(InternalError, match="exhaust"):
        dp4.conic_web(_ten_term_points(Fraction(1, 3), Fraction(5, 2)), spec)
    with pytest.raises(InternalError, match="exhaust"):
        dp4.conic_web(dp4.FIVE_TERM_POINTS, dp4.FIVE_TERM_SPEC[:-1])


def test_coincident_points_fail_the_nullspace():
    # With p_5 = p_3, the lines through both points form a pencil.
    points = _ten_term_points(Fraction(0), Fraction(0))
    with pytest.raises(InternalError, match="nullspace of dimension 2"):
        dp4.conic_web(points, dp4.TEN_TERM_SPEC)
