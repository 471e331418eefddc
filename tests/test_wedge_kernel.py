"""Wedge construction and the one-dimensional +-1 kernel."""

import json
from functools import reduce
from math import comb
from operator import or_

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dp_hlog import wedge_kernel as wk
from dp_hlog.errors import InternalError
from dp_hlog.incidence import ConicFibration, UnsupportedRank, enumerate_conics, enumerate_lines
from dp_hlog.lattice import exceptional


def _minor(rows, cols):
    if len(cols) == 1:
        return rows[0][cols[0]]
    total = 0
    for p, c in enumerate(cols):
        sign = -1 if p & 1 else 1
        total += sign * rows[0][c] * _minor(rows[1:], cols[:p] + cols[p + 1 :])
    return total


def test_fiber_differences_shape_and_row_sums():
    for r in (4, 7):
        conics = enumerate_conics(r)
        m = wk.fiber_differences(conics[0], r - 2)
        assert len(m.rows) == r - 2
        assert len(m.support) == 2 * (r - 1)
        for row in m.rows:
            assert sum(row) == 0
            assert sorted(v for v in row if v) == [-1, -1, 1, 1]


def test_fiber_differences_bad_base():
    f = enumerate_conics(4)[0]
    for route in (wk.fiber_differences, wk.wedge_vector):
        for base in (3, -1):
            with pytest.raises(IndexError):
                route(f, base)


def _columns(key):
    return [c for c in range(key.bit_length()) if key >> c & 1]


def test_wedge_vector_entries_are_minors():
    for r in (4, 5):
        f = enumerate_conics(r)[0]
        m = wk.fiber_differences(f, r - 2)
        w = wk.iterated_wedge(m)
        assert len(w) == len(w.entries) <= comb(2 * (r - 1), r - 2)
        for key, val in w.entries.items():
            cols = _columns(key)
            assert len(cols) == r - 2
            assert val == _minor(m.rows, cols)
            assert val != 0
        # A tuple off the support must be absent.
        outside = (1 << (r - 2)) - 1
        if not set(_columns(outside)) <= set(m.support):
            assert outside not in w.entries


@settings(derandomize=True, deadline=None)
@given(st.integers(4, 7), st.data())
def test_wedge_vector_degenerate_and_antisymmetric(r, data):
    # Any conic, base fiber and pair of rows: swapping the two rows negates
    # every entry, and a repeated row leaves the empty wedge.
    f = data.draw(st.sampled_from(enumerate_conics(r)))
    m = wk.fiber_differences(f, data.draw(st.integers(0, r - 2)))
    i, j = data.draw(st.lists(st.integers(0, r - 3), min_size=2, max_size=2, unique=True))
    rows = list(m.rows)
    rows[i], rows[j] = rows[j], rows[i]
    w = wk.iterated_wedge(m)
    ws = wk.iterated_wedge(wk.FiberDifferenceMatrix(tuple(rows), m.support))
    assert w.entries
    assert ws.entries == {cols: -val for cols, val in w.entries.items()}
    rows[i] = rows[j]
    repeated = wk.FiberDifferenceMatrix(tuple(rows), m.support)
    assert wk.iterated_wedge(repeated).entries == {}


@settings(derandomize=True, deadline=None, max_examples=60)
@given(st.integers(4, 7), st.data())
def test_closed_form_equals_iterated_wedge_and_minors(r, data):
    # A random conic, fiber order and base, with and without the quotient.
    f = data.draw(st.sampled_from(enumerate_conics(r)))
    f = ConicFibration(f.cls, tuple(data.draw(st.permutations(f.fibers))))
    base = data.draw(st.integers(0, r - 2))
    drop = sum(1 << k for k in enumerate_lines(r).exceptional) if data.draw(st.booleans()) else 0
    w = wk.wedge_vector(f, base, drop=drop)
    m = wk.fiber_differences(f, base)
    assert w.entries == wk.iterated_wedge(m, drop).entries
    if not drop:
        assert len(w) == (r - 1) * 2 ** (r - 2)
    for key, val in w.entries.items():
        assert not key & drop
        assert val == _minor(m.rows, _columns(key)) in (1, -1)


@pytest.mark.parametrize("r", range(3, 9))
def test_line_table_locates_the_exceptional_lines(r):
    # lt.exceptional[i - 1] indexes l_i, and the quotient drops exactly
    # those lines: the mask is the OR of their bits.
    lt = enumerate_lines(r)
    ls = [exceptional(r, i) for i in range(1, r + 1)]
    assert [lt.lines[k] for k in lt.exceptional] == ls
    conic = enumerate_conics(r)[:1]
    masks = [
        list(wk._wedges(lambda f, base, drop: drop, conic, [conic[0].fibers], [0], q))
        for q in (False, True)
    ]
    assert masks == [[0], [reduce(or_, (1 << lt.index[l] for l in ls))]]


def _ordering_cases():
    for r in (4, 5, 6, 7):
        for seed in (None, 0, 1, 2, 3):
            for quotient in (False, True):
                yield r, seed, quotient
    yield 8, None, False


@pytest.mark.parametrize("r, seed, quotient", list(_ordering_cases()))
def test_closed_form_matches_iterated_wedge(r, seed, quotient):
    # Entry for entry, on the orderings the certificates store. Every key is
    # an (r - 2)-subset of its conic's 2(r - 1) fiber lines, so no wedge has
    # more than C(2(r - 1), r - 2) entries.
    cert = wk.kernel_signs(r, seed=seed, quotient=quotient)
    conics = enumerate_conics(r)
    args = (conics, cert.fiber_orders, cert.bases, quotient)
    closed = wk._wedges(wk.wedge_vector, *args)
    iterated = wk._wedges(wk._replayed_wedge, *args)
    for f, a, b in zip(conics, closed, iterated, strict=True):
        assert a.entries == b.entries
        lines = sum(1 << c for pair in f.fibers for c in pair)
        assert all(key.bit_count() == r - 2 and not key & ~lines for key in a.entries)


def test_kernel_signs_small_ranks():
    for r, kappa in ((4, 5), (5, 10), (6, 27)):
        cert = wk.kernel_signs(r)
        assert cert.kernel_dimension == 1
        assert len(cert.epsilon) == kappa
        assert all(e in (1, -1) for e in cert.epsilon)
        assert cert.epsilon[0] == 1
        wk.replay(cert)


def test_kernel_signs_rejections():
    for r in (2, 3, 9):
        with pytest.raises(UnsupportedRank, match=r"4\.\.8, got"):
            wk.kernel_signs(r)


def test_kernel_signs_randomized_orderings_stay_valid():
    base = wk.kernel_signs(5)
    for seed in (1, 2, 3):
        cert = wk.kernel_signs(5, seed=seed)
        assert cert.kernel_dimension == 1
        assert all(e in (1, -1) for e in cert.epsilon)
        wk.replay(cert)
    # Same seed, same certificate, byte-identical serialization.
    again = wk.kernel_signs(5, seed=2)
    assert json.dumps(again.to_json(), sort_keys=True) == json.dumps(
        wk.kernel_signs(5, seed=2).to_json(), sort_keys=True
    )
    assert base.content_hash != again.content_hash


def test_kernel_epsilon_explicit_orderings():
    conics = enumerate_conics(5)
    orders = tuple(tuple(reversed(f.fibers)) for f in conics)
    bases = (0,) * len(conics)
    epsilon = wk.kernel_epsilon(conics, orders, bases, False)
    assert all(e in (1, -1) for e in epsilon)
    # The reversed-order, base-0 certificate replays.
    cert = wk.HlogCertificate(
        r=5,
        conics=tuple(f.cls for f in conics),
        fiber_orders=orders,
        bases=bases,
        epsilon=epsilon,
        kernel_dimension=1,
        quotient=False,
        content_hash="",
    )
    wk.replay(cert._replace(content_hash=wk._content_hash(cert.payload())))
    fibers = [f.fibers for f in conics]
    bad = [fibers[0][:-1] + ((0, 1),)] + fibers[1:]
    with pytest.raises(ValueError, match="permute"):
        wk.kernel_epsilon(conics, bad, [3] * 10, False)
    # r = 5 conics have 4 fibers, so base 4 indexes none.
    with pytest.raises(ValueError, match="out of range"):
        wk.kernel_epsilon(conics, fibers, [0] * 9 + [4], False)


def test_kernel_epsilon_requires_one_ordering_per_conic():
    # r = 5 has 10 conics; a certificate with 11 entries would fail its own
    # replay, and 9 bases would leave a conic without one.
    conics = enumerate_conics(5)
    fibers = [f.fibers for f in conics]
    for orders, bases in (
        (fibers, [3] * 9),
        (fibers, [3] * 11),
        (fibers, [3] * 10 + [99]),
        (fibers + fibers[:1], [3] * 10),
    ):
        with pytest.raises(ValueError, match="one base per conic"):
            wk.kernel_epsilon(conics, orders, bases, False)


def test_kernel_epsilon_is_the_certificate_vector():
    # The hash-free solve gives the certificate's signs.
    for r, seed, quotient in ((4, 0, False), (5, 1, True), (6, 2, False)):
        cert = wk.kernel_signs(r, seed=seed, quotient=quotient)
        epsilon = wk.kernel_epsilon(enumerate_conics(r), cert.fiber_orders, cert.bases, quotient)
        assert epsilon == cert.epsilon


def test_quotient_matches_unreduced():
    for r in (4, 5, 6):
        assert wk.kernel_signs(r, quotient=True).epsilon == wk.kernel_signs(r).epsilon


def test_certificate_roundtrip_and_replay_failures():
    cert = wk.kernel_signs(4)
    data = json.loads(json.dumps(cert.to_json()))
    back = wk.HlogCertificate.from_json(data)
    assert back == cert
    assert back.to_json() == data
    assert back.content_hash == wk._content_hash(back.payload())
    wk.replay(back)

    tampered = dict(data)
    tampered["epsilon"] = [-e for e in data["epsilon"]]
    with pytest.raises(wk.ReplayFailure):
        wk.replay(wk.HlogCertificate.from_json(tampered))

    # Recompute the hash after a single sign flip so replay reaches the
    # actual sum re-verification rather than stopping at the hash check.
    flipped = json.loads(json.dumps(data))
    flipped["epsilon"] = list(data["epsilon"])
    flipped["epsilon"][1] = -flipped["epsilon"][1]
    cert2 = wk.HlogCertificate.from_json(flipped)
    cert2 = wk.HlogCertificate.from_json(
        {**cert2.payload(), "content_hash": wk._content_hash(cert2.payload())}
    )
    with pytest.raises(wk.ReplayFailure, match="annihilate"):
        wk.replay(cert2)

    with pytest.raises(ValueError):
        wk.HlogCertificate.from_json({"r": 4})


def test_replay_rejects_hash_mismatch():
    cert = wk.kernel_signs(4)
    data = cert.to_json()
    data["bases"] = list(data["bases"])
    data["bases"][0] = (data["bases"][0] + 1) % 3
    with pytest.raises(wk.ReplayFailure):
        wk.replay(wk.HlogCertificate.from_json(data))


def test_base_choice_flips_are_absorbed():
    # Base and fiber-order changes perturb each wedge by +-1 only, so the
    # kernel stays one-dimensional with +-1 entries whatever we choose.
    conics = enumerate_conics(4)
    fibers = [f.fibers for f in conics]
    for base in (0, 1, 2):
        epsilon = wk.kernel_epsilon(conics, fibers, [base] * len(conics), False)
        assert all(e in (1, -1) for e in epsilon)


def _graph(*entries):
    return wk._signed_graph(wk.WedgeVector(dict(e)) for e in entries)


def _kernel(*entries):
    return wk._signed_graph_kernel(*_graph(*entries))


# Three conics pairwise joined by a -1 edge: a cycle of sign -1.
_UNBALANCED_TRIANGLE = ({1: 1, 4: 1}, {1: 1, 2: 1}, {2: 1, 4: 1})


def test_signed_graph_kernel_solves_balanced_graph():
    # Edge signs are -v_a v_b: two parallel edges give conic 1 the opposite
    # sign of conic 0, and conic 2 follows conic 1 with the same sign.
    n, edges = _graph({1: 1, 32: 1}, {1: 1, 2: 1, 32: 1}, {2: -1})
    assert n == 3 and list(edges) == [0, 1, -1, 0, 1, -1, 1, 2, 1]
    assert wk._signed_graph_kernel(n, edges) == (1, -1, -1)
    wk._check_annihilation(edges, (1, -1, -1))
    wk._check_annihilation(edges, (-1, 1, 1))
    for wrong in ((1, 1, 1), (1, -1, 1), (1, 1, -1)):
        with pytest.raises(InternalError, match="annihilate"):
            wk._check_annihilation(edges, wrong)


@pytest.mark.parametrize(
    "entries",
    [
        ({1: 1}, {2: 1}),  # tuples in one wedge only
        ({1: 1}, {1: -1}, {1: 1}),  # a tuple in three wedges
        ({1: 2}, {1: 1}),  # an entry that is not +-1
    ],
)
def test_signed_graph_kernel_rejects_broken_structure(entries):
    with pytest.raises(wk.WedgeStructureViolation):
        _kernel(*entries)


def test_signed_graph_kernel_dimension_and_sign_failures():
    with pytest.raises(wk.KernelDimensionViolation, match="dimension 2,"):
        _kernel({1: 1}, {1: 1}, {2: 1}, {2: -1})
    with pytest.raises(wk.KernelDimensionViolation, match="dimension 0,"):
        _kernel(*_UNBALANCED_TRIANGLE)
    with pytest.raises(wk.SignViolation):
        _kernel(*_UNBALANCED_TRIANGLE, {512: 1}, {512: 1})


def test_signed_components_reports_each_component():
    # 0 - 1 balanced, 2 - 3 - 4 a cycle of sign -1, 5 alone.
    edges = [(0, 1, -1), (2, 3, 1), (3, 4, 1), (4, 2, -1)]
    roots, signs, balanced = wk.signed_components(6, edges)
    assert roots[0] == roots[1] and signs[1] == -signs[0]
    assert len({roots[2], roots[3], roots[4]}) == 1
    assert len(set(roots)) == 3
    assert [balanced[x] for x in (roots[0], roots[2], roots[5])] == [True, False, True]


def test_replay_reproves_the_wedge_structure(monkeypatch):
    cert = wk.kernel_signs(4)
    monkeypatch.setattr(wk, "_wedges", lambda *args: iter([wk.WedgeVector({1: 1})]))
    with pytest.raises(wk.ReplayFailure, match="only one wedge"):
        wk.replay(cert)


def test_replay_never_calls_the_closed_form(monkeypatch):
    cert = wk.kernel_signs(5, seed=1, quotient=True)

    def refuse(*args, **kwargs):
        raise AssertionError("replay called the producer's closed form")

    monkeypatch.setattr(wk, "wedge_vector", refuse)
    wk.replay(cert)


@pytest.mark.parametrize("quotient", [False, True])
@pytest.mark.parametrize("r", [4, 5, 6, 7])
def test_dense_rank_oracle(r, quotient):
    # Dense conic x tuple matrix: its rank, computed by SVD, proves the
    # kernel dimension without the signed-graph solve.
    cert = wk.kernel_signs(r, quotient=quotient)
    conics = enumerate_conics(r)
    wedges = list(wk._wedges(wk._replayed_wedge, conics, cert.fiber_orders, cert.bases, quotient))
    column = {t: c for c, t in enumerate(sorted({t for w in wedges for t in w.entries}))}
    m = np.zeros((len(wedges), len(column)), dtype=np.int64)
    for k, w in enumerate(wedges):
        for t, v in w.entries.items():
            m[k, column[t]] = v
    assert np.linalg.matrix_rank(m) == len(wedges) - 1
    assert not np.any(np.array(cert.epsilon, dtype=np.int64) @ m)


def test_quotient_certificate_builds_one_line_table(fresh_tables):
    # Both tables are built once per rank, however many readers ask.
    cert = wk.kernel_signs(7, quotient=True)
    wk.replay(cert)
    assert enumerate_lines.cache_info().misses == 1
    assert enumerate_conics.cache_info().misses == 1
