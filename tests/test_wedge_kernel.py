"""Wedge construction and the one-dimensional +-1 kernel."""

import hashlib
import itertools
import json
import random
import sys
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

from oracles import canonical_certificate
from record_artifact_hashes import CERTIFY, artifact


def _minor(rows, cols):
    # rows as fiber_differences writes them: (column, value) entries.
    top = dict(rows[0])
    if len(cols) == 1:
        return top.get(cols[0], 0)
    total = 0
    for p, c in enumerate(cols):
        sign = -1 if p & 1 else 1
        total += sign * top.get(c, 0) * _minor(rows[1:], cols[:p] + cols[p + 1 :])
    return total


def test_fiber_differences_shape_and_row_sums():
    for r in (4, 7):
        conics = enumerate_conics(r)
        rows = wk.fiber_differences(conics[0], r - 2)
        assert len(rows) == r - 2
        columns = {c for row in rows for c, _ in row}
        assert columns == {c for pair in conics[0].fibers for c in pair}
        for row in rows:
            assert len({c for c, _ in row}) == 4
            assert sorted(v for _, v in row) == [-1, -1, 1, 1]


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
        rows = wk.fiber_differences(f, r - 2)
        w = wk.iterated_wedge(rows)
        assert len(w) == len(w.entries) <= comb(2 * (r - 1), r - 2)
        for key, val in w.entries.items():
            cols = _columns(key)
            assert len(cols) == r - 2
            assert val == _minor(rows, cols)
            assert val != 0
        # A tuple off the fibers' lines must be absent.
        outside = (1 << (r - 2)) - 1
        if not set(_columns(outside)) <= {c for row in rows for c, _ in row}:
            assert outside not in w.entries


@settings(derandomize=True, deadline=None)
@given(st.integers(4, 7), st.data())
def test_wedge_vector_degenerate_and_antisymmetric(r, data):
    # Any conic, base fiber and pair of rows: swapping the two rows negates
    # every entry, and a repeated row leaves the empty wedge.
    f = data.draw(st.sampled_from(enumerate_conics(r)))
    m = wk.fiber_differences(f, data.draw(st.integers(0, r - 2)))
    i, j = data.draw(st.lists(st.integers(0, r - 3), min_size=2, max_size=2, unique=True))
    rows = list(m)
    rows[i], rows[j] = rows[j], rows[i]
    w = wk.iterated_wedge(m)
    ws = wk.iterated_wedge(rows)
    assert w.entries
    assert ws.entries == {cols: -val for cols, val in w.entries.items()}
    rows[i] = rows[j]
    assert wk.iterated_wedge(rows).entries == {}


@settings(derandomize=True, deadline=None, max_examples=60)
@given(st.integers(4, 7), st.data())
def test_closed_form_equals_iterated_wedge_and_minors(r, data):
    # A random conic, fiber order and base, with and without the quotient.
    f = data.draw(st.sampled_from(enumerate_conics(r)))
    f = ConicFibration(f.cls, tuple(data.draw(st.permutations(f.fibers))))
    base = data.draw(st.integers(0, r - 2))
    drop = sum(1 << k for k in enumerate_lines(r).exceptional) if data.draw(st.booleans()) else 0
    w = wk.wedge_vector(f, base, drop=drop)
    rows = wk.fiber_differences(f, base)
    assert w.entries == wk.iterated_wedge(rows, drop).entries
    if not drop:
        assert len(w) == (r - 1) * 2 ** (r - 2)
    for key, val in w.entries.items():
        assert not key & drop
        assert val == _minor(rows, _columns(key)) in (1, -1)


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
    # more than C(2(r - 1), r - 2) entries. The r = 8 certificate is
    # criterion 3's, computed once per process.
    cert = canonical_certificate(8) if r == 8 else wk.kernel_signs(r, seed=seed, quotient=quotient)
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


def _stored_certificate(line):
    return wk.HlogCertificate.from_json(json.loads(artifact(line))["certificate"])


@pytest.mark.parametrize("line", CERTIFY)
def test_content_hash_is_the_sha256_of_the_compact_payload(line):
    # A second route to the digest: hashlib (OpenSSL here) on the same JSON.
    cert = _stored_certificate(line)
    blob = json.dumps(cert.payload(), sort_keys=True, separators=(",", ":"))
    assert wk._content_hash(cert.payload()) == cert.content_hash
    assert hashlib.sha256(blob.encode("utf-8")).hexdigest() == cert.content_hash


def test_content_hash_falls_back_to_hashlib(monkeypatch):
    # With CPython's own SHA-256 modules unimportable, hashlib's gives the digest.
    cert = _stored_certificate("certify --rank 5 --seed 3")
    called = []
    openssl = hashlib.sha256

    def sha256(data):
        called.append(len(data))
        return openssl(data)

    for builtin in ("_sha2", "_sha256"):
        monkeypatch.setitem(sys.modules, builtin, None)
    monkeypatch.setattr(hashlib, "sha256", sha256)
    assert wk._content_hash(cert.payload()) == cert.content_hash
    assert len(called) == 1


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


def _check(entries, epsilon):
    wk._check_kernel([wk.WedgeVector(dict(e)) for e in entries], epsilon)


_SIGNS = list(itertools.product((1, -1), repeat=3))

# Three conics pairwise joined by a tuple with entries +1, +1: no +-1 vector
# annihilates all three.
_UNBALANCED_TRIANGLE = ({1: 1, 4: 1}, {1: 1, 2: 1}, {2: 1, 4: 1})


def test_check_kernel_passes_exactly_the_kernel_vector():
    # Tuples 1 and 32 give conic 1 the opposite sign of conic 0, and tuple 2
    # gives conic 2 the sign of conic 1: the kernel is spanned by (1, -1, -1).
    system = ({1: 1, 32: 1}, {1: 1, 2: 1, 32: 1}, {2: -1})
    for epsilon in _SIGNS:
        if epsilon in ((1, -1, -1), (-1, 1, 1)):
            _check(system, epsilon)
        else:
            with pytest.raises(InternalError, match="annihilate"):
                _check(system, epsilon)


@pytest.mark.parametrize(
    "entries, match",
    [
        (({1: 1}, {2: 1}), "only one wedge"),
        (({1: 1}, {1: -1}, {1: 1}), "three or more"),
        (({1: 2}, {1: 1}), "has entry 2"),
    ],
    ids=["one wedge", "three wedges", "entry 2"],
)
def test_check_kernel_rejects_broken_structure(entries, match):
    # Each system is annihilated by epsilon = +1 wherever its tuples pair.
    with pytest.raises(wk.WedgeStructureViolation, match=match):
        _check(entries, (1,) * len(entries))


def test_check_kernel_counts_the_components():
    # Annihilated, every tuple in two wedges, but {0, 1} and {2, 3} share none.
    with pytest.raises(wk.KernelDimensionViolation, match="^kernel dimension 2, expected 1$"):
        _check(({1: 1}, {1: 1}, {2: 1}, {2: -1}), (1, -1, 1, 1))
    # A conic without a wedge is a component of its own.
    with pytest.raises(wk.KernelDimensionViolation, match="^kernel dimension 2, expected 1$"):
        _check(({1: 1}, {1: -1}), (1, 1, 1))


def test_check_kernel_refuses_the_unbalanced_triangle():
    for epsilon in _SIGNS:
        with pytest.raises(InternalError, match="annihilate"):
            _check(_UNBALANCED_TRIANGLE, epsilon)


def _drawn_orderings(r, seed):
    """Fiber orders and bases drawn from random.Random(seed), or the
    canonical ones (base r - 2) without a seed."""
    conics = enumerate_conics(r)
    if seed is None:
        return [f.fibers for f in conics], [r - 2] * len(conics)
    rng = random.Random(seed)
    orders = [tuple(rng.sample(f.fibers, len(f.fibers))) for f in conics]
    return orders, [rng.randrange(r - 1) for _ in conics]


@pytest.mark.parametrize("quotient", [False, True])
@pytest.mark.parametrize("seed", [None, 11, 12])
@pytest.mark.parametrize("r", [4, 5, 6, 7])
def test_weyl_signs_annihilate_the_replayed_wedges(r, seed, quotient):
    # The walk's signs under any orderings, summed against replay's wedges
    # entry by entry in the test: every tuple cancels.
    conics = enumerate_conics(r)
    orders, bases = _drawn_orderings(r, seed)
    epsilon = wk._weyl_epsilon(conics, orders, bases)
    assert epsilon[0] == 1 and set(epsilon) == {1, -1}
    total = {}
    for e, w in zip(epsilon, wk._wedges(wk._replayed_wedge, conics, orders, bases, quotient)):
        for t, v in w.entries.items():
            total[t] = total.get(t, 0) + e * v
    assert total and not any(total.values())


def test_weyl_walk_refuses_a_conic_off_the_orbit():
    # A second copy of the first conic, appended: the search reaches each
    # class once, so one of the two entries keeps no sign.
    conics = enumerate_conics(4)
    orders, bases = _drawn_orderings(4, None)
    with pytest.raises(InternalError, match=r"misses conic 0, \(1, -1, 0, 0, 0\)"):
        wk._weyl_epsilon(conics + conics[:1], orders + orders[:1], bases + bases[:1])


def test_replay_reproves_the_wedge_structure(monkeypatch):
    cert = wk.kernel_signs(4)
    monkeypatch.setattr(wk, "_wedges", lambda *args: iter([wk.WedgeVector({1: 1})]))
    with pytest.raises(wk.ReplayFailure, match="only one wedge"):
        wk.replay(cert)


def test_replay_reproves_connectivity(monkeypatch):
    # Five wedges with +-1 entries, every tuple in two of them and annihilated
    # by epsilon = +1, but in two components {0, 1} and {2, 3, 4}: a kernel
    # of dimension two, which replay must refuse. Tuples 32 and 64 link the
    # components, and then the same certificate replays.
    cert = wk.kernel_signs(4)._replace(epsilon=(1,) * 5)
    cert = cert._replace(content_hash=wk._content_hash(cert.payload()))

    def replay(wedges):
        monkeypatch.setattr(wk, "_wedges", lambda *args: map(wk.WedgeVector, wedges))
        wk.replay(cert)

    with pytest.raises(wk.ReplayFailure):
        replay([{1: 1}, {1: -1}, {2: 1, 8: 1}, {2: -1, 16: 1}, {8: -1, 16: -1}])
    replay([{1: 1, 32: 1}, {1: -1, 64: 1}, {2: 1, 8: 1, 32: -1}, {2: -1, 16: 1, 64: -1},
            {8: -1, 16: -1}])


def test_replay_never_calls_the_closed_form(monkeypatch):
    cert = wk.kernel_signs(5, seed=1, quotient=True)

    def refuse(*args, **kwargs):
        raise AssertionError("replay called the producer's closed form")

    monkeypatch.setattr(wk, "wedge_vector", refuse)
    wk.replay(cert)


@pytest.mark.parametrize("producer", ["_weyl_epsilon", "orbit", "wedge_vector"])
def test_replay_runs_none_of_the_producer(monkeypatch, producer):
    # Replay proves the stored signs by the check alone: it neither walks
    # the orbit for them nor builds a closed-form wedge.
    cert = wk.kernel_signs(6, seed=2)

    def refuse(*args, **kwargs):
        raise AssertionError(f"replay called the producer's {producer}")

    monkeypatch.setattr(wk, producer, refuse)
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
