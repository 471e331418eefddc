"""Transport accuracy oracles and the numeric functional identities."""

import cmath
import random
import tracemalloc
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from dp_hlog.cli import NUMERIC_DEFAULTS
from dp_hlog.hyperlog import dp4, numeric
from dp_hlog.hyperlog.words import shuffle
from dp_hlog.incidence import enumerate_conics, enumerate_lines
from oracles import ai3_cross_check, combination_value, segment_words, segments


def test_log_oracle():
    end = 2.5 + 1.0j
    values, _ = segment_words(1.0, end, (0,), 2)
    assert abs(values[(0,)] - cmath.log(end)) < 1e-12
    assert values[()] == 1.0


def test_weight_two_gauss_legendre_oracle():
    # Independent nested quadrature of the same double integral.
    b0, b1 = 0.0, 1.0
    base, end = -1.0 + 0.5j, 2.0 + 2.0j
    seg = end - base
    nodes, weights = np.polynomial.legendre.leggauss(60)

    def inner(s):
        t = 0.5 * s * (nodes + 1.0)
        w = 0.5 * s * weights
        z = base + t * seg
        return np.sum(w * seg / (z - b1))

    t_outer = 0.5 * (nodes + 1.0)
    w_outer = 0.5 * weights
    z_outer = base + t_outer * seg
    oracle = sum(
        w * seg / (z - b0) * inner(t)
        for w, z, t in zip(w_outer, z_outer, t_outer)
    )
    values, _ = segment_words(base, end, (b0, b1), 2)
    assert abs(values[(0, 1)] - oracle) < 1e-10


def test_dilogarithm_closed_form_oracle():
    # Letters (0, 1) on segments clear of 0 and of the cut [1, inf): the
    # word (0, 1) is -(Li2(z1) - Li2(z0)) - log(1 - z0) log(z1 / z0).
    for z0, z1 in [
        (-0.5 + 0.5j, 0.3 + 0.8j),
        (-1.0 - 1.0j, -0.2 - 0.3j),
        (-2.0 + 0.1j, -0.5 - 0.6j),
    ]:
        values, error = segment_words(z0, z1, (0.0, 1.0), 2)
        oracle = -(mpmath.polylog(2, z1) - mpmath.polylog(2, z0)) - mpmath.log(
            1 - z0
        ) * mpmath.log(z1 / z0)
        assert abs(values[(0, 1)] - complex(oracle)) < error


def test_shuffle_consistency():
    values, error = segment_words(-0.5 - 1.0j, 1.5 - 2.0j, (0.0, 1.0, 3.0 + 1.0j), 5)
    for u, v in [((0,), (1,)), ((0, 1), (2,)), ((1, 2), (0, 1)), ((2,), (2, 0))]:
        product = values[u] * values[v]
        combined = combination_value(values, shuffle(u, v))
        assert abs(product - combined) < 10 * error


def test_halving_consistency():
    base, end, points = 2.0 + 1.0j, 3.0 - 1.0j, (0.0, 1.0)
    coarse, coarse_error = segment_words(base, end, points, 3, tol=1e-8)
    fine, fine_error = segment_words(base, end, points, 3, tol=1e-13)
    worst = max(abs(coarse[w] - fine[w]) for w in coarse)
    assert worst < coarse_error
    assert fine_error < coarse_error


def test_quadrature_failure(monkeypatch):
    monkeypatch.setattr(numeric, "_STEP_CAP", 256)
    with pytest.raises(numeric.QuadratureFailure):
        segment_words(1.0, 2.0 + 1.0j, (0.0,), 3, tol=1e-18)


def test_rejections():
    web = dp4.five_term_web()
    with pytest.raises(ValueError):
        numeric.verify_identity_numeric(web, samples=0, tol=1e-6, seed=0)
    for tol in (0.0, -1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            numeric.verify_identity_numeric(web, samples=1, tol=tol, seed=0)


# The webs the numeric route checks at ranks 4 and 5, by rank.
WEBS = {4: dp4.five_term_web, 5: dp4.dp4_data}


def _web(r):
    """The first integrals and letters of the rank-r web, in floats."""
    return numeric._float_web(WEBS[r]())


def test_ai3_cross_check():
    gap = ai3_cross_check((0.0, 1.0, -2.0), 1.5 + 2.0j, -1.0 + 3.0j)
    assert gap < 1e-9
    with pytest.raises(ValueError):
        ai3_cross_check((0.0, 1.0), 2.0j, 3.0j)


# The five-integral planar web as written down by hand: numerator and
# denominator coefficient tables over (x, y) and, for each integral, its
# conic class with the reducible fibers over 0, 1, infinity as pairs of line
# classes. The tests hold the derived rank-4 web to these tables.
BOL_INTEGRALS = (
    ({(1, 0): 1}, {(0, 0): 1}),
    ({(0, 1): 1}, {(0, 0): 1}),
    ({(1, 0): 1}, {(0, 1): 1}),
    ({(0, 0): 1, (1, 0): -1}, {(0, 0): 1, (0, 1): -1}),
    ({(1, 0): 1, (1, 1): -1}, {(0, 1): 1, (1, 1): -1}),
)

BOL_FIBER_TABLE = (
    (
        (1, 0, 0, 0, -1),
        (
            ((1, -1, 0, 0, -1), (0, 1, 0, 0, 0)),
            ((1, 0, -1, 0, -1), (0, 0, 1, 0, 0)),
            ((1, 0, 0, -1, -1), (0, 0, 0, 1, 0)),
        ),
    ),
    (
        (1, 0, 0, -1, 0),
        (
            ((1, -1, 0, -1, 0), (0, 1, 0, 0, 0)),
            ((1, 0, -1, -1, 0), (0, 0, 1, 0, 0)),
            ((1, 0, 0, -1, -1), (0, 0, 0, 0, 1)),
        ),
    ),
    (
        (1, -1, 0, 0, 0),
        (
            ((1, -1, 0, 0, -1), (0, 0, 0, 0, 1)),
            ((1, -1, -1, 0, 0), (0, 0, 1, 0, 0)),
            ((1, -1, 0, -1, 0), (0, 0, 0, 1, 0)),
        ),
    ),
    (
        (1, 0, -1, 0, 0),
        (
            ((1, 0, -1, 0, -1), (0, 0, 0, 0, 1)),
            ((1, -1, -1, 0, 0), (0, 1, 0, 0, 0)),
            ((1, 0, -1, -1, 0), (0, 0, 0, 1, 0)),
        ),
    ),
    (
        (2, -1, -1, -1, -1),
        (
            ((1, -1, 0, 0, -1), (1, 0, -1, -1, 0)),
            ((1, -1, -1, 0, 0), (1, 0, 0, -1, -1)),
            ((1, -1, 0, -1, 0), (1, 0, -1, 0, -1)),
        ),
    ),
)


def _bol_alignment():
    """The alignment the fiber table spells out, resolved to indices."""
    lt = enumerate_lines(4)
    conics = enumerate_conics(4)
    cls_index = {c.cls: k for k, c in enumerate(conics)}
    entries = []
    for cls, fibers in BOL_FIBER_TABLE:
        k = cls_index[cls]
        order = tuple(
            tuple(sorted(lt.index[p] for p in pair)) for pair in fibers
        )
        assert sorted(order) == sorted(conics[k].fibers)
        entries.append(dp4.AlignmentEntry(k, order))
    return tuple(entries)


def test_five_term_web_matches_hand_tables():
    web = dp4.five_term_web()
    assert web.integrals == BOL_INTEGRALS
    assert web.spectra == ((0, 1),) * 5
    assert web.alignment == _bol_alignment()
    assert (web.gamma, web.pi) == (None, None)


def test_bol_alignment_bijective():
    entries = dp4.five_term_web().alignment
    assert sorted(e.conic for e in entries) == list(range(5))
    signs = dp4.aligned_signs(4, entries)
    assert sorted(abs(s) for s in signs) == [1] * 5


def test_five_term_identity():
    rep = numeric.verify_identity_numeric(dp4.five_term_web(), samples=3, tol=1e-8, seed=11)
    assert rep.passed
    assert rep.max_residual < 1e-8
    assert rep.gamma is None and rep.pi is None
    assert len(rep.residuals) == len(rep.error_budgets) == 3


def test_ten_term_identity():
    rep = numeric.verify_identity_numeric(dp4.dp4_data(), samples=2, tol=1e-6, seed=5)
    assert rep.passed
    assert rep.max_residual < 1e-6
    assert (rep.gamma, rep.pi) == (Fraction(1, 3), Fraction(5, 2))


def test_identity_is_nonvacuous():
    # Dropping one term leaves a residual comparable to that term.
    maps, letters = _web(4)
    signs = dp4.aligned_signs(4, dp4.five_term_web().alignment)
    plan = numeric._draw_plan(random.Random(2), maps, letters, 1)
    terms, _ = numeric._plan_terms(maps, letters, plan, 1e-11)
    scale = max(abs(t) for t in terms)
    full = abs(sum(s * t for s, t in zip(signs, terms))) / scale
    partial = abs(sum(s * t for s, t in zip(signs[:-1], terms[:-1]))) / scale
    assert full < 1e-9
    assert partial > 0.1 * abs(terms[-1]) / scale


def _plan_batch(r, seed):
    # Every first integral on one sample's segment as one batch, one path
    # per integral: _rk4_batch reads any coefficient callback, and the route
    # gives each integral its own.
    maps, letters = _web(r)
    plan = numeric._draw_plan(random.Random(seed), maps, letters, 1)
    coefs = [numeric._plan_coef(m, pts, plan) for m, pts in zip(maps, letters)]

    def coef(paths, t):
        return np.concatenate([coefs[p](np.zeros(1, dtype=int), t) for p in paths], axis=1)

    alphabet = len(letters[0])  # also the weight: one letter per finite spectrum value
    return coef, len(coefs), alphabet, alphabet


def test_mixed_batch_matches_single_paths():
    # The ten paths of this rank-5 sample stop at 128, 256 and 512 steps.
    coef, count, alphabet, weight = _plan_batch(5, 3)
    steps = [0] * count

    def counted(paths, t):
        for p in paths:
            steps[p] = max(steps[p], len(t))
        return coef(paths, t)

    values, errors = numeric._rk4_batch(counted, count, alphabet, weight, 1e-9)
    assert len(set(steps)) > 2
    for j in range(count):

        def single(paths, t, j=j):
            return coef(paths + j, t)

        alone, error = numeric._rk4_batch(single, 1, alphabet, weight, 1e-9)
        assert np.array_equal(values[j], alone[0])
        assert errors[j] == error[0]


def _fresh_node_transport(coef, path, alphabet, weight, tol):
    # One path alone, step by step over the word list with first-letter and
    # suffix indices, with fresh step-start, midpoint and step-end nodes for
    # every run, sharing no node, row or block bookkeeping with _rk4_batch.
    index = numeric._word_system(alphabet, weight)
    words = sorted(index, key=index.get)[1:]
    letters = np.array([w[0] for w in words])
    parents = np.array([index[w[1:]] for w in words])

    def run(n):
        h = 1.0 / n
        grid = np.arange(n) * h
        a0, ah, a1 = (
            coef(np.array([path]), t)[:, 0][:, letters]
            for t in (grid, grid + h / 2, grid + h)
        )
        v = np.zeros(len(letters) + 1, dtype=complex)
        v[0] = 1.0
        k = np.zeros((4, len(v)), dtype=complex)
        for i in range(n):
            k[0, 1:] = a0[i] * v[parents]
            k[1, 1:] = ah[i] * (v + (h / 2) * k[0])[parents]
            k[2, 1:] = ah[i] * (v + (h / 2) * k[1])[parents]
            k[3, 1:] = a1[i] * (v + h * k[2])[parents]
            v = v + (h / 6) * (k[0] + 2 * k[1] + 2 * k[2] + k[3])
        return v

    n, prev = 64, run(64)
    while True:
        n *= 2
        cur = run(n)
        diff = np.max(np.abs(cur - prev))
        if diff < tol:
            return cur, max(diff, 3e-14 * (1.0 + np.max(np.abs(cur)))), n
        prev = cur


@pytest.mark.parametrize("r, seed, tol", [(4, 1, 1e-11), (5, 3, 1e-9)])
def test_node_reuse_matches_fresh_nodes(r, seed, tol):
    # Paths of these samples stop at 128, 256 and 512 steps, so the batch
    # reuses nodes across two doublings and drops the rows of paths that
    # have converged.
    coef, count, alphabet, weight = _plan_batch(r, seed)
    values, errors = numeric._rk4_batch(coef, count, alphabet, weight, tol)
    stops = set()
    for j in range(count):
        alone, error, n = _fresh_node_transport(coef, j, alphabet, weight, tol)
        assert np.array_equal(values[j], alone)
        assert errors[j] == error
        stops.add(n)
    assert stops == {128, 256, 512}


def test_batch_fails_if_any_path_fails(monkeypatch):
    easy = (1.0, 2.0 + 1.0j, (0.0,))  # converges at 256 steps
    slow = (-1.0 + 0.01j, 1.0 + 0.01j, (0.0,))  # needs 2048
    monkeypatch.setattr(numeric, "_STEP_CAP", 1024)
    numeric._rk4_batch(*segments(easy), 1, 2, 1e-10)
    with pytest.raises(numeric.QuadratureFailure, match="no convergence"):
        numeric._rk4_batch(*segments(easy, slow), 1, 2, 1e-10)
    # A segment through the branch point gives non-finite values.
    through = (-1.0, 1.0, (0.0,))
    with np.errstate(divide="ignore", invalid="ignore"):
        with pytest.raises(numeric.QuadratureFailure, match="diverged"):
            numeric._rk4_batch(*segments(easy, through), 1, 2, 1e-10)


def test_top_weight_matches_step_by_step_transport():
    # Five weights over three letters: 363 words, a deeper suffix chain than
    # the rank-5 route's weight 3.
    base, end, points = -0.5 - 1.0j, 1.5 - 2.0j, (0.0, 1.0, 3.0 + 1.0j)
    values, error = segment_words(base, end, points, 5)
    coef, _ = segments((base, end, points))
    alone, fresh_error, _ = _fresh_node_transport(coef, 0, 3, 5, 1e-12)
    index = numeric._word_system(3, 5)
    assert len(index) == 364
    assert all(values[w] == alone[i] for w, i in index.items())
    assert error == fresh_error


@pytest.mark.parametrize("alphabet", [1, 2, 3, 4, 5])
def test_word_system_is_letter_times_suffix(alphabet):
    # _rk4_batch relies on this layout: the words of weight w are one run of
    # alphabet**w indices in itertools.product order, so word (l, rest) sits
    # at l * alphabet**(w - 1) plus the offset of rest within weight w - 1.
    index = numeric._word_system(alphabet, 4)
    assert index[()] == 0
    start = 1
    for w in range(1, 5):
        run = [
            word for word, i in sorted(index.items(), key=lambda e: e[1])
            if len(word) == w
        ]
        assert [index[word] for word in run] == list(range(start, start + alphabet**w))
        lower = start - alphabet ** (w - 1)
        for word in run:
            offset = index[word[1:]] - lower if w > 1 else 0
            assert index[word] - start == word[0] * alphabet ** (w - 1) + offset
        start += alphabet**w
    assert len(index) == start


@pytest.mark.parametrize("block", [1, numeric._BLOCK, 10**9])
def test_block_width_does_not_change_bits(monkeypatch, block):
    # One step per block, so each running sum adds one increment to the
    # carried value; the default; and a whole run per block, one
    # np.add.accumulate over every step.
    reference = {}
    for r, seed in ((4, 1), (5, 3)):
        coef, count, alphabet, weight = _plan_batch(r, seed)
        reference[r] = numeric._rk4_batch(coef, count, alphabet, weight, 1e-9)
    monkeypatch.setattr(numeric, "_BLOCK", block)
    for r, seed in ((4, 1), (5, 3)):
        coef, count, alphabet, weight = _plan_batch(r, seed)
        values, errors = numeric._rk4_batch(coef, count, alphabet, weight, 1e-9)
        assert np.array_equal(values, reference[r][0])
        assert np.array_equal(errors, reference[r][1])


@pytest.mark.parametrize(
    "group, nodes",
    [
        (1, numeric._NODES),
        (3, numeric._NODES),
        (numeric._GROUP, numeric._NODES),
        (10**9, numeric._NODES),
        (numeric._GROUP, 1),
        (numeric._GROUP, 10**9),
    ],
)
def test_group_size_does_not_change_bits(monkeypatch, group, nodes):
    # One path per batch, three, the default, and each integral's segments
    # in one batch; with the default group, coefficients one node row at a
    # time and all nodes at once. Groups of three split the ten r = 4 and
    # the five r = 5 segments of each integral. The reference transports
    # each sample as a plan of its own, so it also pins the segment-major
    # order of the terms.
    plans = {}
    reference = {}
    for r, seed, samples in ((4, 1, 10), (5, 3, 5)):
        maps, letters = _web(r)
        plan = numeric._draw_plan(random.Random(seed), maps, letters, samples)
        plans[r] = (maps, letters, plan)
        terms, errors = [], []
        for sample in plan:
            t, e = numeric._plan_terms(maps, letters, [sample], 1e-9)
            terms += t
            errors += e
        reference[r] = terms, errors
    monkeypatch.setattr(numeric, "_GROUP", group)
    monkeypatch.setattr(numeric, "_NODES", nodes)
    for r, (maps, letters, plan) in plans.items():
        terms, errors = numeric._plan_terms(maps, letters, plan, 1e-9)
        assert terms == reference[r][0]
        assert errors == reference[r][1]


@pytest.mark.parametrize("r", [4, 5])
@pytest.mark.parametrize("samples", [None, 53])
def test_no_batch_mixes_integrals(monkeypatch, r, samples):
    # Every coefficient call of a transport batch evaluates one first
    # integral, on as many segments as it asks paths for; a batch holds at
    # most _GROUP paths, and each integral's segments fill
    # ceil(samples / _GROUP) batches. None is the route's default count.
    default, tol = NUMERIC_DEFAULTS[r]
    samples = samples or default
    forms = numeric._RationalMap.forms
    rk4 = numeric._rk4_batch
    evaluated, batches = [], []

    def watched_forms(self, start, stop, t, pts):
        evaluated.append((self, len(start)))
        return forms(self, start, stop, t, pts)

    def watched_batch(coef, count, *args):
        maps = set()

        def watched(paths, t):
            evaluated.clear()
            out = coef(paths, t)
            assert evaluated and {n for _, n in evaluated} == {len(paths)}
            maps.update(m for m, _ in evaluated)
            return out

        result = rk4(watched, count, *args)
        batches.append((maps, count))
        return result

    monkeypatch.setattr(numeric._RationalMap, "forms", watched_forms)
    monkeypatch.setattr(numeric, "_rk4_batch", watched_batch)
    assert numeric.verify_identity_numeric(WEBS[r](), samples, tol, seed=1).passed
    assert all(len(maps) == 1 and count <= numeric._GROUP for maps, count in batches)
    per_integral = {}
    for (m,), count in batches:
        per_integral.setdefault(m, []).append(count)
    assert len(per_integral) == (5 if r == 4 else 10)
    for counts in per_integral.values():
        assert sum(counts) == samples
        assert len(counts) == -(-samples // numeric._GROUP)


def _node_batches(n, size):
    # Consecutive slices of about `size` nodes, the last taking the remainder,
    # so that none holds a single node.
    edges = list(range(0, n - size, size)) + [n]
    return list(zip(edges, edges[1:]))


@pytest.mark.parametrize("r", [4, 5])
def test_forms_bits_do_not_depend_on_the_batch(r):
    # On one segment, each node of a forms call gets the bits it gets in a
    # call over all 257 nodes, in batches of 2 and 3 nodes alike. A call over
    # one (node, segment) element alone differs in the last bit at up to 176
    # of the nodes, since numpy then sums a polynomial's monomials in another
    # order; the transport never makes one.
    maps, letters = _web(r)
    plan = numeric._draw_plan(random.Random(1), maps, letters, 1)
    starts = np.asarray([xi for xi, _ in plan])
    stops = np.asarray([p for _, p in plan])
    t = np.arange(257) / 256
    for m, row in zip(maps, letters):
        pts = np.asarray(row)
        whole = m.forms(starts, stops, t, pts)
        for size in (2, 3):
            parts = [m.forms(starts, stops, t[a:b], pts) for a, b in _node_batches(len(t), size)]
            assert np.array_equal(_bits(np.concatenate(parts)), _bits(whole))


@pytest.mark.parametrize("r, seed", [(4, 1), (5, 3)])
def test_plan_terms_never_evaluate_one_element(monkeypatch, r, seed):
    # With one path per batch and one (node, path) pair per piece, every
    # forms call still holds at least two elements. With 100 pairs per
    # piece, no call holds more: 129 nodes make two pieces, not one.
    maps, letters = _web(r)
    plan = numeric._draw_plan(random.Random(seed), maps, letters, 1)
    sizes = []
    forms = numeric._RationalMap.forms

    def counted(self, start, stop, t, pts):
        sizes.append(len(start) * len(t))
        return forms(self, start, stop, t, pts)

    monkeypatch.setattr(numeric._RationalMap, "forms", counted)
    for group, nodes in ((1, 1), (numeric._GROUP, 100)):
        sizes.clear()
        monkeypatch.setattr(numeric, "_GROUP", group)
        monkeypatch.setattr(numeric, "_NODES", nodes)
        numeric._plan_terms(maps, letters, plan, 1e-9)
        assert sizes and min(sizes) >= 2
    assert max(sizes) <= 100


def test_transport_memory_is_bounded_by_the_group():
    # 40 rank-5 samples are 400 paths: ten integrals of 40 segments, one
    # transport batch each. Transported in one batch, their coefficient
    # tables and the doubling copies peaked at 13.1 MiB; one integral's
    # segments per batch peak near 2.7 MiB (1.4 MiB at 10 samples).
    tracemalloc.start()
    try:
        report = numeric.verify_identity_numeric(dp4.dp4_data(), samples=40, tol=1e-6, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.passed
    assert peak < 4 * 2**20


def _bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


def test_power_tables_match_per_monomial_powers():
    # Every numerator, denominator and gradient of both webs, evaluated from
    # the shared power tables, has the bits of c * x**ei * y**ej summed over
    # the monomials, on a (times, segments) grid and on a clearance line.
    rng = np.random.default_rng(0)
    grids = [
        rng.normal(size=(2, 9, 4)) + 1j * rng.normal(size=(2, 9, 4)),
        rng.normal(size=(2, 33)) + 1j * rng.normal(size=(2, 33)),
    ]
    maps = [numeric._RationalMap(*nd) for nd in dp4.five_term_web().integrals]
    maps += [numeric._RationalMap(*nd) for nd in dp4.dp4_data().integrals]
    checked = 0
    for m in maps:
        (nx, ny), (dx, dy) = m.grads
        for x, y in grids:
            xy = m.powers(x, y)
            for p in (m.num, m.den, nx, ny, dx, dy):
                old = (p.c * x[..., None] ** p.ei * y[..., None] ** p.ej).sum(axis=-1)
                assert np.array_equal(_bits(p(*xy)), _bits(old))
                checked += 1
    assert checked == 2 * 6 * 15


def test_tolerance_ladder_monotone():
    # Tightening the quadrature tolerance drives every term toward its
    # converged value monotonically. The raw identity residual is not a
    # reliable ladder statistic: at coarse tolerances all terms share one
    # step count and their truncation errors largely cancel in the sum.
    maps, letters = _web(4)
    plan = numeric._draw_plan(random.Random(9), maps, letters, 1)
    ref, _ = numeric._plan_terms(maps, letters, plan, 1e-13)
    deviations = []
    for quad in (1e-4, 1e-7, 1e-10):
        terms, _ = numeric._plan_terms(maps, letters, plan, quad)
        deviations.append(max(abs(a - b) for a, b in zip(terms, ref)))
    assert deviations[0] >= deviations[1] >= deviations[2]
    assert deviations[2] < deviations[0]


def test_draw_plan_gives_up_cleanly(monkeypatch):
    maps, letters = _web(4)
    monkeypatch.setattr(numeric, "_CLEARANCE", 10.0)
    with pytest.raises(numeric.PathTooClose):
        numeric._draw_plan(random.Random(0), maps, letters, 1)


def _path_clear_one(m, pts, start, stop, delta):
    """Clearance of one segment, evaluated on its own grid (the oracle)."""
    t = np.linspace(0.0, 1.0, numeric._CLEARANCE_GRID)
    xy = m.powers(
        start[0] + t * (stop[0] - start[0]), start[1] + t * (stop[1] - start[1])
    )
    n = m.num(*xy)
    d = m.den(*xy)
    if np.min(np.abs(d)) <= 1e-12:
        return False
    u = n / d
    if np.max(np.abs(u)) >= 1.0 / delta:
        return False
    return all(np.min(np.abs(u - b)) > delta for b in pts)


def _plan_or_failure(seed, maps, letters, samples):
    try:
        return numeric._draw_plan(random.Random(seed), maps, letters, samples)
    except numeric.PathTooClose as exc:
        return str(exc)


@pytest.mark.parametrize(
    "r, delta, sample_counts, seeds",
    # At r = 4 and delta = 0.85 most base points and endpoints are
    # rejected: some plans run out of their 200 * samples attempts, others
    # just make it. At r = 5 and delta = 1e-3, seeds 13 and 17 of the first
    # 32 are the ones whose 10-sample plans reject a candidate (at integrals
    # 3 and 4).
    [(4, 0.85, (1, 4), (2, 9, 13)), (5, 1e-3, (10,), (13, 17))],
)
def test_plan_checks_each_candidate_once_per_integral(
    monkeypatch, r, delta, sample_counts, seeds
):
    # Each candidate segment meets the integrals in order, one _clear call
    # each, up to and including the first that rejects it.
    maps, letters = _web(r)
    index = {id(m): i for i, m in enumerate(maps)}
    calls = []
    clear = numeric._clear

    def counted(m, pts, start, stop):
        calls.append((index[id(m)], start, stop))
        return clear(m, pts, start, stop)

    monkeypatch.setattr(numeric, "_clear", counted)
    monkeypatch.setattr(numeric, "_CLEARANCE", delta)
    rejected = 0
    seen = set()
    for samples in sample_counts:
        for seed in seeds:
            calls.clear()
            outcome = _plan_or_failure(seed, maps, letters, samples)
            seen.add(outcome if isinstance(outcome, str) else len(outcome))
            candidates = list(dict.fromkeys((a, b) for _, a, b in calls))
            expected, accepted = [], []
            for start, stop in candidates:
                for i, (m, pts) in enumerate(zip(maps, letters)):
                    expected.append((i, start, stop))
                    if not _path_clear_one(m, pts, start, stop, delta):
                        rejected += 1
                        break
                else:
                    accepted.append((start, stop))
            assert calls == expected
            # The first accepted segment is the base point's; a plan that
            # gives up has drawn 200 * samples endpoints after it.
            if outcome == "could not sample enough clear endpoints":
                endpoints = len(candidates) - 1 - candidates.index(accepted[0])
                assert endpoints == 200 * samples
            else:
                assert outcome == accepted[1:]
    assert rejected
    assert seen == ({1, 4, "could not sample enough clear endpoints"} if r == 4 else {10})
