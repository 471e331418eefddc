"""Transport accuracy oracles and the numeric functional identities."""

import cmath
import random
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from dp_hlog.hyperlog import numeric
from dp_hlog.hyperlog.words import asym, shuffle, word


def test_log_oracle():
    basis = numeric.LogFormBasis((0,))
    end = 2.5 + 1.0j
    pe = numeric.evaluate_words(basis, 1.0, end, 2)
    assert abs(pe.values[(0,)] - cmath.log(end)) < 1e-12
    assert pe.values[()] == 1.0


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
    pe = numeric.evaluate_words(numeric.LogFormBasis((b0, b1)), base, end, 2)
    assert abs(pe.values[(0, 1)] - oracle) < 1e-10


def test_dilogarithm_closed_form_oracle():
    # Letters (0, 1) on segments clear of 0 and of the cut [1, inf): the
    # word (0, 1) is -(Li2(z1) - Li2(z0)) - log(1 - z0) log(z1 / z0).
    basis = numeric.LogFormBasis((0.0, 1.0))
    for z0, z1 in [
        (-0.5 + 0.5j, 0.3 + 0.8j),
        (-1.0 - 1.0j, -0.2 - 0.3j),
        (-2.0 + 0.1j, -0.5 - 0.6j),
    ]:
        pe = numeric.evaluate_words(basis, z0, z1, 2)
        oracle = -(mpmath.polylog(2, z1) - mpmath.polylog(2, z0)) - mpmath.log(
            1 - z0
        ) * mpmath.log(z1 / z0)
        assert abs(pe.values[(0, 1)] - complex(oracle)) < pe.error


def test_shuffle_consistency():
    basis = numeric.LogFormBasis((0.0, 1.0, 3.0 + 1.0j))
    pe = numeric.evaluate_words(basis, -0.5 - 1.0j, 1.5 - 2.0j, 5)
    for u, v in [((0,), (1,)), ((0, 1), (2,)), ((1, 2), (0, 1)), ((2,), (2, 0))]:
        product = pe.values[u] * pe.values[v]
        combined = pe.value_of(shuffle(u, v))
        assert abs(product - combined) < 10 * pe.error


def test_halving_consistency():
    basis = numeric.LogFormBasis((0.0, 1.0))
    base, end = 2.0 + 1.0j, 3.0 - 1.0j
    coarse = numeric.evaluate_words(basis, base, end, 3, tol=1e-8)
    fine = numeric.evaluate_words(basis, base, end, 3, tol=1e-13)
    worst = max(abs(coarse.values[w] - fine.values[w]) for w in coarse.values)
    assert worst < coarse.error
    assert fine.error < coarse.error


def test_path_too_close():
    basis = numeric.LogFormBasis((0.0, 1.0))
    with pytest.raises(numeric.PathTooClose) as info:
        numeric.evaluate_words(basis, -1.0, 2.0, 2)
    assert info.value.delta == 1e-3
    with pytest.raises(numeric.PathTooClose):
        numeric.evaluate_words(basis, 1.0 + 1e-5j, 2.0 + 1.0j, 2)


def test_quadrature_failure():
    basis = numeric.LogFormBasis((0.0,))
    with pytest.raises(numeric.QuadratureFailure):
        numeric.evaluate_words(basis, 1.0, 2.0 + 1.0j, 3, tol=1e-18, max_steps=256)


def test_rejections():
    with pytest.raises(ValueError):
        numeric.LogFormBasis((0.0, 1.0, 1.0))
    basis = numeric.LogFormBasis((0.0,))
    with pytest.raises(ValueError):
        numeric.evaluate_words(basis, 1.0, 2.0, 0)
    with pytest.raises(ValueError):
        numeric.evaluate_words(basis, 1.0, 2.0, 6)
    with pytest.raises(ValueError):
        numeric.verify_identity_numeric(6, samples=1)
    with pytest.raises(ValueError):
        numeric.verify_identity_numeric(4, samples=0)
    for tol in (0.0, -1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            numeric.verify_identity_numeric(4, samples=1, tol=tol)


def test_value_of_matches_hand_expansion():
    basis = numeric.LogFormBasis((0.0, 1.0))
    pe = numeric.evaluate_words(basis, 2.0, 3.0 + 1.0j, 2)
    direct = 0.5 * (pe.values[(0, 1)] - pe.values[(1, 0)])
    assert abs(pe.value_of(asym((0, 1))) - direct) < 1e-15
    assert pe.value_of(word((1,))) == pe.values[(1,)]


def test_ai3_cross_check():
    basis = numeric.LogFormBasis((0.0, 1.0, -2.0))
    gap = numeric.ai3_cross_check(basis, 1.5 + 2.0j, -1.0 + 3.0j)
    assert gap < 1e-9
    with pytest.raises(ValueError):
        numeric.ai3_cross_check(numeric.LogFormBasis((0.0, 1.0)), 2.0j, 3.0j)


def test_bol_alignment_bijective():
    entries = numeric.bol_alignment()
    assert sorted(e.conic for e in entries) == list(range(5))
    assert all(e.base == 2 for e in entries)
    cert, signs = numeric.aligned_certificate(4, entries)
    assert cert.kernel_dimension == 1
    assert sorted(abs(s) for s in signs) == [1] * 5


def test_five_term_identity():
    rep = numeric.verify_identity_numeric(4, samples=3, tol=1e-8, seed=11)
    assert rep.passed
    assert rep.max_residual < 1e-8
    assert rep.gamma is None and rep.pi is None
    assert len(rep.residuals) == len(rep.error_budgets) == 3


def test_ten_term_identity():
    rep = numeric.verify_identity_numeric(5, samples=2, tol=1e-6, seed=5)
    assert rep.passed
    assert rep.max_residual < 1e-6
    assert (rep.gamma, rep.pi) == (Fraction(1, 3), Fraction(5, 2))


def test_identity_is_nonvacuous():
    # Dropping one term leaves a residual comparable to that term.
    data, maps, letters, alignment, weight = numeric._web(4, None)
    _, signs = numeric.aligned_certificate(4, alignment)
    plan = numeric._draw_plan(random.Random(2), maps, letters, 1, 1e-3)
    terms, _ = numeric._plan_terms(maps, letters, plan, weight, 1e-11, 1 << 17)
    scale = max(abs(t) for t in terms)
    full = abs(sum(s * t for s, t in zip(signs, terms))) / scale
    partial = abs(sum(s * t for s, t in zip(signs[:-1], terms[:-1]))) / scale
    assert full < 1e-9
    assert partial > 0.1 * abs(terms[-1]) / scale


def _segment(base, end, points):
    pts = np.asarray(points, dtype=complex)
    seg = end - base
    return lambda t: seg / (base + t[:, None] * seg - pts[None, :])


def test_mixed_batch_matches_single_paths():
    # The ten paths of this rank-5 sample stop at 128, 256 and 512 steps.
    data, maps, letters, alignment, weight = numeric._web(5, None)
    ((xi, p),) = numeric._draw_plan(random.Random(3), maps, letters, 1, 1e-3)
    coefs = [m.pullback(xi, p, np.asarray(pts)) for m, pts in zip(maps, letters)]
    steps = [0] * len(coefs)

    def counted(j):
        def coef_at(t):
            steps[j] = max(steps[j], len(t))
            return coefs[j](t)

        return coef_at

    _, larr, parr = numeric._word_system(3, weight)
    batch = [counted(j) for j in range(len(coefs))]
    values, errors = numeric._rk4_batch(batch, larr, parr, 1e-9, 1 << 17)
    assert len(set(steps)) > 2
    for j, coef in enumerate(coefs):
        alone, error = numeric._rk4_batch([coef], larr, parr, 1e-9, 1 << 17)
        assert np.array_equal(values[j], alone[0])
        assert errors[j] == error[0]


def test_batch_fails_if_any_path_fails():
    _, larr, parr = numeric._word_system(1, 2)
    easy = _segment(1.0, 2.0 + 1.0j, (0.0,))  # converges at 256 steps
    slow = _segment(-1.0 + 0.01j, 1.0 + 0.01j, (0.0,))  # needs 2048
    numeric._rk4_batch([easy], larr, parr, 1e-10, 1024)
    with pytest.raises(numeric.QuadratureFailure, match="no convergence"):
        numeric._rk4_batch([easy, slow], larr, parr, 1e-10, 1024)
    # A segment through the branch point gives non-finite values.
    through = _segment(-1.0, 1.0, (0.0,))
    with np.errstate(divide="ignore", invalid="ignore"):
        with pytest.raises(numeric.QuadratureFailure, match="diverged"):
            numeric._rk4_batch([easy, through], larr, parr, 1e-10, 1 << 17)


def test_tolerance_ladder_monotone():
    # Tightening the quadrature tolerance drives every term toward its
    # converged value monotonically. The raw identity residual is not a
    # reliable ladder statistic: at coarse tolerances all terms share one
    # step count and their truncation errors largely cancel in the sum.
    data, maps, letters, alignment, weight = numeric._web(4, None)
    plan = numeric._draw_plan(random.Random(9), maps, letters, 1, 1e-3)
    ref, _ = numeric._plan_terms(maps, letters, plan, weight, 1e-13, 1 << 17)
    deviations = []
    for quad in (1e-4, 1e-7, 1e-10):
        terms, _ = numeric._plan_terms(maps, letters, plan, weight, quad, 1 << 17)
        deviations.append(max(abs(a - b) for a, b in zip(terms, ref)))
    assert deviations[0] >= deviations[1] >= deviations[2]
    assert deviations[2] < deviations[0]


def test_draw_plan_gives_up_cleanly():
    data, maps, letters, alignment, weight = numeric._web(4, None)
    with pytest.raises(numeric.PathTooClose):
        numeric._draw_plan(random.Random(0), maps, letters, 1, 10.0)
