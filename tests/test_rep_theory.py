"""Character computations: fixed points, exterior powers, decompositions."""

import itertools
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dp_hlog import d5_data, rep_theory as rt
from dp_hlog.incidence import COUNTS, enumerate_lines
from dp_hlog.lattice import RankMismatch
from dp_hlog.weyl import GroupTooLarge, group_data

from oracles import (
    d5_conic_values,
    enumerate_group,
    fixed_points,
    generators,
    reflection_character_value,
    spanning_inverse,
)

# Frozen independently computed values.
D5_CLASS_SIZES = (1, 10, 5, 20, 60, 60, 20, 60, 60, 120, 80, 160, 80, 160, 160, 240, 240, 384)
CHI5 = (16, 0, 0, 8, 0, 0, 0, 4, 0, 0, 4, 0, 0, 2, 0, 2, 0, 1)
WEDGE3_CHI5 = (560, 0, 0, 24, 0, 0, 0, -20, 0, 0, 8, 0, 0, 0, 0, -2, 0, 0)
WEDGE3_MULTS = (1, 1, 0, 4, 5, 4, 1, 1, 6, 0, 5, 6, 3, 3, 1, 2, 2, 0)


def _wedge(powersums) -> int:
    """e_m of one row of power sums p_1..p_m."""
    return int(rt._elementary_from_powers(np.array([powersums], dtype=np.int64))[0])


def test_fixed_points_powers_of_involution():
    gens = np.array(enumerate_lines(5).generators, dtype=np.uint8)
    for g, counts in zip(gens, rt._power_fixed_counts(gens, 3).tolist()):
        moved = int((g != np.arange(16)).sum())
        assert counts == [16 - moved, 16, 16 - moved]


def test_exterior_power_value_binomial():
    # On the identity, e_m of n ones is C(n, m).
    assert _wedge((16, 16, 16)) == 560
    assert _wedge((56,) * 5) == 3819816
    assert _wedge((10, 10)) == 45


def test_exterior_power_value_errors():
    with pytest.raises(rt.InternalError):
        # (p1^2 - p2)/2 is not an integer for these fake inputs.
        _wedge((1, 2))


@settings(derandomize=True, deadline=None)
@given(st.integers(1, 24).flatmap(lambda n: st.permutations(range(n))), st.integers(0, 8))
def test_newton_recurrences_agree_on_permutation_power_sums(perm, m):
    # p_k = tr(P^k) counts the points perm^k fixes. Independently, e_m of the
    # eigenvalues of P is the t^m coefficient of det(1 + tP), the product
    # over the cycles of perm of 1 - (-t)^length.
    cycles, seen = [], set()
    for start in range(len(perm)):
        length, i = 0, start
        while i not in seen:
            seen.add(i)
            i, length = perm[i], length + 1
        if length:
            cycles.append(length)
    det = [1]
    for length in cycles:
        shifted = [0] * length + [-((-1) ** length) * c for c in det]
        det = [a + b for a, b in itertools.zip_longest(det, shifted, fillvalue=0)]
    expected = det[m] if m < len(det) else 0
    powersums = [sum(c for c in cycles if k % c == 0) for k in range(1, m + 1)]
    counted = rt._power_fixed_counts(np.array([perm], dtype=np.uint8), m)
    assert counted.tolist() == [powersums]
    vector = rt._elementary_from_powers(counted)
    assert vector.dtype == np.int64 and vector.tolist() == [expected]


def test_samples_are_class_functions():
    chi = rt.line_character(4)
    con = rt.conic_character(4)
    refl = rt.reflection_character(4)
    pos = {e.perm: i for i, e in enumerate(enumerate_group(4))}
    elements = list(pos)
    rng = random.Random(41)
    for _ in range(40):
        g = rng.choice(elements)
        h = rng.choice(elements)
        hinv = tuple(sorted(range(len(h)), key=h.__getitem__))
        conj = tuple(h[g[hinv[i]]] for i in range(len(g)))
        for sample in (chi, con, refl):
            assert sample.values[pos[conj]] == sample.values[pos[g]]


def test_degrees_at_identity():
    for r, (l, kappa) in {4: (10, 5), 5: (16, 10), 6: (27, 27)}.items():
        # len() of a sample and of the group data is the group order.
        assert len(rt.line_character(r)) == len(group_data(r)) == COUNTS[r].group_order
        assert rt.line_character(r).values[0] == l
        assert rt.conic_character(r).values[0] == kappa
        assert rt.reflection_character(r).values[0] == r


def test_reflection_character_value_matches_bulk():
    refl = rt.reflection_character(4)
    for i, e in enumerate(itertools.islice(enumerate_group(4), 60)):
        assert reflection_character_value(e) == refl.values[i]


def test_reflection_character_value_r8_generator():
    # Single elements stay available at r=8 even though enumeration is not.
    g = generators(8)[0]
    assert reflection_character_value(g) == 6


def test_inner_products_small_ranks():
    expected = {4: (3, 2, 2), 5: (3, 3, 2), 6: (3, 3, 3)}
    for r, (chi_norm, con_norm, cross) in expected.items():
        chi = rt.line_character(r)
        con = rt.conic_character(r)
        one = rt.trivial_character(r)
        refl = rt.reflection_character(r)
        assert rt.inner_product(chi, one) == 1
        assert rt.inner_product(con, one) == 1
        assert rt.inner_product(chi, refl) == 1
        assert rt.inner_product(chi, chi) == chi_norm
        assert rt.inner_product(con, con) == con_norm
        assert rt.inner_product(con, chi) == cross


def test_inner_product_rank_mismatch():
    with pytest.raises(RankMismatch):
        rt.inner_product(rt.line_character(4), rt.line_character(5))


def test_signature_multiplicity_small_ranks():
    assert rt.signature_multiplicity(4) == 0
    assert rt.signature_multiplicity(5) == 0
    assert rt.signature_multiplicity(6) == 0


def test_signature_multiplicity_matches_elementwise_route():
    # Cross-check the vectorized chunk path against a plain Python sum.
    total = 0
    for e in enumerate_group(4):
        p1, p2 = (fixed_points(e.perm, k) for k in (1, 2))
        total += e.sign * ((p1 * p1 - p2) // 2)
    assert Fraction(total, 120) == rt.signature_multiplicity(4)


@pytest.mark.parametrize("r", [4, 5, 6])
def test_double_coset_blocks_weigh_to_the_full_sum(r):
    # Per block t o W_(r-1): the signed e_(r-2) and the power sums
    # p_1..p_(r-2), which do not vanish; one block per double coset, times
    # its weight, must give the sum over every block.
    gd = group_data(r)
    l, step = len(gd.lt), len(gd.lower)
    sums = []
    for j, t in enumerate(gd.top):
        powers = rt._power_fixed_counts(t[gd.lower[:, :l]], r - 2)
        signs = 1 - 2 * (gd.levels[j * step : (j + 1) * step] & 1).astype(np.int64)
        sums.append([int(signs @ rt._elementary_from_powers(powers)), *powers.sum(axis=0)])
    sums = np.array(sums, dtype=np.int64)
    blocks, counts = rt._double_coset_blocks(r)
    assert len(blocks) < counts.sum() == len(gd.top)
    assert (counts @ sums[blocks]).tolist() == sums.sum(axis=0).tolist()
    assert sums[:, 1:].sum(axis=0).all()


def test_signature_multiplicity_rejections():
    with pytest.raises(GroupTooLarge):
        rt.signature_multiplicity(8)
    with pytest.raises(ValueError):
        rt.signature_multiplicity(3)


def test_d5_class_sizes():
    sizes = rt.d5_class_sizes()
    assert sizes == D5_CLASS_SIZES
    assert sum(sizes) == 1920
    assert sizes[0] == 1


def test_d5_line_character_values_and_decomposition():
    assert rt.d5_chi_values() == CHI5
    mults = rt.d5_decompose(CHI5)
    names = [d5_data.IRREDUCIBLE_LABELS[s] for s, m in enumerate(mults) if m]
    assert all(m in (0, 1) for m in mults)
    assert names == ["[2.3]", "[1.4]", "[.5]"]


def test_d5_expectations_match_frozen_values():
    assert d5_data.D5_CHI == CHI5
    assert d5_data.D5_WEDGE3 == WEDGE3_CHI5
    assert d5_data.D5_WEDGE3_MULTS == WEDGE3_MULTS
    assert d5_data.D5_CHI_PARTS == ("[.5]", "[1.4]", "[2.3]")


def test_d5_wedge3_values_and_decomposition():
    assert rt.d5_wedge3_values() == WEDGE3_CHI5
    assert rt.d5_decompose(WEDGE3_CHI5) == WEDGE3_MULTS
    degrees = [row[0] for row in d5_data.CHARACTER_TABLE]
    assert sum(m * d for m, d in zip(WEDGE3_MULTS, degrees)) == 560


def test_d5_conic_decomposition():
    mults = rt.d5_decompose(d5_conic_values())
    names = [d5_data.IRREDUCIBLE_LABELS[s] for s, m in enumerate(mults) if m]
    assert all(m in (0, 1) for m in mults)
    assert names == ["[1.4]", "[.41]", "[.5]"]


def test_d5_decompose_roundtrip_random():
    rng = random.Random(55)
    for _ in range(10):
        mults = [rng.randrange(0, 4) for _ in range(18)]
        values = [
            sum(mults[s] * d5_data.CHARACTER_TABLE[s][c] for s in range(18))
            for c in range(18)
        ]
        assert rt.d5_decompose(values) == tuple(mults)


def test_d5_decompose_rejects_non_character():
    values = list(CHI5)
    values[1] += 1
    with pytest.raises(rt.NotACharacter):
        rt.d5_decompose(values)
    with pytest.raises(ValueError):
        rt.d5_decompose([1] * 17)


def test_class_values_consistent_with_full_group_sums():
    # The same inner product through class sizes and through the raw stream.
    sizes = rt.d5_class_sizes()
    via_classes = Fraction(sum(s * v * v for s, v in zip(sizes, CHI5)), 1920)
    chi = rt.line_character(5)
    assert via_classes == rt.inner_product(chi, chi)


def test_trace_table_is_the_exact_inverse_table():
    # The closed-form coordinates against V^-1 times every line, with V^-1
    # from an exact rational inversion.
    for r in range(3, 9):
        inv, kcols = spanning_inverse(r)
        table, cols = rt._trace_table(r)
        assert np.array_equal(cols, kcols)
        coeffs = np.array([l.coeffs for l in enumerate_lines(r).lines], dtype=np.int64)
        assert np.array_equal(table, inv @ coeffs.T)


def test_inner_product_sums_in_place():
    # Two |W(E_7)|-element int8 samples: an int64 copy of either would take
    # 22 MiB, and 2^18-element chunks of both about 4 MiB.
    n = COUNTS[7].group_order
    chi, psi = (rt.ClassFunctionSample(np.full(n, 127, dtype=np.int8), 7) for _ in range(2))
    tracemalloc.start()
    try:
        value = rt.inner_product(chi, psi)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert value == 16129
    assert peak < 2**20
    # Alternating signs: half the products are 127 * -126.
    mixed = rt.ClassFunctionSample(np.where(np.arange(n) % 2, -126, 127).astype(np.int8), 7)
    assert rt.inner_product(chi, mixed) == Fraction(127, 2)
