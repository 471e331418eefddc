import itertools
import random
import tracemalloc

import numpy as np
import pytest
import sympy

from dp_hlog.incidence import COUNTS, UnsupportedRank, enumerate_conics, enumerate_lines
from dp_hlog.lattice import canonical, exceptional, hyperplane
from dp_hlog.rep_theory import _conic_images, _power_fixed_counts, _signed_cycle_type, d5_classes
from dp_hlog.weyl import GroupTooLarge, chain, group_data

from oracles import (
    GAP_D5_CLASS_WORDS,
    ZETA_TO_S,
    bfs_closure,
    chain_elements,
    combine,
    degrees,
    enumerate_group,
    generators,
    height_counts,
    induced_matrix,
    poincare_polynomial,
    positive_roots,
    stabilizer_order,
)


def compose(p: tuple[int, ...], q: tuple[int, ...]) -> tuple[int, ...]:
    """p after q."""
    return tuple(p[q[i]] for i in range(len(q)))


def element_from_word(r: int, word: tuple[int, ...]) -> tuple[int, ...]:
    gens = generators(r)
    perm = tuple(range(len(gens[0].perm)))
    for g in word:
        perm = compose(perm, gens[g].perm)
    return perm


def test_generators_are_involutions_with_sign_minus_one() -> None:
    for r in (3, 5, 8):
        gens = generators(r)
        assert len(gens) == r
        identity = tuple(range(len(gens[0].perm)))
        for g in gens:
            assert g.sign == -1
            assert sorted(g.perm) == list(identity)
            assert compose(g.perm, g.perm) == identity


def test_r5_single_reflection_fixes_eight_lines() -> None:
    # chi_5 on the class of one reflection is 8; all fundamental
    # reflections are conjugate (simply laced diagram), so each fixes 8.
    gens = np.array(enumerate_lines(5).generators, dtype=np.uint8)
    assert _power_fixed_counts(gens, 1)[:, 0].tolist() == [8] * 5


def test_r7_generator_fixed_counts() -> None:
    gens = np.array(enumerate_lines(7).generators, dtype=np.uint8)
    fixed = _power_fixed_counts(gens, 1)[:, 0]
    for g, count in zip(gens.tolist(), fixed.tolist()):
        two_cycles = sum(1 for i, img in enumerate(g) if img > i)
        assert count == 56 - 2 * two_cycles


def test_group_orders_small() -> None:
    for r in (3, 4, 5, 6):
        count = 0
        seen = set()
        for e in enumerate_group(r):
            count += 1
            seen.add(e.perm)
        assert count == COUNTS[r].group_order
        assert len(seen) == count
        assert len(group_data(r)) == count


def test_chain_equals_the_bfs_closure() -> None:
    for r in (3, 4, 5, 6):
        closure = bfs_closure(r)
        level_of = {p.tobytes(): int(v) for p, v in zip(closure.perms, closure.levels)}
        elements = list(chain_elements(r))
        assert len(elements) == len(level_of) == COUNTS[r].group_order
        # the same permutations, each with its BFS level as its chain length
        assert {perm.tobytes(): length for perm, length in elements} == level_of
        identity, length = elements[0]
        assert identity.tolist() == list(range(len(identity))) and length == 0


def test_length_distribution_is_the_bfs_level_count() -> None:
    for r in (3, 4, 5, 6):
        expected = np.bincount(bfs_closure(r).levels).tolist()
        assert group_data(r).length_distribution() == expected


# Rank -> number of positive roots and degrees of E_r (A2 x A1, A4, D5, E6,
# E7, E8).
ROOT_SYSTEMS = {
    3: (4, [2, 2, 3]),
    4: (10, [2, 3, 4, 5]),
    5: (20, [2, 4, 5, 6, 8]),
    6: (36, [2, 5, 6, 8, 9, 12]),
    7: (63, [2, 6, 8, 10, 12, 14, 18]),
    8: (120, [2, 8, 12, 14, 18, 20, 24, 30]),
}


def _poincare_route_matches(r: int, counts: list[int]) -> bool:
    """The Poincare polynomial of the degrees read off the height counts
    against the group: at q = 1 against the order in COUNTS, and at r <= 7
    coefficient by coefficient against the chain's length distribution."""
    poly = poincare_polynomial(degrees(counts))
    if sum(poly) != COUNTS[r].group_order:
        return False
    return r == 8 or poly == group_data(r).length_distribution()


def test_the_poincare_polynomial_is_the_length_distribution() -> None:
    # A route to the order and the lengths from the root system alone.
    for r, (count, expected) in ROOT_SYSTEMS.items():
        positive = positive_roots(r)
        assert len(positive) == count
        counts = height_counts(positive)
        assert degrees(counts) == expected
        assert _poincare_route_matches(r, counts)


def test_a_dropped_root_or_a_moved_height_count_fails_the_poincare_route() -> None:
    for r in ROOT_SYSTEMS:
        positive = positive_roots(r)
        highest = max(positive, key=sum)
        assert not _poincare_route_matches(r, height_counts([c for c in positive if c != highest]))
        counts = height_counts(positive)
        # One root moved from height 1 to the largest height.
        moved = [counts[0] - 1] + counts[1:-1] + [counts[-1] + 1]
        assert not _poincare_route_matches(r, moved)


def _bases(r: int, lt) -> list[int]:
    return [lt.index[exceptional(r, k)] for k in range(2, r + 1)]


def test_a_generator_with_two_images_swapped_fails_the_chain() -> None:
    rng = random.Random(13)
    for r in (4, 6):
        lt = enumerate_lines(r)
        gens = np.array(lt.generators, dtype=np.uint8)
        top, lower, levels = chain(gens, _bases(r, lt))
        assert len(top) * len(lower) == len(levels) == COUNTS[r].group_order
        swaps = list(itertools.product(range(r), itertools.combinations(range(gens.shape[1]), 2)))
        for g, (a, b) in swaps if r == 4 else rng.sample(swaps, 60):
            broken = gens.copy()
            broken[g, [a, b]] = broken[g, [b, a]]
            with pytest.raises(RuntimeError):
                chain(broken, _bases(r, lt))


def test_group_data_holds_no_array_larger_than_one_block() -> None:
    # At r = 7 one block is |W(E_6)| = 51,840 elements on 56 lines; the
    # group itself (|W| x 56 bytes) is never materialized.
    lt = enumerate_lines(7)
    gens, bases = np.array(lt.generators, dtype=np.uint8), _bases(7, lt)
    tracemalloc.start()
    try:
        chain(gens, bases)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * 51840 * 56
    gd = group_data(7)
    held = [getattr(gd, name) for name in gd.__slots__]
    sizes = [a.size for a in held if isinstance(a, np.ndarray)]
    assert len(sizes) == 3 and max(sizes) <= 51840 * 56
    assert len(gd) == COUNTS[7].group_order


def test_enumerate_group_refuses_r8() -> None:
    with pytest.raises(GroupTooLarge):
        list(enumerate_group(8))
    with pytest.raises(UnsupportedRank):
        list(enumerate_group(9))


def test_words_and_signs_are_witnesses() -> None:
    rng = random.Random(3)
    elements = list(enumerate_group(4))
    for e in rng.sample(elements, 25):
        assert e.sign == (-1) ** len(e.word)
        assert element_from_word(4, e.word) == e.perm


def test_sign_is_a_homomorphism_and_group_is_closed() -> None:
    rng = random.Random(5)
    elements = list(enumerate_group(5))
    by_perm = {e.perm: e for e in elements}
    for _ in range(60):
        a, b = rng.choice(elements), rng.choice(elements)
        product = compose(a.perm, b.perm)
        assert product in by_perm
        assert by_perm[product].sign == a.sign * b.sign


def test_group_acts_transitively_on_lines_and_conics() -> None:
    r = 4
    lt = enumerate_lines(r)
    seed_line = lt.index[exceptional(r, r)]
    line_orbit = {e.perm[seed_line] for e in enumerate_group(r)}
    assert line_orbit == set(range(len(lt)))
    conics = enumerate_conics(r)
    i, j = conics[0].fibers[0]
    conic_orbit = {combine(lt.lines[e.perm[i]], lt.lines[e.perm[j]]) for e in enumerate_group(r)}
    assert conic_orbit == {f.cls for f in conics}


def test_stabilizer_orders() -> None:
    # orbit-stabilizer: 120/5 = 24 and 1920/10 = 192 for the conic seeds
    for r, order in ((4, 24), (5, 192)):
        assert stabilizer_order(r, combine(hyperplane(r), exceptional(r, 1), by=(1, -1))) == order
    # 1920/16 = 120 for a line
    assert stabilizer_order(5, exceptional(5, 5)) == 120
    with pytest.raises(ValueError):
        stabilizer_order(4, hyperplane(4))
    with pytest.raises(GroupTooLarge):
        stabilizer_order(8, exceptional(8, 1))


def test_induced_matrix_determinant_is_sign() -> None:
    rng = random.Random(9)
    lt = enumerate_lines(4)
    elements = list(enumerate_group(4))
    for e in rng.sample(elements, 10):
        mat = sympy.Matrix(induced_matrix(e, lt))
        assert int(mat.det()) == e.sign
        # the matrix must map each line class to its image class
        for i in (0, 3, 7):
            src = sympy.Matrix(lt.lines[i])
            dst = sympy.Matrix(lt.lines[e.perm[i]])
            assert mat * src == dst


def conjugacy_class(r: int, perm: tuple[int, ...]) -> frozenset[tuple[int, ...]]:
    """Closure of perm under conjugation by the (involutive) generators."""
    gens = [g.perm for g in generators(r)]
    seen = {perm}
    frontier = [perm]
    while frontier:
        nxt = []
        for p in frontier:
            for s in gens:
                q = compose(s, compose(p, s))
                if q not in seen:
                    seen.add(q)
                    nxt.append(q)
        frontier = nxt
    return frozenset(seen)


def test_d5_class_representatives() -> None:
    reps = d5_classes()[0]
    assert reps.shape == (18, 16) and reps.dtype == np.uint8
    fixed = _power_fixed_counts(reps, 1)[:, 0]
    assert fixed[0] == 16  # identity
    assert fixed[7] == 4  # class 8
    assert fixed[17] == 1  # class 18
    # 18 distinct classes: conjugation orbits are pairwise disjoint and
    # exhaust the group. (Fixed-point counts of powers plus sign would
    # separate only 14 of the 18, so the honest check is the orbits.)
    classes = [conjugacy_class(5, tuple(perm)) for perm in reps.tolist()]
    assert sum(len(c) for c in classes) == COUNTS[5].group_order
    for a in range(18):
        for b in range(a + 1, 18):
            assert not (classes[a] & classes[b])


def test_d5_representatives_word_translation_is_consistent() -> None:
    # GAP's word for class k, translated into root indices, has the signed
    # cycle type on the conic pairs of the k-th representative: GAP's columns
    # are the classes of CLASS_LABELS, in their order.
    conics = enumerate_conics(5)
    index = {f.cls: c for c, f in enumerate(conics)}
    partner = [index[combine(canonical(5), f.cls, by=(-1, -1))] for f in conics]

    def signed_type(perm):
        images = _conic_images(np.array([perm], dtype=np.uint8), 5)[0].tolist()
        return _signed_cycle_type(images, partner)

    reps = d5_classes()[0].tolist()
    for perm, zeta_word in zip(reps, GAP_D5_CLASS_WORDS, strict=True):
        word = tuple(ZETA_TO_S[z] - 1 for z in zeta_word)
        assert signed_type(element_from_word(5, word)) == signed_type(perm)


def test_enumerate_group_rejects_foreign_line_table() -> None:
    lt = enumerate_lines(5)
    shuffled = type(lt)(5, tuple(reversed(lt.lines)))
    with pytest.raises(ValueError):
        next(enumerate_group(5, shuffled))
