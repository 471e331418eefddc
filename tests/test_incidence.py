import random
from collections import Counter

import pytest

from dp_hlog import incidence
from dp_hlog.incidence import (
    COUNTS,
    FiberCountViolation,
    UnsupportedRank,
    enumerate_conics,
    enumerate_lines,
    reducible_fibers,
)
from dp_hlog.lattice import (
    DivisorClass,
    exceptional,
    hyperplane,
    is_conic_class,
    is_line,
    pair,
    reflect,
    roots,
)

from oracles import rank_for_line_count


def test_line_counts() -> None:
    for r, counts in COUNTS.items():
        expected = counts.lines
        lt = enumerate_lines(r)
        assert len(lt) == expected
        assert len(set(lt.lines)) == expected


def test_lines_pass_predicate_and_are_sorted() -> None:
    for r in (3, 5, 8):
        lt = enumerate_lines(r)
        assert all(is_line(l) for l in lt.lines)
        assert list(lt.lines) == sorted(lt.lines)
        assert all(lt.index[l] == i for i, l in enumerate(lt.lines))


def test_r7_line_shapes() -> None:
    # By h-degree: 7 exceptional, 21 through two points, 21 conic-degree
    # duals, 7 cubics; the quoted partition is 7/21/21/7.
    lt = enumerate_lines(7)
    by_degree = Counter(l.coeffs[0] for l in lt.lines)
    assert by_degree == {0: 7, 1: 21, 2: 21, 3: 7}


def test_conic_counts() -> None:
    lines = {r: enumerate_lines(r) for r in range(3, 9)}
    for r, counts in COUNTS.items():
        expected = counts.conics
        conics = enumerate_conics(r, lines[r])
        assert len(conics) == expected
        assert len({f.cls for f in conics}) == expected


def test_r7_conic_shapes() -> None:
    conics = enumerate_conics(7)
    by_degree = Counter(f.cls.coeffs[0] for f in conics)
    assert by_degree == {1: 7, 2: 35, 3: 42, 4: 35, 5: 7}


def test_conics_pass_predicate_in_canonical_order() -> None:
    conics = enumerate_conics(5)
    assert all(is_conic_class(f.cls) for f in conics)
    assert [f.cls for f in conics] == sorted(f.cls for f in conics)


def test_fiber_structure_all_ranks() -> None:
    for r in range(3, 9):
        lt = enumerate_lines(r)
        covered = set()
        for fib in enumerate_conics(r, lt):
            assert len(fib.fibers) == r - 1
            occurrences = [i for p in fib.fibers for i in p]
            assert len(set(occurrences)) == 2 * (r - 1)
            covered.update(occurrences)
            assert list(fib.fibers) == sorted(fib.fibers)
            for i, j in fib.fibers:
                assert lt.lines[i] + lt.lines[j] == fib.cls
                assert pair(lt.lines[i], lt.lines[j]) == 1
        # every line is a component of some reducible fiber
        assert covered == set(range(len(lt)))


def test_fibers_of_h_minus_l1() -> None:
    # For c = h - l1 the fibers are {h - l1 - lj, lj}, j = 2..r.
    for r in (4, 7):
        lt = enumerate_lines(r)
        c = hyperplane(r) - exceptional(r, 1)
        fibers = reducible_fibers(c, lt)
        assert len(fibers) == r - 1
        expected = {
            frozenset((exceptional(r, j), c - exceptional(r, j))) for j in range(2, r + 1)
        }
        got = {frozenset((lt.lines[i], lt.lines[j])) for i, j in fibers}
        assert got == expected


def test_r7_degree_two_conic_fiber_shapes() -> None:
    # c = 2h - l1 - l2 - l3 - l4: three fibers split the four points into
    # two lines, three pair an exceptional line with a conic-degree line.
    lt = enumerate_lines(7)
    c = DivisorClass((2, -1, -1, -1, -1, 0, 0, 0))
    shapes = Counter(
        tuple(sorted((lt.lines[i].coeffs[0], lt.lines[j].coeffs[0])))
        for i, j in reducible_fibers(c, lt)
    )
    assert shapes == {(1, 1): 3, (0, 2): 3}


def test_non_conic_class_raises_fiber_count() -> None:
    lt = enumerate_lines(4)
    with pytest.raises(FiberCountViolation):
        reducible_fibers(hyperplane(4), lt)


def test_unsupported_rank() -> None:
    with pytest.raises(UnsupportedRank):
        enumerate_lines(9)
    with pytest.raises(UnsupportedRank):
        enumerate_conics(2)


def test_rank_for_line_count() -> None:
    assert [rank_for_line_count(c.lines) for c in COUNTS.values()] == list(COUNTS)
    with pytest.raises(ValueError):
        rank_for_line_count(17)


def test_orbit_independent_of_generator_order() -> None:
    rng = random.Random(11)
    reference = set(enumerate_lines(5).lines)
    for _ in range(3):
        shuffled = list(roots(5))
        rng.shuffle(shuffled)
        seen = {exceptional(5, 5)}
        frontier = [exceptional(5, 5)]
        while frontier:
            nxt = []
            for d in frontier:
                for rho in shuffled:
                    image = reflect(rho, d)
                    if image not in seen:
                        seen.add(image)
                        nxt.append(image)
            frontier = nxt
        assert seen == reference


def test_fibers_match_brute_force_pairs_and_orbit() -> None:
    # Oracle: every pair of lines meeting once, found with pair(), grouped
    # by its sum; and the conic orbit closed one reflection at a time.
    for r in range(3, 9):
        lt = enumerate_lines(r)
        by_sum: dict = {}
        for i, a in enumerate(lt.lines):
            for j in range(i + 1, len(lt)):
                if pair(a, lt.lines[j]) == 1:
                    by_sum.setdefault(a + lt.lines[j], []).append((i, j))
        seed = hyperplane(r) - exceptional(r, 1)
        orbit, frontier = {seed}, [seed]
        while frontier:
            images = {reflect(rho, d) for d in frontier for rho in roots(r)}
            frontier = list(images - orbit)
            orbit |= images
        assert orbit == set(by_sum)
        conics = enumerate_conics(r, lt)
        assert {f.cls: list(f.fibers) for f in conics} == by_sum


def _closure(seed: DivisorClass) -> list[DivisorClass]:
    # One reflection at a time on DivisorClass values, sorted at the end.
    orbit, frontier = {seed}, [seed]
    while frontier:
        images = {reflect(rho, d) for d in frontier for rho in roots(seed.rank)}
        frontier = list(images - orbit)
        orbit |= images
    return sorted(orbit)


def test_tables_are_the_sorted_brute_force_closures() -> None:
    for r in range(3, 9):
        lt = enumerate_lines(r)
        assert list(lt.lines) == _closure(exceptional(r, r))
        conics = enumerate_conics(r, lt)
        assert [f.cls for f in conics] == _closure(hyperplane(r) - exceptional(r, 1))


def test_coefficient_reflections_and_generator_table_match_lattice_reflect() -> None:
    # The swap and Cremona formulas against d + pair(d, rho) rho, on every
    # line and conic; the table against a lookup of reflect's images.
    for r in range(3, 9):
        lt = enumerate_lines(r)
        classes = list(lt.lines) + [f.cls for f in enumerate_conics(r, lt)]
        for g, rho in enumerate(roots(r)):
            for d in classes:
                assert DivisorClass(incidence._reflect(d.coeffs, g)) == reflect(rho, d)
            assert lt.generators[g] == tuple(lt.index[reflect(rho, l)] for l in lt.lines)


@pytest.mark.parametrize("swap", [True, False])
@pytest.mark.parametrize("r", [4, 6, 8])
def test_corrupted_generator_permutation_is_caught(r: int, swap: bool) -> None:
    # The reflection in l1 - l2 carries the fibers {l_j, h - l1 - l_j} of the
    # seed h - l1 onto those of h - l2. Swapping the images of l2 and l3, or
    # sending both to one line, breaks a carried fiber.
    lt = enumerate_lines(r)
    i, k = lt.index[exceptional(r, 2)], lt.index[exceptional(r, 3)]
    row = list(lt.generators[0])
    row[i], row[k] = (row[k], row[i]) if swap else (row[k], row[k])
    object.__setattr__(lt, "generators", (tuple(row),) + lt.generators[1:])
    with pytest.raises(FiberCountViolation):
        enumerate_conics(r, lt)
