import random

import pytest

from dp_hlog.incidence import enumerate_conics, enumerate_lines
from dp_hlog.lattice import (
    RankMismatch,
    canonical,
    exceptional,
    hyperplane,
    is_conic_class,
    is_line,
    pair,
)
from dp_hlog.wedge_kernel import kernel_signs

from oracles import NotARoot, combine, reflect, roots


def random_class(rng: random.Random, r: int) -> tuple[int, ...]:
    return tuple(rng.randint(-9, 9) for _ in range(r + 1))


def test_pair_diagonal_form() -> None:
    assert pair(hyperplane(4), hyperplane(4)) == 1
    for i in range(1, 5):
        assert pair(hyperplane(4), exceptional(4, i)) == 0
        for j in range(1, 5):
            expected = -1 if i == j else 0
            assert pair(exceptional(4, i), exceptional(4, j)) == expected


def test_canonical_self_pairing_is_degree() -> None:
    # K^2 = 9 - r; the r=5 value 4 is the quoted one.
    assert pair(canonical(5), canonical(5)) == 4
    for r in range(3, 9):
        assert pair(canonical(r), canonical(r)) == 9 - r


def test_pair_symmetric_bilinear() -> None:
    rng = random.Random(20250817)
    for r in (3, 5, 8):
        for _ in range(50):
            a, b, c = (random_class(rng, r) for _ in range(3))
            m, n = rng.randint(-4, 4), rng.randint(-4, 4)
            assert pair(a, b) == pair(b, a)
            assert pair(combine(a, b, by=(m, n)), c) == m * pair(a, c) + n * pair(b, c)


def test_pair_rank_mismatch() -> None:
    with pytest.raises(RankMismatch):
        pair((1, 0, 0, 0), (1, 0, 0, 0, 0))


def test_fundamental_roots() -> None:
    for r in range(3, 9):
        assert len(roots(r)) == r
        for rho in roots(r):
            assert pair(rho, rho) == -2
            assert pair(rho, canonical(r)) == 0


def test_root_gram_matches_dynkin_diagram() -> None:
    # Chain rho_1 .. rho_{r-1}, with rho_r attached to rho_3 (for r >= 4).
    for r in range(3, 9):
        rho = roots(r)
        edges = {(i, i + 1) for i in range(1, r - 1)}
        if r >= 4:
            edges.add((3, r))
        for i in range(1, r + 1):
            for j in range(1, r + 1):
                g = -pair(rho[i - 1], rho[j - 1])
                if i == j:
                    assert g == 2
                elif (min(i, j), max(i, j)) in edges:
                    assert g == -1
                else:
                    assert g == 0


def test_reflect_examples() -> None:
    rho = roots(4)[3]  # h - l1 - l2 - l3
    assert reflect(rho, rho) == combine(rho, by=(-1,))
    assert reflect(rho, canonical(4)) == canonical(4)
    # Hand arithmetic: pair(l1, rho) = 1, so l1 -> l1 + rho = h - l2 - l3.
    assert reflect(rho, exceptional(4, 1)) == (1, 0, -1, -1, 0)


def test_reflect_involution_preserves_pair() -> None:
    rng = random.Random(7)
    for r in (4, 6, 8):
        for rho in roots(r):
            for _ in range(20):
                a, b = random_class(rng, r), random_class(rng, r)
                assert reflect(rho, reflect(rho, a)) == a
                assert pair(reflect(rho, a), reflect(rho, b)) == pair(a, b)


def test_reflect_rejects_non_roots() -> None:
    with pytest.raises(NotARoot):
        reflect(exceptional(4, 1), hyperplane(4))  # l1 has self-pairing -1
    with pytest.raises(NotARoot):
        reflect(canonical(4), hyperplane(4))  # K is not in K-perp
    with pytest.raises(RankMismatch):
        reflect(roots(4)[0], hyperplane(5))
    with pytest.raises(ValueError):
        exceptional(4, 5)


def test_is_line() -> None:
    assert is_line(exceptional(7, 1))
    assert not is_line(hyperplane(7))
    assert not is_line(canonical(7))
    # 3h - sum(l) - l1: a quoted line shape for r=7.
    assert is_line((3, -2, -1, -1, -1, -1, -1, -1))


def test_is_conic_class() -> None:
    assert is_conic_class((1, -1, 0, 0, 0, 0, 0, 0))  # h - l1
    assert not is_conic_class(hyperplane(7))
    assert not is_conic_class(exceptional(7, 2))
    # 5h - 2*sum(l) + l3: a quoted conic shape for r=7.
    assert is_conic_class((5, -2, -2, -1, -2, -2, -2, -2))


def test_classes_are_sorted_tuples_of_ints() -> None:
    # A class is its tuple of r + 1 Python ints (so it dumps to JSON as is),
    # and the tables are in lexicographic order of those tuples.
    for r in range(3, 9):
        tables = (enumerate_lines(r).lines, tuple(f.cls for f in enumerate_conics(r)))
        for classes in tables:
            assert list(classes) == sorted(classes)
            for d in classes:
                assert type(d) is tuple and len(d) == r + 1
                assert all(type(x) is int for x in d)
        for d in (hyperplane(r), exceptional(r, r), canonical(r)):
            assert type(d) is tuple and all(type(x) is int for x in d)
    # A certificate stores the conic classes themselves.
    for r in range(4, 8):
        assert kernel_signs(r).conics == tuple(f.cls for f in enumerate_conics(r))
