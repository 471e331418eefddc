"""Exact shuffle algebra on words of 1-form letters.

Words are tuples of integer letters (indices into a basis of logarithmic
1-forms); combinations carry exact rational coefficients. The first letter
of a word is the outermost integration form.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Iterable, NamedTuple

from ..records import Record

Word = tuple[int, ...]


class WordCombination(Record):
    """Finite rational linear combination of words; zero terms are dropped.

    Combinations are equal when their terms are, and are not hashable.
    """

    __slots__ = ("terms",)
    terms: dict[Word, Fraction]

    def __init__(self, terms: dict | None = None) -> None:
        clean = {}
        for w, c in (terms or {}).items():
            # The sums and products of combinations are Fractions already.
            if c.__class__ is not Fraction:
                c = Fraction(c)
            if c:
                clean[tuple(w)] = c
        object.__setattr__(self, "terms", clean)

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, WordCombination):
            return NotImplemented
        return self.terms == other.terms

    def __add__(self, other: "WordCombination") -> "WordCombination":
        out = dict(self.terms)
        for w, c in other.terms.items():
            out[w] = out.get(w, Fraction(0)) + c
        return WordCombination(out)

    def __sub__(self, other: "WordCombination") -> "WordCombination":
        return self + (-1) * other

    def __rmul__(self, scalar) -> "WordCombination":
        s = Fraction(scalar)
        return WordCombination({w: s * c for w, c in self.terms.items()})

    def __iter__(self):
        return iter(sorted(self.terms.items()))


def word(w: Iterable[int]) -> WordCombination:
    return WordCombination({tuple(w): Fraction(1)})


def shuffle(u: Word, v: Word) -> WordCombination:
    """All interleavings of u and v, with multiplicity."""
    counts: dict[Word, int] = {}
    for positions in itertools.combinations(range(len(u) + len(v)), len(u)):
        merged = [0] * (len(u) + len(v))
        pos_set = set(positions)
        iu = iter(u)
        iv = iter(v)
        for i in range(len(merged)):
            merged[i] = next(iu) if i in pos_set else next(iv)
        key = tuple(merged)
        counts[key] = counts.get(key, 0) + 1
    return WordCombination(counts)


def shuffle_combinations(a: WordCombination, b: WordCombination) -> WordCombination:
    """Bilinear extension of the shuffle product."""
    total: dict[Word, Fraction] = {}
    for u, cu in a.terms.items():
        for v, cv in b.terms.items():
            cuv = cu * cv
            for w, c in shuffle(u, v).terms.items():
                total[w] = total.get(w, Fraction(0)) + cuv * c
    return WordCombination(total)


def _signed_permutations(n: int):
    for perm in itertools.permutations(range(n)):
        inversions = sum(
            1 for i in range(n) for j in range(i + 1, n) if perm[i] > perm[j]
        )
        yield perm, -1 if inversions & 1 else 1


def asym(w: Word) -> WordCombination:
    """(1/|w|!) sum of signed letter permutations of w."""
    n = len(w)
    counts: dict[Word, int] = {}
    for perm, sign in _signed_permutations(n):
        key = tuple(w[p] for p in perm)
        counts[key] = counts.get(key, 0) + sign
    norm = math.factorial(n)
    return WordCombination({key: Fraction(c, norm) for key, c in counts.items()})


class IdentityReport(NamedTuple):
    name: str
    passed: bool
    difference: WordCombination


def _r(a: int, b: int) -> WordCombination:
    """The weight-2 antisymmetric symbol (ab - ba)/2."""
    return asym((a, b))


def verify_asym_shuffle_identities() -> tuple[IdentityReport, ...]:
    """Check the three closed product formulas for Asym^s, s = 3, 4, 5.

    Each identity is verified exactly on a generic alphabet (distinct
    letters 0..4); a report entry carries the difference combination, which
    must be empty.
    """
    a1, a2, a3, a4, a5 = range(5)
    reports = []

    lhs3 = asym((a1, a2, a3))
    rhs3 = Fraction(1, 3) * (
        shuffle_combinations(word((a1,)), _r(a2, a3))
        - shuffle_combinations(word((a2,)), _r(a1, a3))
        + shuffle_combinations(word((a3,)), _r(a1, a2))
    )
    diff3 = lhs3 - rhs3
    reports.append(IdentityReport("weight3", not diff3, diff3))

    lhs4 = asym((a1, a2, a3, a4))
    rhs4 = Fraction(1, 6) * (
        shuffle_combinations(_r(a1, a2), _r(a3, a4))
        - shuffle_combinations(_r(a1, a3), _r(a2, a4))
        + shuffle_combinations(_r(a1, a4), _r(a2, a3))
    )
    diff4 = lhs4 - rhs4
    reports.append(IdentityReport("weight4", not diff4, diff4))

    letters = (a1, a2, a3, a4, a5)
    lhs5 = asym(letters)
    rhs5 = Fraction(1, 5) * shuffle_combinations(
        word((a1,)), asym((a2, a3, a4, a5))
    )
    correction = WordCombination()
    for perm, sign in _signed_permutations(4):
        sigma = (0,) + tuple(p + 1 for p in perm)
        term = shuffle(
            (letters[sigma[0]], letters[sigma[1]]),
            (letters[sigma[2]], letters[sigma[3]], letters[sigma[4]]),
        )
        correction = correction + sign * term
    rhs5 = rhs5 + Fraction(2, 120) * correction
    diff5 = lhs5 - rhs5
    reports.append(IdentityReport("weight5", not diff5, diff5))

    return tuple(reports)
