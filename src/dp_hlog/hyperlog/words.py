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
        d = _common_denominator(self.terms, other.terms)
        out: dict[Word, int] = {}
        for terms in (self.terms, other.terms):
            for w, c in terms.items():
                out[w] = out.get(w, 0) + c.numerator * (d // c.denominator)
        return _from_numerators(out, d)

    def __sub__(self, other: "WordCombination") -> "WordCombination":
        return self + (-1) * other

    def __rmul__(self, scalar) -> "WordCombination":
        s = Fraction(scalar)
        return WordCombination({w: s * c for w, c in self.terms.items()})

    def __iter__(self):
        return iter(sorted(self.terms.items()))


def _common_denominator(*parts: dict[Word, Fraction]) -> int:
    return math.lcm(*(c.denominator for terms in parts for c in terms.values()))


def _from_numerators(counts: dict[Word, int], denominator: int) -> WordCombination:
    """The combination of the words w with coefficients counts[w] / denominator."""
    return WordCombination({w: Fraction(n, denominator) for w, n in counts.items() if n})


def word(w: Iterable[int]) -> WordCombination:
    return WordCombination({tuple(w): Fraction(1)})


def shuffle(u: Word, v: Word) -> WordCombination:
    """All interleavings of u and v, with multiplicity."""
    return WordCombination(_shuffle_counts(u, v))


def _shuffle_counts(u: Word, v: Word) -> dict[Word, int]:
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
    return counts


def shuffle_combinations(a: WordCombination, b: WordCombination) -> WordCombination:
    """Bilinear extension of the shuffle product, summed in integer numerators."""
    da, db = _common_denominator(a.terms), _common_denominator(b.terms)
    total: dict[Word, int] = {}
    for u, cu in a.terms.items():
        nu = cu.numerator * (da // cu.denominator)
        for v, cv in b.terms.items():
            nuv = nu * cv.numerator * (db // cv.denominator)
            for w, k in _shuffle_counts(u, v).items():
                total[w] = total.get(w, 0) + nuv * k
    return _from_numerators(total, da * db)


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
    correction: dict[Word, int] = {}
    for perm, sign in _signed_permutations(4):
        sigma = (0,) + tuple(p + 1 for p in perm)
        term = _shuffle_counts(
            (letters[sigma[0]], letters[sigma[1]]),
            (letters[sigma[2]], letters[sigma[3]], letters[sigma[4]]),
        )
        for w, k in term.items():
            correction[w] = correction.get(w, 0) + sign * k
    rhs5 = rhs5 + _from_numerators(correction, math.factorial(5) // 2)
    diff5 = lhs5 - rhs5
    reports.append(IdentityReport("weight5", not diff5, diff5))

    return tuple(reports)
