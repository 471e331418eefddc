"""Shuffle-algebra laws on random rational word combinations."""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from dp_hlog.hyperlog.words import (
    WordCombination,
    asym,
    shuffle,
    shuffle_combinations,
    word,
)

laws = settings(derandomize=True, deadline=None)
words = st.lists(st.integers(0, 2), max_size=3).map(tuple)
rationals = st.fractions(min_value=-3, max_value=3, max_denominator=6)
combinations = st.dictionaries(words, rationals, max_size=3).map(WordCombination)


@laws
@given(rationals, words, words)
def test_one_term_products_are_scaled_shuffles(c, u, v):
    assert shuffle_combinations(c * word(u), word(v)) == c * shuffle(u, v)


@laws
@given(combinations, combinations)
def test_shuffle_is_commutative(a, b):
    assert shuffle_combinations(a, b) == shuffle_combinations(b, a)


@laws
@given(combinations, combinations, combinations)
def test_shuffle_is_associative(a, b, c):
    left = shuffle_combinations(shuffle_combinations(a, b), c)
    right = shuffle_combinations(a, shuffle_combinations(b, c))
    assert left == right


@laws
@given(combinations, combinations, combinations, rationals)
def test_shuffle_is_bilinear(a, b, c, q):
    assert shuffle_combinations(a + b, c) == (
        shuffle_combinations(a, c) + shuffle_combinations(b, c)
    )
    assert shuffle_combinations(q * a, c) == q * shuffle_combinations(a, c)


@laws
@given(st.lists(st.integers(0, 4), min_size=2, max_size=5), st.data())
def test_asym_flips_sign_under_a_transposition(w, data):
    i, j = data.draw(
        st.lists(
            st.integers(0, len(w) - 1), min_size=2, max_size=2, unique=True
        )
    )
    swapped = list(w)
    swapped[i], swapped[j] = swapped[j], swapped[i]
    assert asym(tuple(swapped)) == Fraction(-1) * asym(tuple(w))
