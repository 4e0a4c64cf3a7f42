"""The word product and the operator against a plain reference on factor tuples.

The product and ``N`` work on the canonical text of words.  The
reference works on the tuple model of :mod:`conftest`, with no cache
and no shared code with :mod:`nijenhuis.algebra` or
:mod:`nijenhuis.words`.  A word is a tuple of factors; a factor is
``("L", names)`` for a letter run or ``("B", word)`` for a bracket.  A
product is a dict from such words to nonzero Fractions.
"""

from __future__ import annotations

from fractions import Fraction

from hypothesis import given

from nijenhuis import algebra
from nijenhuis.algebra import first_operator_identity_failure, operator_n, product_words
from nijenhuis.linalg import LinComb
from nijenhuis.words import BracketedWord, canonical_key, words_up_to_size

from conftest import (
    ALPHABET_XY,
    ALPHABET_XYZ,
    parse_reference as as_tuple,
    reference_text,
    words_strategy,
)


def from_tuple(word: tuple):
    """A word built anew from its text through the checked constructor."""
    return BracketedWord(reference_text(word))


def _add(total: dict, terms: dict, sign: int) -> None:
    for w, c in terms.items():
        total[w] = total.get(w, Fraction(0)) + sign * c
        if not total[w]:
            del total[w]


def _wrap(terms: dict) -> dict:
    return {(("B", w),): c for w, c in terms.items()}


def reference_product(u: tuple, v: tuple) -> dict:
    """Product of two words by the junction rule, computed from scratch."""
    last, first = u[-1], v[0]
    if last[0] == "L" and first[0] == "L":
        junction = {(("L", last[1] + first[1]),): Fraction(1)}
    elif last[0] != first[0]:
        junction = {(last, first): Fraction(1)}
    else:
        # [a] . [b] = [[a] . b] + [a . [b]] - [[a . b]]
        a, b = last[1], first[1]
        junction = {}
        _add(junction, _wrap(reference_product((last,), b)), 1)
        _add(junction, _wrap(reference_product(a, (first,))), 1)
        _add(junction, _wrap(_wrap(reference_product(a, b))), -1)
    return {u[:-1] + w + v[1:]: c for w, c in junction.items()}


def as_dict(value) -> dict:
    return {as_tuple(w): c for w, c in value}


POOL = words_up_to_size(ALPHABET_XY, 3)


def check_all_pairs(pool) -> None:
    for u in pool:
        for v in pool:
            assert as_dict(product_words(u, v)) == reference_product(as_tuple(u), as_tuple(v)), (
                str(u),
                str(v),
            )


def test_product_matches_reference_on_all_pairs_up_to_size_three():
    assert len(POOL) ** 2 == 900
    check_all_pairs(POOL)


def test_product_matches_reference_on_all_pairs_up_to_size_four():
    pool = words_up_to_size(ALPHABET_XY, 4)
    assert len(pool) ** 2 == 13456
    check_all_pairs(pool)


@given(words_strategy(max_size=4), words_strategy(max_size=4))
def test_product_matches_reference_at_size_four(u, v):
    assert as_dict(product_words(u, v)) == reference_product(as_tuple(u), as_tuple(v))


@given(words_strategy(ALPHABET_XYZ, max_size=4), words_strategy(ALPHABET_XYZ, max_size=4))
def test_product_matches_reference_over_three_letters(u, v):
    assert as_dict(product_words(u, v)) == reference_product(as_tuple(u), as_tuple(v))


def test_operator_matches_reference():
    for w in words_up_to_size(ALPHABET_XYZ, 3):
        assert as_dict(operator_n(LinComb.from_word(w))) == _wrap({as_tuple(w): Fraction(1)})


def test_product_matches_reference_with_the_word_tables_warm():
    # A sweep first fills the product cache and the memos that split
    # words at their end brackets, so the products below read them.
    assert first_operator_identity_failure([LinComb.from_word(w) for w in POOL]) is None
    assert algebra._PRODUCT_CACHE
    assert algebra._split_last.cache_info().currsize and algebra._split_first.cache_info().currsize
    check_all_pairs(POOL)
    for u in words_up_to_size(ALPHABET_XY, 4):
        for v in words_up_to_size(ALPHABET_XY, 2):
            assert as_dict(product_words(u, v)) == reference_product(as_tuple(u), as_tuple(v))
    for (last, first), junction in algebra._PRODUCT_CACHE.items():
        for w in (last, first, *junction._terms):
            parsed = BracketedWord(str(w))
            assert parsed == w and w == parsed
            assert hash(parsed) == hash(w)
            assert canonical_key(parsed) == canonical_key(w)


def test_equal_words_built_apart_share_hash_and_key():
    for w in words_up_to_size(ALPHABET_XY, 4):
        parsed = BracketedWord(str(w))
        built = from_tuple(as_tuple(w))
        assert parsed is not built
        assert parsed == built
        assert hash(parsed) == hash(built)
        assert canonical_key(parsed) == canonical_key(built)
