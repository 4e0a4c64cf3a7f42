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
from nijenhuis.algebra import first_operator_identity_failure, operator_n, product
from nijenhuis.linalg import LinComb
from nijenhuis.words import canonical_key, generators, word, words_of_size, words_up_to_size

from conftest import (
    ALPHABET_XY,
    ALPHABET_XYZ,
    parse_reference as as_tuple,
    reference_text,
    words_strategy,
)


def from_tuple(model: tuple):
    """A word built anew from its text through the checked constructor."""
    return word(reference_text(model))


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


def word_product(u: str, v: str) -> LinComb:
    """The product of two basis words, through :func:`product`."""
    return product(LinComb.from_word(u), LinComb.from_word(v))


POOL = words_up_to_size(ALPHABET_XY, 3)


def check_all_pairs(pool) -> None:
    for u in pool:
        for v in pool:
            assert as_dict(word_product(u, v)) == reference_product(as_tuple(u), as_tuple(v)), (
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
    assert as_dict(word_product(u, v)) == reference_product(as_tuple(u), as_tuple(v))


@given(words_strategy(ALPHABET_XYZ, max_size=4), words_strategy(ALPHABET_XYZ, max_size=4))
def test_product_matches_reference_over_three_letters(u, v):
    assert as_dict(word_product(u, v)) == reference_product(as_tuple(u), as_tuple(v))


def test_product_matches_reference_where_the_left_word_has_two_top_level_brackets():
    # No word up to size 4 has two top-level brackets, so the tests above
    # never split a left word whose text before its last bracket holds
    # another; the sweeps do, but only against the same product.
    lefts = []
    for u in (*words_of_size(ALPHABET_XY, 5), *words_of_size(ALPHABET_XY, 6)):
        factors = as_tuple(u)
        if factors[-1][0] == "B" and any(kind == "B" for kind, _ in factors[:-1]):
            lefts.append(u)
    assert len(lefts) == 88
    for u in lefts:
        for v in POOL:
            assert as_dict(word_product(u, v)) == reference_product(as_tuple(u), as_tuple(v)), (u, v)


# Pairs of these include integral products of two Fractions: 3/2 . 2/3 and -3/4 . 4/3.
SCALES = (1, -1, 2, Fraction(3, 2), Fraction(2, 3), Fraction(-3, 4), Fraction(4, 3))


def test_product_of_scaled_words_matches_reference():
    # Single-term operands take product's own branch, which builds a
    # letter junction itself and scales a bracket junction.
    for u in POOL:
        for v in POOL:
            expected = reference_product(as_tuple(u), as_tuple(v))
            for cu in SCALES:
                for cv in SCALES:
                    got = product(LinComb.from_word(u, cu), LinComb.from_word(v, cv))
                    assert as_dict(got) == {w: cu * cv * c for w, c in expected.items()}, (u, cu, v, cv)
                    for c in got._terms.values():
                        assert type(c) is (int if Fraction(c).denominator == 1 else Fraction), (u, cu, v, cv)
    one = product(LinComb.from_word(word("x"), Fraction(3, 2)), LinComb.from_word(word("y"), Fraction(2, 3)))
    assert one._terms == {"x*y": 1} and type(one._terms["x*y"]) is int


def test_operator_matches_reference():
    for w in words_up_to_size(ALPHABET_XYZ, 3):
        assert as_dict(operator_n(LinComb.from_word(w))) == _wrap({as_tuple(w): Fraction(1)})


def test_the_operator_identity_holds_on_the_reference_product():
    # The word path reads N(a) N(b) from the junction cache, which is
    # filled from the very products it sums for the right side; here
    # both sides come from the reference, with no cache.
    for pool in (POOL, words_up_to_size(generators("a"), 4)):
        assert first_operator_identity_failure(pool) is None
        for a in pool:
            for b in pool:
                ta, tb = as_tuple(a), as_tuple(b)
                na, nb = (("B", ta),), (("B", tb),)
                lhs = reference_product(na, nb)
                rhs: dict = {}
                _add(rhs, _wrap(reference_product(na, tb)), 1)
                _add(rhs, _wrap(reference_product(ta, nb)), 1)
                _add(rhs, _wrap(_wrap(reference_product(ta, tb))), -1)
                assert lhs == rhs, (a, b)
                # The word path's left side: the junction memo, as a dict of terms.
                assert as_dict(algebra._product_terms(f"[{a}]", f"[{b}]").items()) == lhs, (a, b)


def test_product_matches_reference_with_the_word_tables_warm():
    # A sweep first fills the product cache and the memos that split
    # words at their end brackets, so the products below read them.
    assert first_operator_identity_failure(POOL) is None
    assert algebra._PRODUCT_CACHE
    assert algebra._split_last.cache_info().currsize and algebra._split_first.cache_info().currsize
    check_all_pairs(POOL)
    for u in words_up_to_size(ALPHABET_XY, 4):
        for v in words_up_to_size(ALPHABET_XY, 2):
            assert as_dict(word_product(u, v)) == reference_product(as_tuple(u), as_tuple(v))
    for (last, first), junction in algebra._PRODUCT_CACHE.items():
        for w in (last, first, *junction):
            parsed = word(str(w))
            assert parsed == w and w == parsed
            assert hash(parsed) == hash(w)
            assert canonical_key(parsed) == canonical_key(w)


def test_equal_words_built_apart_share_hash_and_key():
    for w in words_up_to_size(ALPHABET_XY, 4):
        parsed = word(str(w))
        built = from_tuple(as_tuple(w))
        # The interpreter shares one object per one-character string.
        assert parsed is not built or len(w) == 1
        assert parsed == built
        assert hash(parsed) == hash(built)
        assert canonical_key(parsed) == canonical_key(built)
