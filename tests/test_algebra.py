"""The free product, the distinguished operator, and the split operations."""

from __future__ import annotations

from fractions import Fraction

from hypothesis import given

from nijenhuis.algebra import COORD_OPS, OpSymbol, derived_op, operator_n, product, product_words
from nijenhuis.linalg import LinComb
from nijenhuis.words import (
    BracketedWord,
    generators,
    letter_word,
    size,
    words_up_to_size,
)

from conftest import ALPHABET_XY, lincombs_strategy, words_strategy

X, Y, Z = generators("x", "y", "z")
LX = LinComb.from_word(letter_word(X))
LY = LinComb.from_word(letter_word(Y))
LZ = LinComb.from_word(letter_word(Z))


def lc(text: str) -> LinComb:
    return LinComb.from_word(BracketedWord(text))


def test_letter_junction_merges_runs():
    assert product(LX, LY) == lc("x*y")
    assert product(lc("x*y"), lc("y")) == lc("x*y*y")


def test_mixed_junction_concatenates():
    assert product(lc("x*[y]"), LZ) == lc("x*[y]*z")
    assert product(LZ, lc("[y]*x")) == lc("z*[y]*x")


def test_bracket_bracket_junction_expands():
    assert product(lc("[x]"), lc("[y]")) == lc("[[x]*y]") + lc("[x*[y]]") - lc("[[x*y]]")


def test_nested_bracket_product_cancellation():
    # the two depth-three cross terms cancel, leaving three terms
    expected = lc("[[[x]]*y]") + lc("[[x*[y]]]") - lc("[[[x*y]]]")
    assert product(lc("[[x]]"), lc("[y]")) == expected


def test_product_with_outer_factors():
    # junction happens between the inner ends; outer factors carry over
    got = product(lc("x*[x]"), lc("[y]*z"))
    expected = (
        lc("x*[[x]*y]*z") + lc("x*[x*[y]]*z") - lc("x*[[x*y]]*z")
    )
    assert got == expected


def test_product_is_bilinear():
    a = LX.scale(2)
    b = LY.scale(3)
    assert product(a, b) == product(LX, LY).scale(6)
    assert product(LX + LY, LZ) == product(LX, LZ) + product(LY, LZ)
    assert product(LinComb.zero(), LX).is_zero()
    assert product(LX, LinComb.zero()).is_zero()


def test_operator_wraps_each_term():
    a = lc("x") + lc("y").scale(-2)
    assert operator_n(a) == lc("[x]") - lc("[y]").scale(2)
    assert operator_n(LinComb.zero()).is_zero()


def test_operator_identity_on_sample_pairs():
    for u, v in [(LX, LY), (lc("[x]"), LY), (lc("x*[y]"), lc("[x]*y"))]:
        lhs = product(operator_n(u), operator_n(v))
        rhs = (
            operator_n(product(operator_n(u), v))
            + operator_n(product(u, operator_n(v)))
            - operator_n(operator_n(product(u, v)))
        )
        assert lhs == rhs


def test_derived_op_values_on_generators():
    assert derived_op(OpSymbol.PREC, LX, LY) == lc("x*[y]")
    assert derived_op(OpSymbol.SUCC, LX, LY) == lc("[x]*y")
    assert derived_op(OpSymbol.BULLET, LX, LY) == -lc("[x*y]")
    assert derived_op(OpSymbol.STAR, LX, LY) == lc("x*[y]") + lc("[x]*y") - lc("[x*y]")


def test_star_splits_into_three_parts():
    for a, b in [(LX, LY), (lc("[x]"), lc("y*y"))]:
        total = LinComb.zero()
        for op in COORD_OPS:
            total = total + derived_op(op, a, b)
        assert total == derived_op(OpSymbol.STAR, a, b)


def test_star_matches_operator_conjugation():
    # star is the operation making the operator multiplicative:
    # N(a * b) = N(a) . N(b) with a * b the star product
    for a, b in [(LX, LY), (lc("x*[y]"), LZ)]:
        assert operator_n(derived_op(OpSymbol.STAR, a, b)) == product(
            operator_n(a), operator_n(b)
        )


def test_associativity_on_sample_triples():
    triples = [
        (LX, LY, LZ),
        (lc("[x]"), lc("[y]"), lc("[x]")),
        (lc("x*[y]"), lc("[x]"), lc("y")),
    ]
    for a, b, c in triples:
        assert product(product(a, b), c) == product(a, product(b, c))


@given(words_strategy(max_size=3), words_strategy(max_size=3))
def test_product_preserves_ends_and_adds_sizes(u, v):
    # Whether a word starts, and ends, with a bracket factor.
    hu, tu = u.startswith("["), u.endswith("]")
    hv, tv = v.startswith("["), v.endswith("]")
    result = product_words(u, v)
    assert not result.is_zero()
    for term, _ in result:
        assert (term.startswith("["), term.endswith("]")) == (hu, tv)
        assert size(term) == size(u) + size(v)


@given(words_strategy(max_size=3), words_strategy(max_size=3))
def test_mixed_junction_gives_single_word(u, v):
    tu, hv = u.endswith("]"), v.startswith("[")
    if tu != hv:
        result = product_words(u, v)
        items = result.items()
        assert len(items) == 1
        assert items[0][1] == Fraction(1)


@given(lincombs_strategy(max_size=2), lincombs_strategy(max_size=2), lincombs_strategy(max_size=2))
def test_product_bilinear_in_combinations(a, b, c):
    assert product(a + b, c) == product(a, c) + product(b, c)
    assert product(a, b + c) == product(a, b) + product(a, c)


def test_word_product_memoized():
    u, v = BracketedWord("[x]"), BracketedWord("[y]")
    first = product_words(u, v)
    second = product_words(u, v)
    assert first is second


def test_coefficient_arithmetic_stays_rational():
    a = LX.scale(Fraction(1, 3))
    b = LY.scale(Fraction(3, 7))
    got = product(a, b)
    assert got.coeff(BracketedWord("x*y")) == Fraction(1, 7)


def test_enumerated_sweep_small():
    pool = [LinComb.from_word(w) for w in words_up_to_size(ALPHABET_XY, 2)]
    for a in pool:
        for b in pool:
            for c in pool:
                assert product(product(a, b), c) == product(a, product(b, c))
