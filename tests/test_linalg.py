"""Rational scalars, linear combinations, and the exact row space engine."""

from __future__ import annotations

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given, strategies as st

from nijenhuis import envelope
from nijenhuis.linalg import (
    DimensionMismatch,
    LinComb,
    RowSpace,
    Vector,
    _divide,
    rational,
    span,
)
from nijenhuis.parser import eval_expr, parse_expr
from nijenhuis.words import canonical_key, word

from conftest import ALPHABET_XY, lincombs_strategy, rationals_strategy, words_strategy

W1 = word("x")
W2 = word("[x]*y")
W3 = word("x*[y]")


def test_rational_coercion_and_formatting():
    assert rational("2/4") == Fraction(1, 2)
    assert rational(-3) == Fraction(-3)
    assert str(Fraction(2, 4)) == "1/2"
    assert str(Fraction(-6, 3)) == "-2"
    assert str(Fraction(5)) == "5"
    # unbounded integers survive exactly
    big = Fraction(10**40, 3)
    assert rational(str(big)) == big
    with pytest.raises(TypeError):
        rational(0.5)
    # bool is an int subclass, but a truth value is not a scalar
    for flag in (True, False):
        with pytest.raises(TypeError):
            rational(flag)


def test_lincomb_drops_zero_terms_and_merges():
    a = LinComb([(W1, 2), (W1, -2), (W2, "1/3")])
    assert a.coeff(W1) == 0
    assert a.coeff(W2) == Fraction(1, 3)
    assert len(a) == 1
    assert LinComb([(W1, 1), (W1, -1)]) == LinComb()


def test_lincomb_arithmetic():
    a = LinComb.from_word(W1, 2)
    b = LinComb.from_word(W2, "1/2")
    s = a + b
    assert s.coeff(W1) == 2 and s.coeff(W2) == Fraction(1, 2)
    assert (s - a) == b
    assert s.scale(0) == LinComb()
    assert b.scale("3/2").coeff(W2) == Fraction(3, 4)
    assert (-a).coeff(W1) == -2


def test_lincomb_items_follow_canonical_order():
    a = LinComb([(W3, 1), (W1, 1), (W2, 1)])
    assert [w for w, _ in a.items()] == [W1, W2, W3]


def test_lincomb_str_formats_signs_and_coefficients():
    a = LinComb([(word("[z]"), -2), (word("[x*[y]]"), 1)])
    assert str(a) == "-2*[z] + [x*[y]]"
    assert str(LinComb()) == "0"
    assert str(LinComb.from_word(W1, Fraction(-1))) == "-x"
    assert str(LinComb.from_word(W1, Fraction(1, 3))) == "1/3*x"


def reference_str(a: LinComb) -> str:
    """Terms by :func:`canonical_key`, each sign apart and a unit magnitude unwritten."""
    if not a:
        return "0"
    pieces = []
    for w in sorted(a._terms, key=canonical_key):
        c = Fraction(a._terms[w])
        pieces.append(("- " if c < 0 else "+ ") + ("" if abs(c) == 1 else f"{abs(c)}*") + w)
    text = " ".join(pieces)
    return text[2:] if text[0] == "+" else "-" + text[2:]


COEFFICIENTS = st.one_of(
    st.sampled_from([1, -1, 2, -2, 10**30, -(10**30)]),
    st.integers(-50, 50),
    rationals_strategy(max_num=40, max_den=12),
)


@given(st.lists(st.tuples(words_strategy(max_size=5), COEFFICIENTS), max_size=8).map(LinComb))
@example(LinComb([(W1, -1), (W2, Fraction(1, 2))]))
@example(LinComb([(W1, Fraction(-3, 4)), (W3, -1)]))
def test_lincomb_str_matches_a_reference_formatter_and_parses_back(a):
    for value in (a, -a):
        text = str(value)
        assert text == reference_str(value)
        back = eval_expr(parse_expr(text), ALPHABET_XY)
        assert back == value
        assert {w: type(c) for w, c in back._terms.items()} == {w: type(c) for w, c in value._terms.items()}


@given(st.integers(-(10**30), 10**30), st.integers(1, 10**6))
@example(0, 1)
@example(-6, 3)
@example(-7, 3)
@example(10**30, 7)
def test_divide_is_an_int_exactly_when_the_denominator_divides(n, d):
    q = _divide(n, d)
    if n % d:
        assert type(q) is Fraction and q == Fraction(n, d) and q.denominator > 1
        assert gcd(q.numerator, q.denominator) == 1
    else:
        assert type(q) is int and q == n // d
    # The quotients are memoized in a bounded cache, so equal ones are shared.
    assert _divide(n, d) is q
    assert _divide.cache_info().maxsize is not None


@given(lincombs_strategy(), lincombs_strategy(), lincombs_strategy())
def test_lincomb_addition_associative_commutative(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert a + LinComb() == a


@given(lincombs_strategy(), lincombs_strategy())
def test_lincomb_subtraction_adds_the_negation(a, b):
    zero = LinComb()
    for left, right in ((a, b), (b, a), (a, a), (a, zero), (zero, b), (a + b, b)):
        difference = left - right
        assert difference == left + (-right)
        assert all(difference._terms.values())
    assert a - a == LinComb()
    assert (a + b) - b == a


@given(lincombs_strategy(), rationals_strategy(), rationals_strategy())
def test_lincomb_scaling_distributes(a, p, q):
    assert a.scale(p) + a.scale(q) == a.scale(p + q)
    assert a.scale(p).scale(q) == a.scale(p * q)
    assert a + (-a) == LinComb()


def dense(space: RowSpace, cols: int) -> dict:
    return {p: tuple(row.get(c, 0) for c in range(cols)) for p, row in space.rows.items()}


def test_rref_identity_fixed_point():
    space = span([[1, 0], [0, 1]])
    assert dense(space, 2) == {0: (1, 0), 1: (0, 1)}


def test_rref_rank_deficient():
    rows = [[1, 2], [2, 4]]
    space = span(rows)
    assert len(space) == 1
    assert dense(space, 2) == {0: (Fraction(1), Fraction(2))}


def test_rank_of_no_rows_and_of_a_zero_row():
    assert len(span([])) == 0
    assert len(span([[0, 0]])) == 0


def test_rref_swaps_rows():
    space = span([[0, 1], [1, 0]])
    assert dense(space, 2) == {0: (1, 0), 1: (0, 1)}
    assert space.rows == span([[1, 0], [0, 1]]).rows


def test_nullspace_of_zero_row():
    space = span([[0, 0, 0]])
    assert len(space) == 0
    basis = space.kernel(range(3))
    assert len(basis) == 3
    # free variables in increasing column order, each set to one
    assert basis[0] == (Fraction(1), Fraction(0), Fraction(0))
    assert basis[1] == (Fraction(0), Fraction(1), Fraction(0))
    assert basis[2] == (Fraction(0), Fraction(0), Fraction(1))


def test_nullspace_single_constraint():
    assert span([[1, 1]]).kernel(range(2)) == ((Fraction(-1), Fraction(1)),)


def test_nullspace_vectors_satisfy_matrix():
    rows = [[1, 2, 3], [0, 1, 1]]
    for vec in span(rows).kernel(range(3)):
        for row in rows:
            assert sum(a * b for a, b in zip(row, vec)) == 0


def test_in_span_cases():
    space = span([[1, 2]])
    assert {0: Fraction(2), 1: Fraction(4)} in space
    assert {0: Fraction(1)} not in space
    assert {} in span([])
    assert {0: Fraction(1)} not in span([])
    # a rejected row leaves the space unchanged
    assert not space.add({0: Fraction(-1), 1: Fraction(-2)})
    assert len(space) == 1


def test_subspace_equal_cases():
    # reduced rows are unique to the span, so equal spans store equal rows
    assert span([[1, 0], [0, 1]]).rows == span([[1, 1], [1, -1]]).rows
    assert span([[1, 0]]).rows != span([[0, 1]]).rows
    assert span([[1, 0], [0, 1]]).rows != span([[1, 1]]).rows
    assert span([]).rows == span([[0, 0, 0]]).rows


def test_rowspace_pivots_on_the_largest_word():
    # the ideal closure files rows under their largest word in canonical order
    space = RowSpace(key=canonical_key)
    big = word("[x*[y]]")
    assert space.add(LinComb([(W1, 2), (big, 4)])._terms)
    assert list(space.rows) == [big]
    assert space.rows[big] == {W1: Fraction(1, 2), big: Fraction(1)}
    assert space.add(LinComb([(W1, 3), (W2, 6)])._terms)
    assert space.rows[W2] == {W1: Fraction(1, 2), W2: Fraction(1)}
    # a new pivot is cleared from every stored row
    assert space.add(LinComb([(W1, 3)])._terms)
    assert space.rows == {big: {big: 1}, W2: {W2: 1}, W1: {W1: 1}}
    assert LinComb([(big, 2), (W1, 1)])._terms in space
    assert LinComb([(W3, 1)])._terms not in space


def test_vector_has_one_home():
    # the finite-dimensional layer re-exports the coordinate vector
    assert envelope.Vector is Vector


def test_vector_sum_and_difference_need_equal_lengths():
    # Both once zipped to the shorter operand: (1, 2) + (5,) was (6,).
    for left, right in (((1, 2), (5,)), ((5,), (1, 2)), ((), (1,))):
        for combine in (Vector.__add__, Vector.__sub__):
            with pytest.raises(DimensionMismatch, match=f"lengths {len(left)} and {len(right)}"):
                combine(Vector(left), Vector(right))
    assert Vector((1, 2)) + Vector((5, "1/2")) == (6, Fraction(5, 2))
    assert Vector((1, 2)) - Vector((5, "1/2")) == (-4, Fraction(3, 2))


def test_exactness_no_drift():
    # a classically float-hostile system stays exact
    space = span([["1/3", "1/7"], ["1/11", "1/13"]])
    assert dense(space, 2) == {
        0: (Fraction(1), Fraction(0)),
        1: (Fraction(0), Fraction(1)),
    }
    # no float anywhere: an int where a value is integral, else a Fraction
    assert all(
        type(x) is int or (type(x) is Fraction and x.denominator != 1)
        for row in space.rows.values()
        for x in row.values()
    )
