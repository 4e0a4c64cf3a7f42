"""No float ever reaches a coefficient: scalars are ints or Fractions.

Integral values are plain ints and the rest are Fractions, and the two
mix in the arithmetic.  A stray true division of two ints would give a
float, so every path that builds coefficients or eliminates rows is
checked here for the exact types.  Combination coefficients, vector
coordinates and eliminated rows are all checked for the exact type of
their value: an ``int`` when integral, a Fraction only otherwise.
"""

from __future__ import annotations

import sys
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from nijenhuis import algebra
from nijenhuis.algebra import OpSymbol, derived_op, operator_n, product
from nijenhuis.envelope import (
    LinearMap,
    NijenhuisAlgebraFD,
    Vector,
    check_morphism_kills_generators,
    evaluate_hom,
    induced_ns,
)
from nijenhuis.linalg import LinComb, RowSpace, rational, span
from nijenhuis.parser import eval_expr, parse_expr, read_expr
from nijenhuis.relations import ndendriform_relation_set, ns_relation_set, solve_relation_space
from nijenhuis.words import UsageError, canonical_key, words_up_to_size

from conftest import ALPHABET_XY, lincombs_strategy, rationals_strategy, scaling_algebra


def has_exact_type(c) -> bool:
    """An ``int`` when ``c`` is integral, a Fraction otherwise."""
    return type(c) is int or (type(c) is Fraction and c.denominator != 1)


def assert_exact(value: LinComb) -> None:
    assert all(has_exact_type(c) for c in value._terms.values()), value._terms


def assert_exact_coordinates(vec) -> None:
    assert all(has_exact_type(x) for x in vec), vec


def test_integral_results_of_combination_arithmetic_are_ints():
    wx, wy = words_up_to_size(ALPHABET_XY, 1)
    x, y = LinComb.from_word(wx), LinComb.from_word(wy)
    scaled = x.scale(Fraction(2, 3)).scale(Fraction(3, 2))
    assert scaled == x and type(scaled.coeff(wx)) is int
    half = x.scale(Fraction(1, 2))
    for value in (half + half, x.scale(Fraction(3, 2)) - half, LinComb(list(half) + list(half))):
        assert value == x and type(value.coeff(wx)) is int, value._terms
    mixed = x.scale(Fraction(1, 3)) + y
    assert (mixed + mixed + mixed)._terms == {wx: 1, wy: 3}
    assert all(type(c) is int for c in (mixed + mixed + mixed)._terms.values())
    assert_exact(mixed.scale(Fraction(3, 4)))
    assert_exact(eval_expr(parse_expr("1/2*x + 1/2*x + 2/3*y + 1/3*y"), ALPHABET_XY))
    assert eval_expr(parse_expr("1/2*x + 1/2*x"), ALPHABET_XY)._terms == {wx: 1}


def test_rational_returns_int_when_integral():
    for value, expected in [
        (3, 3),
        ("6/3", 2),
        ("-4", -4),
        ("007", 7),
        ("-0", 0),
        ("\u0661\u0662", 12),
        (Fraction(8, 4), 2),
        (Fraction(0), 0),
    ]:
        got = rational(value)
        assert type(got) is int and got == expected, value
    for value, expected in [("1/3", Fraction(1, 3)), (Fraction(-5, 10), Fraction(-1, 2))]:
        got = rational(value)
        assert type(got) is Fraction and got == expected, value
    assert str(rational(Fraction(3))) == str(Fraction(3))
    # One numeral rule with the expression grammar, ['-'] INT ['/' INT]:
    # no plus sign, space, point, exponent or underscore.
    # The exponent form is never handed on: 1e1000000000 would ask for a
    # billion-digit integer.
    for bad in (
        "1/0", "-3/0", "--1", "-", "", "+3", " 5 ", "0.5", "1e3", "1e1000000000",
        "1_000", "1/-2", "1 /2", "1/2/3",
    ):
        with pytest.raises(UsageError, match="numeral|zero denominator"):
            rational(bad)


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="no digit limit")
def test_a_numeral_past_the_digit_limit_is_a_usage_error():
    limit = sys.get_int_max_str_digits()
    assert rational("9" * limit) == 10**limit - 1
    for text in ("9" * (limit + 1), "-" + "9" * (limit + 1), "1/" + "9" * (limit + 1)):
        with pytest.raises(UsageError, match=f"more than {limit} digits"):
            rational(text)


def test_missing_word_has_coefficient_zero():
    w = words_up_to_size(ALPHABET_XY, 1)[0]
    got = LinComb().coeff(w)
    assert got == 0 and type(got) is int


def test_product_words_coefficients_are_ints():
    pool = words_up_to_size(ALPHABET_XY, 3)
    for u in pool:
        for v in pool:
            assert all(type(c) is int for c in algebra._product_terms(u, v).values())
        assert all(type(c) is int for c in operator_n(LinComb.from_word(u))._terms.values())


_SCALARS = st.builds(
    lambda p, q: f"{p}/{q}", st.integers(min_value=0, max_value=9), st.integers(min_value=1, max_value=6)
)


def test_parsed_coefficients_are_ints_when_integral():
    value = read_expr("2*x - 4/2*y + 3*1/3*[x] - 1/2*x*y + 2 - 2", ALPHABET_XY)
    coeffs = [value._terms[w] for w in ("x", "y", "[x]", "x*y")]
    assert coeffs == [2, -2, 1, Fraction(-1, 2)]
    assert [type(c) for c in coeffs] == [int, int, int, Fraction]
    scaled = read_expr("6/3*x", ALPHABET_XY)._terms["x"]
    assert scaled == 2 and type(scaled) is int
    # Bare scalars add up, and their total scales as a factor.
    summed = read_expr("(1/2 + 3/2)*y", ALPHABET_XY)._terms["y"]
    assert summed == 2 and type(summed) is int


def test_sum_evaluation_does_not_sort_its_terms(monkeypatch):
    def refuse(self):
        raise AssertionError("sorted a combination while adding it up")

    monkeypatch.setattr(LinComb, "items", refuse)
    value = eval_expr(parse_expr("2*x*[y] - [x]*y + 1/2*(x + [y])"), ALPHABET_XY)
    assert len(value._terms) == 4
    assert_exact(value)


def _extend(children):
    return st.one_of(
        st.builds(lambda s, e: f"{s}*{e}", _SCALARS, children),
        st.builds(lambda a, b: f"({a} + {b})", children, children),
        st.builds(lambda a, b: f"({a} - {b})", children, children),
        st.builds(lambda a, b: f"{a}*{b}", children, children),
        st.builds(lambda e: f"[{e}]", children),
        st.builds(lambda e: f"P({e})", children),
        st.builds(
            lambda op, a, b: f"{op}({a}, {b})",
            st.sampled_from([op.value for op in OpSymbol]),
            children,
            children,
        ),
    )


EXPRESSIONS = st.recursive(st.sampled_from(["x", "y"]), _extend, max_leaves=5)


@given(EXPRESSIONS)
def test_eval_of_parsed_expressions_stays_exact(text):
    assert_exact(eval_expr(parse_expr(text), ALPHABET_XY))


@given(
    lincombs_strategy(max_size=3),
    lincombs_strategy(max_size=3),
    st.one_of(rationals_strategy(), st.integers(min_value=-5, max_value=5)),
)
def test_combination_arithmetic_stays_exact(a, b, scalar):
    assert_exact(a)
    assert_exact(product(a, b))
    for op in OpSymbol:
        assert_exact(derived_op(op, a, b))
    assert_exact(a.scale(scalar))
    assert_exact(a.scale(str(scalar)))
    assert_exact(-a)
    assert_exact(a - b)
    assert_exact(a + b)


_ENTRIES = st.one_of(
    rationals_strategy(),
    st.integers(min_value=-4, max_value=4),
    rationals_strategy().map(str),
)


@given(st.lists(st.lists(_ENTRIES, min_size=4, max_size=4), max_size=5))
def test_row_space_rows_stay_exact(rows):
    space = RowSpace(key=lambda col: col)
    for row in rows:
        sparse = {col: q for col, q in enumerate(map(rational, row)) if q}
        assert all(has_exact_type(x) for x in space.reduce(sparse).values())
        space.add(sparse)
        assert not space.reduce(sparse)
    assert all(has_exact_type(x) for stored in space.rows.values() for x in stored.values())
    assert all(has_exact_type(x) for vec in space.kernel(range(4)) for x in vec)


@given(lincombs_strategy(max_size=3, max_terms=3), lincombs_strategy(max_size=3, max_terms=3))
def test_row_space_over_word_columns_stays_exact(a, b):
    space = RowSpace(key=canonical_key)
    for value in (a, product(a, b), b.scale(Fraction(2, 3))):
        assert all(has_exact_type(x) for x in space.reduce(value._terms).values())
        space.add(value._terms)
    assert all(has_exact_type(x) for stored in space.rows.values() for x in stored.values())


def test_integral_row_space_results_are_ints():
    space = span([[2, 4, 6], ["1/2", "3/2", 0]])
    assert space.rows == {0: {0: 1, 2: 9}, 1: {1: 1, 2: -3}}
    assert [type(x) for row in space.rows.values() for x in row.values()] == [int] * 4
    assert space.reduce({0: Fraction(1, 2), 2: Fraction(1, 2)}) == {2: -4}
    assert type(space.reduce({0: Fraction(1, 2), 2: Fraction(1, 2)})[2]) is int
    (kernel,) = space.kernel(range(3))
    assert kernel == (-9, 3, 1) and [type(x) for x in kernel] == [int] * 3


def test_integral_vector_arithmetic_gives_ints():
    # the scaling fixture's operator is 1/2 times the identity
    alg = scaling_algebra("1/2")
    got = alg.apply_op((Fraction(1, 2), 0)) + alg.apply_op((Fraction(3, 2), 0))
    assert got == (1, 0) and [type(x) for x in got] == [int, int]
    half = Vector(["1/2", "3/2", "-1/3"])
    for value, expected in [
        (half - half.scale(-1), (1, 3, Fraction(-2, 3))),
        (half.scale(6), (3, 9, -2)),
        (half.scale("2/3") - half.scale(Fraction(-4, 3)), (1, 3, Fraction(-2, 3))),
        (half + Vector([Fraction(1, 2), "1/2", "1/3"]), (1, 2, 0)),
        # an integral Fraction is an int from construction on
        (Vector((Fraction(2), 1)), (2, 1)),
        (Vector(Vector((Fraction(2), Fraction(4, 2)))), (2, 2)),
        (Vector((Fraction(2),) + (0,) * 17)[:2], (2, 0)),
    ]:
        assert value == expected
        assert_exact_coordinates(value)


@given(
    st.lists(_ENTRIES, min_size=3, max_size=3),
    st.lists(_ENTRIES, min_size=3, max_size=3),
    st.one_of(rationals_strategy(), st.integers(min_value=-5, max_value=5)),
)
def test_vector_arithmetic_stays_exact(u, v, scalar):
    a, b = Vector(u), Vector(v)
    for value in (a, b, a + b, a - b, -a, a.scale(scalar), a.scale(str(scalar)), Vector(a)):
        assert_exact_coordinates(value)


@given(st.lists(_ENTRIES, min_size=18, max_size=18), rationals_strategy())
def test_relation_coordinates_stay_exact(coords, scalar):
    rel = Vector(coords)
    families = solve_relation_space() + ns_relation_set() + ndendriform_relation_set()
    for value in (rel, rel + rel, rel.scale(scalar), Vector([str(x) for x in rel]), *families):
        assert_exact_coordinates(value)


# Finite-dimensional data: rational entries, spelled as values or as
# ``p/q`` strings, on two coordinates.
_FD_ENTRIES = st.builds(
    Fraction, st.integers(min_value=-3, max_value=3), st.integers(min_value=1, max_value=3)
).flatmap(lambda q: st.sampled_from([q, str(q)]))


def _fd_list(n):
    return st.lists(_FD_ENTRIES, min_size=n, max_size=n)


def _valid_fd(c, d0, d1) -> NijenhuisAlgebraFD:
    """``c`` times the componentwise product, with the diagonal operator (d0, d1)."""
    t = [[[c if i == j == k else 0 for k in range(2)] for j in range(2)] for i in range(2)]
    return NijenhuisAlgebraFD(2, t, LinearMap([[d0, 0], [0, d1]]))


def test_integral_finite_dimensional_results_are_ints():
    half = Fraction(1, 2)
    alg = _valid_fd(half, "3/2", "2/3")
    got = alg.mul(("2", 0), Vector((2, 1)))
    assert got == (2, 0) and type(got[0]) is int
    got = alg.apply_op([Fraction(2, 3), "3/2"])
    assert got == (1, 1) and [type(x) for x in got] == [int, int]
    f = LinearMap([[half, half], ["1/3", "2/3"]])
    assert (f.column(0), f.column(1)) == ((half, Fraction(1, 3)), (half, Fraction(2, 3)))
    assert [type(x) for x in f.apply(("1", "1"))] == [int, int]
    x, y = (LinComb.from_word(w) for w in words_up_to_size(ALPHABET_XY, 1))
    image = evaluate_hom(alg, f, x.scale(2) + y.scale(2), ALPHABET_XY)
    assert image == (2, 2) and [type(c) for c in image] == [int, int]


@given(
    _fd_list(8),
    _fd_list(4),
    _fd_list(2),
    _fd_list(2),
    _fd_list(3),
    lincombs_strategy(max_size=3, max_terms=3),
)
def test_finite_dimensional_results_stay_exact(t, m, u, v, valid, a):
    tensor = [[t[4 * i + 2 * j : 4 * i + 2 * j + 2] for j in range(2)] for i in range(2)]
    f = LinearMap([m[0:2], m[2:4]])
    alg = NijenhuisAlgebraFD(2, tensor, f)
    for vec in (
        alg.mul(u, v),
        alg.mul(Vector(u), Vector(v)),
        alg.apply_op(u),
        f.apply(Vector(u)),
        *(f.column(j) for j in range(2)),
        evaluate_hom(alg, f, a, ALPHABET_XY),
    ):
        assert_exact_coordinates(vec)
    c, d0, d1 = valid
    target = _valid_fd(rational(c) or 1, d0, d1)
    ns = induced_ns(target)
    for split in (ns.prec, ns.succ, ns.bullet):
        for plane in split:
            for row in plane:
                assert_exact_coordinates(row)
    report = check_morphism_kills_generators(ns, target, f)
    for side in (report.lhs, report.rhs):
        if side is not None:
            assert_exact_coordinates(side)
