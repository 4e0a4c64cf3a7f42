"""Expression parsing, evaluation, and canonical printing."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given

from nijenhuis.algebra import OpSymbol, derived_op, operator_n, product
from nijenhuis.linalg import LinComb
from nijenhuis.parser import (
    BracketApply,
    DerivedOpNode,
    EvalError,
    GeneratorRef,
    ParseError,
    Product,
    ScalarLit,
    Sum,
    UnknownIdentifier,
    eval_expr,
    parse_expr,
    print_canonical,
)
from nijenhuis.words import generators, letter_word, word, words_up_to_size

from conftest import ALPHABET_XYZ, lincombs_strategy

DECLARED = ("x", "y", "z")
X, Y, Z = (LinComb.from_word(letter_word(s)) for s in generators(*DECLARED))


def lc(text: str) -> LinComb:
    return LinComb.from_word(word(text))


def test_parse_product_shape():
    tree = parse_expr("x*[y]")
    assert tree == Product((GeneratorRef("x"), BracketApply(GeneratorRef("y"))))


def test_parse_adjacent_brackets_allowed():
    tree = parse_expr("[x]*[y]")
    assert tree == Product(
        (BracketApply(GeneratorRef("x")), BracketApply(GeneratorRef("y")))
    )
    # evaluation normalizes through the product
    assert eval_expr(tree, DECLARED) == product(operator_n(X), operator_n(Y))


def test_parse_sum_with_coefficients():
    tree = parse_expr("2/3*x - [x*y]")
    assert isinstance(tree, Sum)
    (c1, t1), (c2, t2) = tree.terms
    assert c1 == Fraction(2, 3) and t1 == GeneratorRef("x")
    assert c2 == Fraction(-1)
    assert t2 == BracketApply(Product((GeneratorRef("x"), GeneratorRef("y"))))


def test_parse_named_operations():
    assert eval_expr(parse_expr("prec(x, y)"), DECLARED) == lc("x*[y]")
    assert eval_expr(parse_expr("succ(x, y)"), DECLARED) == lc("[x]*y")
    assert eval_expr(parse_expr("bullet(x, y)"), DECLARED) == -lc("[x*y]")
    assert eval_expr(parse_expr("star(x, y)"), DECLARED) == derived_op(OpSymbol.STAR, X, Y)
    tree = parse_expr("prec(x, y)")
    assert tree == DerivedOpNode(OpSymbol.PREC, GeneratorRef("x"), GeneratorRef("y"))


def test_operation_names_stay_usable_as_generators():
    value = eval_expr(parse_expr("star*prec"), ("star", "prec"))
    assert value == lc("star*prec")


def test_parse_operator_function_form():
    assert eval_expr(parse_expr("P(x)"), DECLARED) == lc("[x]")
    assert eval_expr(parse_expr("P(P(x))"), DECLARED) == lc("[[x]]")


def test_eval_values():
    assert eval_expr(parse_expr("x*[y]"), DECLARED) == lc("x*[y]")
    assert eval_expr(parse_expr("[x*y*z]"), DECLARED) == lc("[x*y*z]")
    assert eval_expr(parse_expr("1/2*(x + y)*z"), DECLARED) == (
        lc("x*z").scale("1/2") + lc("y*z").scale("1/2")
    )
    assert eval_expr(parse_expr("x - x"), DECLARED) == LinComb()
    assert eval_expr(parse_expr("0"), DECLARED) == LinComb()
    assert eval_expr(parse_expr("-x"), DECLARED) == -X


def test_print_canonical_order_and_signs():
    value = lc("[x*[y]]") - lc("[z]").scale(2)
    assert print_canonical(value) == "-2*[z] + [x*[y]]"
    assert print_canonical(LinComb()) == "0"


def test_print_parse_round_trip_examples():
    for text in ("x*[y]", "[x]*[y]", "star(x, star(y, z))", "2/3*x - 5*[x*y] + z*z"):
        value = eval_expr(parse_expr(text), DECLARED)
        printed = print_canonical(value)
        assert eval_expr(parse_expr(printed), DECLARED) == value
        # printing is a fixed point on printed output
        assert print_canonical(eval_expr(parse_expr(printed), DECLARED)) == printed


@given(lincombs_strategy(alphabet=ALPHABET_XYZ, max_size=4, max_terms=4))
def test_print_parse_round_trip_everywhere(value):
    printed = print_canonical(value)
    assert eval_expr(parse_expr(printed), DECLARED) == value


def test_print_parse_round_trip_many_terms():
    pool = words_up_to_size(ALPHABET_XYZ, 4)[:240]
    value = LinComb(
        (w, Fraction((-1) ** k * (k + 1), k % 7 + 1)) for k, w in enumerate(pool)
    )
    printed = print_canonical(value)
    assert len(value) >= 200
    assert eval_expr(parse_expr(printed), DECLARED) == value
    assert print_canonical(eval_expr(parse_expr(printed), DECLARED)) == printed


def test_sum_gathers_repeated_and_cancelling_terms():
    assert eval_expr(parse_expr("x + 2*y - x + [x] - y - y"), DECLARED) == lc("[x]")
    assert eval_expr(parse_expr("x*y - x*y + 0"), DECLARED) == LinComb()


def test_parse_errors_carry_positions():
    cases = {
        "x +": 3,
        "[x": 2,
        "(x": 2,
        "x )": 2,
        "2//3": 2,
        "prec(x)": 6,
        "@": 0,
    }
    for text, position in cases.items():
        with pytest.raises(ParseError) as err:
            parse_expr(text)
        assert err.value.position == position


def test_zero_denominator_rejected():
    with pytest.raises(ParseError):
        parse_expr("1/0*x")


def test_unknown_identifier_at_eval():
    with pytest.raises(UnknownIdentifier) as err:
        eval_expr(parse_expr("x*q"), DECLARED)
    assert err.value.name == "q"


def test_unknown_function_rejected_at_parse():
    with pytest.raises(ParseError):
        parse_expr("frob(x, y)")


def test_bare_scalar_rejected_at_eval():
    for text in ("2", "x + 1", "2*3"):
        with pytest.raises(EvalError):
            eval_expr(parse_expr(text), DECLARED)
    # zero is the empty combination, not a scalar
    assert eval_expr(parse_expr("0*x"), DECLARED) == LinComb()


def test_whitespace_is_insignificant():
    a = eval_expr(parse_expr("  x *  [ y ]  "), DECLARED)
    assert a == lc("x*[y]")


def test_scalar_literal_node_shape():
    tree = parse_expr("2*x")
    assert tree == Product((ScalarLit(Fraction(2)), GeneratorRef("x")))
    assert parse_expr("0") == ScalarLit(Fraction(0))
