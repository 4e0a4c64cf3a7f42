"""The expression parser against a reference model.

The reference below is the tokenizer and recursive-descent parser that
:mod:`nijenhuis.parser` replaced: one ``(kind, text, position)`` tuple
per token, read through ``peek``/``advance``, every term through
``_combine_terms``.  The parser under test keeps the token texts alone
and finds positions again only for an error, so for every input both
must give an equal tree, coefficients of the same type included, or a
:class:`ParseError` with the same message and position.
"""

from __future__ import annotations

import re
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from nijenhuis.algebra import OpSymbol
from nijenhuis.parser import (
    BracketApply,
    DerivedOpNode,
    Expr,
    GeneratorRef,
    ParseError,
    Product,
    ScalarLit,
    Sum,
    parse_expr,
)
from nijenhuis.words import MAX_NESTING

_FUNCTIONS = {
    "prec": OpSymbol.PREC,
    "succ": OpSymbol.SUCC,
    "bullet": OpSymbol.BULLET,
    "star": OpSymbol.STAR,
}


def ref_divide(n: int, d: int) -> int | Fraction:
    q = Fraction(n, d)
    return q.numerator if q.denominator == 1 else q


def _int_if_integral(q: int | Fraction) -> int | Fraction:
    return q if type(q) is int or q.denominator != 1 else q.numerator


_REF_TOKEN = re.compile(
    r"(?P<ws>\s+)|(?P<ident>[A-Za-z][A-Za-z0-9_]*)|(?P<int>\d+)|(?P<sym>[-+*/()\[\],])"
)


# A token is a tuple (kind, text, position); the last one has kind "end".
RefToken = tuple[str, str, int]


def ref_tokenize(text: str) -> list[RefToken]:
    tokens: list[RefToken] = []
    pos = 0
    for m in _REF_TOKEN.finditer(text):
        if m.start() != pos:
            break
        kind = m.lastgroup
        if kind != "ws":
            tokens.append((kind, m.group(), pos))
        pos = m.end()
    if pos != len(text):
        raise ParseError(f"unexpected character {text[pos]!r}", pos)
    tokens.append(("end", "", pos))
    return tokens


class RefParser:
    def __init__(self, text: str):
        self.tokens = ref_tokenize(text)
        self.index = 0
        self.nesting = 0

    def peek(self) -> RefToken:
        return self.tokens[self.index]

    def advance(self) -> RefToken:
        tok = self.tokens[self.index]
        self.index += 1
        return tok

    def expect(self, text: str) -> RefToken:
        tok = self.peek()
        if tok[1] != text:
            raise ParseError(f"expected {text!r}, found {tok[1] or 'end of input'!r}", tok[2])
        self.index += 1
        return tok

    def parse(self) -> Expr:
        expr = self.parse_expr()
        kind, text, pos = self.peek()
        if kind != "end":
            raise ParseError(f"trailing input {text!r}", pos)
        return expr

    def parse_expr(self) -> Expr:
        # The whole input is level 0; each enclosing bracket, parenthesis
        # or call adds one level.
        if self.nesting > MAX_NESTING:
            raise ParseError(f"nesting deeper than {MAX_NESTING} levels", self.peek()[2])
        self.nesting += 1
        terms: list[tuple[int | Fraction, Expr | None]] = []
        sign = 1
        if self.peek()[1] == "-":
            self.index += 1
            sign = -1
        terms.append(self._signed_term(sign))
        while self.peek()[1] in ("+", "-"):
            sign = 1 if self.advance()[1] == "+" else -1
            terms.append(self._signed_term(sign))
        self.nesting -= 1
        return _combine_terms(terms)

    def _signed_term(self, sign: int) -> tuple[int | Fraction, Expr | None]:
        coeff, node = self.parse_term()
        return (coeff if sign == 1 else -coeff), node

    def parse_term(self) -> tuple[int | Fraction, Expr | None]:
        coeff: int | Fraction = 1
        children: list[Expr] = []
        while True:
            if self.peek()[0] == "int":
                value = self._rational()
                coeff = value if coeff == 1 else _int_if_integral(coeff * value)
            else:
                children.append(self.parse_atom())
            if self.peek()[1] == "*":
                self.index += 1
                continue
            break
        if not children:
            return coeff, None
        node = children[0] if len(children) == 1 else Product(tuple(children))
        return coeff, node

    def _rational(self) -> int | Fraction:
        value = int(self.advance()[1])
        if self.peek()[1] == "/":
            slash = self.advance()
            kind, text, pos = self.peek()
            if kind != "int":
                raise ParseError("expected an integer denominator", slash[2] + 1)
            self.index += 1
            denom = int(text)
            if denom == 0:
                raise ParseError("zero denominator", pos)
            return ref_divide(value, denom)
        return value

    def parse_atom(self) -> Expr:
        kind, text, pos = self.peek()
        if kind == "ident":
            self.index += 1
            if self.peek()[1] == "(":
                return self._call(text, pos)
            return GeneratorRef(text)
        if text == "[":
            self.index += 1
            inner = self.parse_expr()
            self.expect("]")
            return BracketApply(inner)
        if text == "(":
            self.index += 1
            inner = self.parse_expr()
            self.expect(")")
            return inner
        raise ParseError(
            f"expected a generator, number, bracket, or parenthesis, found {text or 'end of input'!r}",
            pos,
        )

    def _call(self, name: str, position: int) -> Expr:
        self.expect("(")
        if name == "P":
            inner = self.parse_expr()
            self.expect(")")
            return BracketApply(inner)
        op = _FUNCTIONS.get(name)
        if op is None:
            raise ParseError(f"unknown function {name!r}", position)
        left = self.parse_expr()
        self.expect(",")
        right = self.parse_expr()
        self.expect(")")
        return DerivedOpNode(op, left, right)


def _combine_terms(terms: list[tuple[int | Fraction, Expr | None]]) -> Expr:
    normalized: list[tuple[int | Fraction, Expr]] = []
    scalar_total: int | Fraction = 0
    saw_scalar = False
    for coeff, node in terms:
        if node is None:
            scalar_total = _int_if_integral(scalar_total + coeff)
            saw_scalar = True
        elif coeff != 0:
            normalized.append((coeff, node))
    if not normalized:
        return ScalarLit(scalar_total)
    if saw_scalar and scalar_total != 0:
        normalized.append((scalar_total, ScalarLit(1)))
    if len(normalized) == 1:
        coeff, node = normalized[0]
        return _scaled(coeff, node)
    return Sum(tuple(normalized))


def _scaled(coeff: int | Fraction, node: Expr) -> Expr:
    if coeff == 1:
        return node
    return Product((ScalarLit(coeff), node))


def ref_parse(text: str) -> Expr:
    return RefParser(text).parse()


def outcome(parse, text: str):
    """The tree with its repr, which tells an int from an equal Fraction, or the error."""
    try:
        tree = parse(text)
    except ParseError as exc:
        return "error", str(exc), exc.position
    return tree, repr(tree)


def assert_same_outcome(text: str) -> None:
    assert outcome(parse_expr, text) == outcome(ref_parse, text), text


NAMES = st.sampled_from(["x", "y", "z", "e1", "ab_2", "P", "prec", "star", "frob"])
NUMBERS = st.sampled_from(["0", "1", "2", "12", "3/4", "6/3", "0/5", "10/4", "\u0663", "\u0663/2"])
FUNCTIONS = st.sampled_from(["prec", "succ", "bullet", "star", "frob"])
SPACES = st.sampled_from([" ", "", "  ", "\t", "\n", "\u00a0", "\u3000"])


def _compound(inner):
    return st.one_of(
        st.tuples(inner, st.sampled_from([" + ", " - ", "*", " * "]), inner).map("".join),
        inner.map(lambda e: f"[{e}]"),
        inner.map(lambda e: f"({e})"),
        inner.map(lambda e: f"-{e}"),
        inner.map(lambda e: f"P({e})"),
        st.tuples(FUNCTIONS, inner, inner).map(lambda t: f"{t[0]}({t[1]}, {t[2]})"),
    )


EXPRESSIONS = st.tuples(st.recursive(st.one_of(NAMES, NUMBERS), _compound, max_leaves=16), SPACES).map(
    lambda t: t[0].replace(" ", t[1])
)

# Pieces that break an expression, or a few that keep it one: stray
# characters, Unicode digits and spaces, a zero-width non-space, and
# unbalanced or doubled punctuation.
CORRUPTIONS = st.sampled_from(
    ["@", "\u00b2", "\u00e9", "\u0663", "[", "]", "(", ")", "/", "//", ",", "*", "-", "_", "\u200b", "\u3000", "\x1c"]
)


def nested(depth: int, opening: str, closing: str) -> str:
    return opening * depth + "x" + closing * depth


@settings(max_examples=300)
@given(EXPRESSIONS)
@example("")
@example("   ")
@example("x +")
@example("2//3")
@example("2/")
@example("2/x")
@example("1/0*x")
@example("prec(x)")
@example("frob(x, y)")
@example("x )")
@example("-x + 2 - 2")
@example("x + 1/2 + 1/2")
@example("\u0663/\u0663*x")
def test_parser_matches_reference_on_expressions(text):
    assert_same_outcome(text)


@settings(max_examples=300)
@given(EXPRESSIONS, st.integers(0, 200), CORRUPTIONS)
@example("x*[y]", 1, "@")
@example("x*[y]", 5, "\u00b2")
@example("prec(x, y)", 0, "\u00e9")
@example("2/3*x", 1, "/")
@example("[x + y]", 0, "[")
@example("(x + y)", 7, ")")
@example("x y", 1, "\u200b")
@example("x  ", 3, "@")
@example("x\t+\ty", 2, "@")
@example("x\u00a0", 2, "\u00e9")
def test_parser_matches_reference_on_corrupted_expressions(text, at, piece):
    assert_same_outcome(text[:at] + piece + text[at:])


@pytest.mark.parametrize("depth", [MAX_NESTING, MAX_NESTING + 1])
@pytest.mark.parametrize(
    "opening, closing", [("[", "]"), ("(", ")"), ("P(", ")"), ("prec(y, ", ")"), ("[-", "]"), ("2*[", "]")]
)
def test_parser_matches_reference_at_the_nesting_cap(depth, opening, closing):
    text = nested(depth, opening, closing)
    assert_same_outcome(text)
    assert_same_outcome(text[:-1])
    assert_same_outcome(text + "@")
    assert_same_outcome("@" + text)


def test_whitespace_of_the_tokenizer_is_that_of_str_split():
    # The parser under test finds stray characters with str.split, the
    # reference with the regular expression's \s.
    every = "".join(map(chr, range(0x110000)))
    assert re.sub(r"\s", "", every) == "".join(every.split())
