"""The expression parser against a reference model.

:mod:`nijenhuis.parser` has one recursive descent with two sets of
actions: one builds the tree of :func:`~nijenhuis.parser.parse_expr`,
the other computes the value of :func:`~nijenhuis.parser.read_expr`.

The reference below checks the grammar.  It is the tokenizer and
recursive-descent parser that :mod:`nijenhuis.parser` replaced: one
``(kind, text, position)`` tuple per token, read through
``peek``/``advance``, every term through ``_combine_terms``.  The
descent under test keeps the token texts alone and finds positions
again only for an error, so for every input both must give an equal
tree, coefficients of the same type included, or a :class:`ParseError`
with the same message and position.

Both :func:`~nijenhuis.parser.read_expr` and ``eval_expr(parse_expr(text),
names)`` evaluate through the reader's value actions, one over the
text and one folding the tree.  Their reference is ``reference_eval``
below, the node-by-node walk of the tree that ``eval_expr`` was before
it became that fold: for every input all three give the same terms,
each coefficient of the same type, or an error of the same class with
the same message.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Iterable

import pytest
from hypothesis import example, given, settings, strategies as st

from nijenhuis.algebra import MAX_TERMS, OpSymbol, TooManyTerms, command_scope, derived_op, operator_n, product
from nijenhuis.linalg import LinComb, _wrap
from nijenhuis.parser import (
    BracketApply,
    DerivedOpNode,
    EvalError,
    Expr,
    GeneratorRef,
    ParseError,
    Product,
    ScalarLit,
    Sum,
    UnknownIdentifier,
    eval_expr,
    parse_expr,
    read_expr,
)
from nijenhuis.words import MAX_NESTING, UsageError, letter_word

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


# The walk of the tree that eval_expr was before it became a fold of the
# reader's value actions, kept as it was.
def reference_eval(expr: Expr, declared: Iterable[str]) -> LinComb:
    """Evaluate over the declared generators.

    Raises :class:`UnknownIdentifier` for stray names and
    :class:`EvalError` when a nonzero bare scalar is left over, since the
    algebra has no unit to absorb it.
    """
    allowed = set(declared)
    # Each generator is checked once, on first use; a combination is
    # immutable, so its leaf serves every later use.
    leaves: dict[str, LinComb] = {}

    def walk(node: Expr) -> LinComb:
        cls = type(node)
        if cls is GeneratorRef:
            name = node.name
            leaf = leaves.get(name)
            if leaf is None:
                if name not in allowed:
                    raise UnknownIdentifier(name)
                leaf = leaves[name] = _wrap({letter_word(name): 1})
            return leaf
        if cls is Product:
            coeff: int | Fraction = 1
            value: LinComb | None = None
            for child in node.children:
                if type(child) is ScalarLit:
                    coeff = _int_if_integral(coeff * child.value)
                else:
                    part = walk(child)
                    value = part if value is None else product(value, part)
            if value is None:
                if coeff == 0:
                    return LinComb()
                raise EvalError("a bare scalar is not an algebra element")
            return value.scale(coeff)
        if cls is BracketApply:
            return operator_n(walk(node.child))
        if cls is Sum:
            # One dict for the whole sum: added up as LinCombs, eval and
            # mul run 6-7% slower.
            data: dict[str, int | Fraction] = {}
            get = data.get
            for coeff, child in node.terms:
                if type(child) is ScalarLit:
                    if coeff * child.value != 0:
                        raise EvalError("a bare scalar is not an algebra element")
                    continue
                for w, c in walk(child)._terms.items():
                    c = coeff if c == 1 else coeff * c
                    acc = get(w)
                    data[w] = c if acc is None else acc + c
            return _wrap({w: _int_if_integral(c) for w, c in data.items() if c})
        if cls is DerivedOpNode:
            return derived_op(node.op, walk(node.left), walk(node.right))
        if cls is ScalarLit:
            if node.value != 0:
                raise EvalError("a bare scalar is not an algebra element")
            return LinComb()
        raise TypeError(f"not an expression node: {node!r}")

    return walk(expr)


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


# Declared for the reader's tests; "z", "ab_2", "star" and "frob" are not.
DECLARED = ("x", "y", "e1", "P", "prec")


# The ParseError of an expression cut short, without its position.
CUT_SHORT = "expected a generator, number, bracket, or parenthesis, found 'end of input'"


def value_outcome(evaluate, text: str):
    """The terms with the type of each coefficient, or the error's class and message."""
    try:
        value = evaluate(text, DECLARED)
    except UsageError as exc:
        return "error", type(exc), str(exc)
    return {w: (c, type(c)) for w, c in value._terms.items()}


def tree_path(text: str, names) -> object:
    return eval_expr(parse_expr(text), names)


def reference_path(text: str, names) -> object:
    return reference_eval(parse_expr(text), names)


def assert_same_value(text: str) -> None:
    expected = value_outcome(reference_path, text)
    assert value_outcome(read_expr, text) == expected, text
    assert value_outcome(tree_path, text) == expected, text


def _deep(inner):
    """``inner`` nested to about the nesting cap, on either side of it."""
    return st.tuples(
        inner,
        st.integers(MAX_NESTING - 2, MAX_NESTING + 1),
        st.sampled_from([("[", "]"), ("(", ")"), ("P(", ")"), ("prec(x, ", ")"), ("-[", "]"), ("2*(", ")")]),
    ).map(lambda t: t[2][0] * t[1] + t[0] + t[2][1] * t[1])


# The expressions above, and terms that a zero or other coefficient
# scales, sums of such terms, and nesting at the cap.
READ_EXPRESSIONS = st.one_of(
    EXPRESSIONS,
    st.tuples(st.sampled_from(["0", "0/3", "1", "-2", "1/2"]), EXPRESSIONS, EXPRESSIONS).map(
        lambda t: f"{t[0]}*({t[1]}) + {t[2]}"
    ),
    st.tuples(EXPRESSIONS, st.sampled_from(["0", "3", "2/4"]), EXPRESSIONS).map(
        lambda t: f"[{t[0]}]*{t[1]} - ({t[2]})"
    ),
    _deep(EXPRESSIONS),
)


@settings(max_examples=500)
@given(READ_EXPRESSIONS)
@example("x*[y] - 1/2*[x]*y + 3/4*prec(x, y)")
@example("2/4*x + 1/2*x - x")
@example("(x + y)*[x - y] - 3*(x*y)")
@example("star(1/2*x - y, [x]) - bullet(x, x)")
def test_the_reader_matches_the_tree_path(text):
    assert_same_value(text)


@settings(max_examples=300)
@given(READ_EXPRESSIONS, st.integers(0, 200), CORRUPTIONS)
def test_the_reader_matches_the_tree_path_on_corrupted_expressions(text, at, piece):
    assert_same_value(text[:at] + piece + text[at:])


@pytest.mark.parametrize(
    "text, expected",
    [
        # A term with coefficient 0 is dropped before its names are checked.
        ("0*q + x", {"x": (1, int)}),
        ("0*prec(q, x) + x", {"x": (1, int)}),
        # A scalar in parentheses is a factor, so its name is checked.
        ("(0)*q", ("error", UnknownIdentifier, "unknown generator: q")),
        # A syntax error outranks an undeclared name.
        ("q+(", ("error", ParseError, f"{CUT_SHORT} (at position 3)")),
        ("q + (", ("error", ParseError, f"{CUT_SHORT} (at position 5)")),
        # It outranks a bare scalar and a term with coefficient 0 too.
        ("x + 1 + (", ("error", ParseError, f"{CUT_SHORT} (at position 9)")),
        ("0*q + (", ("error", ParseError, f"{CUT_SHORT} (at position 7)")),
        # The first syntax error wins, wherever the values are.
        ("x + [y", ("error", ParseError, "expected ']', found 'end of input' (at position 6)")),
        ("frob(x, y) + q", ("error", ParseError, "unknown function 'frob' (at position 0)")),
        # A scalar left over is an error unless it is 0.
        ("x + 1 - 1", {"x": (1, int)}),
        ("x + (1) - 1", ("error", EvalError, "a bare scalar is not an algebra element")),
        ("2*(3)", ("error", EvalError, "a bare scalar is not an algebra element")),
        ("(2)*(0) + x", {"x": (1, int)}),
        ("[2]", ("error", EvalError, "a bare scalar is not an algebra element")),
        ("[0]", {}),
        ("P(0)", {}),
        ("prec(x, 2)", ("error", EvalError, "a bare scalar is not an algebra element")),
        ("(x)*[(x)]", {"x*[x]": (1, int)}),
        ("2/4*x - 1/2*x + 6/4*[y]", {"[y]": (Fraction(3, 2), Fraction)}),
        (
            "[x]*[y]*2/3",
            {
                "[[x]*y]": (Fraction(2, 3), Fraction),
                "[x*[y]]": (Fraction(2, 3), Fraction),
                "[[x*y]]": (Fraction(-2, 3), Fraction),
            },
        ),
        ("[" * MAX_NESTING + "x" + "]" * MAX_NESTING, {"[" * MAX_NESTING + "x" + "]" * MAX_NESTING: (1, int)}),
    ],
)
def test_the_reader_on_the_edges_the_tree_path_decides(text, expected):
    assert value_outcome(read_expr, text) == expected
    assert_same_value(text)


def test_the_reader_past_the_nesting_cap_and_the_digit_limit():
    for text in ("[" * (MAX_NESTING + 1) + "x" + "]" * (MAX_NESTING + 1), "9" * 5000 + "*x"):
        outcome = value_outcome(read_expr, text)
        assert outcome[:2] == ("error", ParseError), outcome
        assert_same_value(text)


@pytest.mark.parametrize(
    "text, expected",
    [
        ("[x]*[y] + x", ("error", TooManyTerms, "a product has 3 terms, more than the cap of 2")),
        # The tree path reads the whole text before any product.
        ("[x]*[y] + (", ("error", ParseError, f"{CUT_SHORT} (at position 11)")),
        # The tree path evaluates the terms in order.
        ("z + [x]*[y]", ("error", UnknownIdentifier, "unknown generator: z")),
        ("[x]*[y] + z", ("error", TooManyTerms, "a product has 3 terms, more than the cap of 2")),
        # A term with coefficient 0 makes no product.
        ("0*[x]*[y] + x", {"x": (1, int)}),
        ("[x]*y*[x*y]", {"[x]*y*[x*y]": (1, int)}),
    ],
)
def test_the_reader_over_the_term_cap(text, expected):
    with command_scope(max_terms=2):
        assert value_outcome(read_expr, text) == expected
        assert_same_value(text)


@settings(max_examples=300)
@given(READ_EXPRESSIONS, st.integers(1, 6))
@example("[x]*[y]*z", 2)
@example("prec(x, [y]) + 0*[x]*[y]*[x]", 1)
def test_the_reader_matches_the_reference_under_a_term_cap(text, cap):
    with command_scope(max_terms=cap):
        assert_same_value(text)


BARE_SCALAR = ("error", EvalError, "a bare scalar is not an algebra element")


@pytest.mark.parametrize(
    "text, cap, expected",
    [
        # A product multiplies its factors as it evaluates them, in order.
        ("[x]*[y]*z", 2, ("error", TooManyTerms, "a product has 3 terms, more than the cap of 2")),
        ("z*[x]*[y]", 2, ("error", UnknownIdentifier, "unknown generator: z")),
        # An expression of scalars alone is a scalar factor; a sum or a
        # product of scalar factors is evaluated whole.
        ("((2) + 0*x)*x", MAX_TERMS, {"x": (2, int)}),
        ("(2) + 0*x", MAX_TERMS, BARE_SCALAR),
        ("(2)*(3)*x", MAX_TERMS, {"x": (6, int)}),
        ("((2)*(3))*x", MAX_TERMS, BARE_SCALAR),
        # A scalar factor 0 is not multiplied; a combination 0 is.
        ("(0*x)*[x]*[y]", 2, ("error", TooManyTerms, "a product has 3 terms, more than the cap of 2")),
        ("(0*(x + y))*[x]*[y]", 2, ("error", TooManyTerms, "a product has 3 terms, more than the cap of 2")),
        ("(x - x)*[x]*[y]", 2, {}),
        # A coefficient 0 drops its term wherever it stands.
        ("q*0 + x", MAX_TERMS, {"x": (1, int)}),
        # A call evaluates its left side first.
        ("prec(q, 0*x)", MAX_TERMS, ("error", UnknownIdentifier, "unknown generator: q")),
    ],
)
def test_the_order_of_evaluation(text, cap, expected):
    with command_scope(max_terms=cap):
        assert value_outcome(read_expr, text) == expected
        assert_same_value(text)
