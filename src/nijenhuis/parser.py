"""Surface syntax for algebra elements.

Grammar, in order of loosening precedence::

    expr    := ['-'] term (('+' | '-') term)*
    term    := factor ('*' factor)*
    factor  := INT ['/' INT] | atom
    atom    := IDENT | FUNC '(' expr ',' expr ')' | 'P' '(' expr ')'
             | '[' expr ']' | '(' expr ')'

``[e]`` applies the distinguished operator, as does ``P(e)``.  The
four named binary operations are ``prec``, ``succ``, ``bullet`` and
``star``; those words act as functions only when directly followed by
``(`` and stay usable as generator names otherwise.  Evaluation maps an
expression to a linear combination over a declared generator set, and
:func:`print_canonical` renders a combination in the canonical term
order; parse, evaluate, print is the identity on printed output.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Union

from .algebra import OpSymbol, derived_op, operator_n, product
from .linalg import LinComb, rational
from .words import MAX_NESTING, letter_word

__all__ = [
    "ParseError",
    "UnknownIdentifier",
    "EvalError",
    "Expr",
    "GeneratorRef",
    "ScalarLit",
    "BracketApply",
    "Product",
    "Sum",
    "DerivedOpNode",
    "parse_expr",
    "eval_expr",
    "print_canonical",
]


class ParseError(ValueError):
    """Syntax error with the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class EvalError(ValueError):
    """An expression evaluates outside the algebra, e.g. a bare scalar."""


class UnknownIdentifier(EvalError):
    """A name not in the declared generator set."""

    def __init__(self, name: str):
        super().__init__(f"unknown generator: {name}")
        self.name = name


@dataclass(frozen=True)
class GeneratorRef:
    name: str


@dataclass(frozen=True)
class ScalarLit:
    value: int | Fraction


@dataclass(frozen=True)
class BracketApply:
    child: "Expr"


@dataclass(frozen=True)
class Product:
    children: tuple["Expr", ...]

    def __post_init__(self) -> None:
        assert len(self.children) >= 2


@dataclass(frozen=True)
class Sum:
    terms: tuple[tuple[int | Fraction, "Expr"], ...]

    def __post_init__(self) -> None:
        assert len(self.terms) >= 2
        assert all(c != 0 for c, _ in self.terms)


@dataclass(frozen=True)
class DerivedOpNode:
    op: OpSymbol
    left: "Expr"
    right: "Expr"


Expr = Union[GeneratorRef, ScalarLit, BracketApply, Product, Sum, DerivedOpNode]

_FUNCTIONS = {
    "prec": OpSymbol.PREC,
    "succ": OpSymbol.SUCC,
    "bullet": OpSymbol.BULLET,
    "star": OpSymbol.STAR,
}

_TOKEN = re.compile(
    r"(?P<ws>\s+)|(?P<ident>[A-Za-z][A-Za-z0-9_]*)|(?P<int>\d+)|(?P<sym>[-+*/()\[\],])"
)


@dataclass(frozen=True)
class _Token:
    kind: str
    text: str
    position: int


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        if m.lastgroup != "ws":
            tokens.append(_Token(m.lastgroup or "", m.group(), pos))
        pos = m.end()
    tokens.append(_Token("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.index = 0
        self.nesting = 0

    def peek(self) -> _Token:
        return self.tokens[self.index]

    def advance(self) -> _Token:
        tok = self.tokens[self.index]
        self.index += 1
        return tok

    def expect(self, text: str) -> _Token:
        tok = self.peek()
        if tok.text != text:
            raise ParseError(f"expected {text!r}, found {tok.text or 'end of input'!r}", tok.position)
        return self.advance()

    def parse(self) -> Expr:
        expr = self.parse_expr()
        tok = self.peek()
        if tok.kind != "end":
            raise ParseError(f"trailing input {tok.text!r}", tok.position)
        return expr

    def parse_expr(self) -> Expr:
        # The whole input is level 0; each enclosing bracket, parenthesis
        # or call adds one level.
        if self.nesting > MAX_NESTING:
            raise ParseError(f"nesting deeper than {MAX_NESTING} levels", self.peek().position)
        self.nesting += 1
        terms: list[tuple[int | Fraction, Expr | None]] = []
        sign = 1
        if self.peek().text == "-":
            self.advance()
            sign = -1
        terms.append(self._signed_term(sign))
        while self.peek().text in ("+", "-"):
            sign = 1 if self.advance().text == "+" else -1
            terms.append(self._signed_term(sign))
        self.nesting -= 1
        return _combine_terms(terms)

    def _signed_term(self, sign: int) -> tuple[int | Fraction, Expr | None]:
        coeff, node = self.parse_term()
        return sign * coeff, node

    def parse_term(self) -> tuple[int | Fraction, Expr | None]:
        coeff: int | Fraction = 1
        children: list[Expr] = []
        while True:
            tok = self.peek()
            if tok.kind == "int":
                coeff = rational(coeff * self._rational())
            else:
                children.append(self.parse_atom())
            if self.peek().text == "*":
                self.advance()
                continue
            break
        if not children:
            return coeff, None
        node = children[0] if len(children) == 1 else Product(tuple(children))
        return coeff, node

    def _rational(self) -> int | Fraction:
        tok = self.advance()
        value = int(tok.text)
        if self.peek().text == "/":
            slash = self.advance()
            denom_tok = self.peek()
            if denom_tok.kind != "int":
                raise ParseError("expected an integer denominator", slash.position + 1)
            self.advance()
            denom = int(denom_tok.text)
            if denom == 0:
                raise ParseError("zero denominator", denom_tok.position)
            return rational(Fraction(value, denom))
        return value

    def parse_atom(self) -> Expr:
        tok = self.peek()
        if tok.kind == "ident":
            self.advance()
            if self.peek().text == "(":
                return self._call(tok)
            return GeneratorRef(tok.text)
        if tok.text == "[":
            self.advance()
            inner = self.parse_expr()
            self.expect("]")
            return BracketApply(inner)
        if tok.text == "(":
            self.advance()
            inner = self.parse_expr()
            self.expect(")")
            return inner
        raise ParseError(
            f"expected a generator, number, bracket, or parenthesis, found {tok.text or 'end of input'!r}",
            tok.position,
        )

    def _call(self, name: _Token) -> Expr:
        self.expect("(")
        if name.text == "P":
            inner = self.parse_expr()
            self.expect(")")
            return BracketApply(inner)
        op = _FUNCTIONS.get(name.text)
        if op is None:
            raise ParseError(f"unknown function {name.text!r}", name.position)
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
            scalar_total = rational(scalar_total + coeff)
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


def parse_expr(text: str) -> Expr:
    """Parse surface syntax into an expression tree.

    Raises :class:`ParseError` on a syntax error, and on input nested
    more than :data:`~nijenhuis.words.MAX_NESTING` levels deep.
    """
    return _Parser(text).parse()


def eval_expr(expr: Expr, declared: Iterable[str]) -> LinComb:
    """Evaluate over the declared generators.

    Raises :class:`UnknownIdentifier` for stray names and
    :class:`EvalError` when a nonzero bare scalar is left over, since the
    algebra has no unit to absorb it.
    """
    allowed = set(declared)

    def walk(node: Expr) -> LinComb:
        if isinstance(node, GeneratorRef):
            if node.name not in allowed:
                raise UnknownIdentifier(node.name)
            return LinComb.from_word(letter_word(node.name))
        if isinstance(node, ScalarLit):
            if node.value != 0:
                raise EvalError("a bare scalar is not an algebra element")
            return LinComb.zero()
        if isinstance(node, BracketApply):
            return operator_n(walk(node.child))
        if isinstance(node, DerivedOpNode):
            return derived_op(node.op, walk(node.left), walk(node.right))
        if isinstance(node, Product):
            coeff: int | Fraction = 1
            value: LinComb | None = None
            for child in node.children:
                if isinstance(child, ScalarLit):
                    coeff = rational(coeff * child.value)
                else:
                    part = walk(child)
                    value = part if value is None else product(value, part)
            if value is None:
                if coeff == 0:
                    return LinComb.zero()
                raise EvalError("a bare scalar is not an algebra element")
            return value.scale(coeff)
        if isinstance(node, Sum):
            pairs = []
            for coeff, child in node.terms:
                if isinstance(child, ScalarLit):
                    if coeff * child.value != 0:
                        raise EvalError("a bare scalar is not an algebra element")
                    continue
                pairs.extend((w, coeff * c) for w, c in walk(child)._terms.items())
            return LinComb(pairs)
        raise TypeError(f"not an expression node: {node!r}")

    return walk(expr)


def print_canonical(a: LinComb) -> str:
    """Render a combination with terms in canonical order."""
    return str(a)
