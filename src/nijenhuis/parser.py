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

Coefficients are exact: an ``int`` when integral, a
:class:`fractions.Fraction` otherwise, both in the tree and in the
evaluated combination.  The tokens are their texts alone, found by
one ``findall`` and read by index; a token's position is found again
only to report a :class:`ParseError`.  Each tree node is a
:func:`collections.namedtuple` of its fields, which gives the fields,
the repr and pickling; a node equals and hashes by class and fields, so
building a tree allocates one tuple per node.  The evaluator dispatches
on the node class and checks each generator name once per call.
"""

from __future__ import annotations

import re
from collections import namedtuple
from fractions import Fraction
from typing import Iterable, Union

from .algebra import OpSymbol, derived_op, operator_n, product
from .linalg import LinComb, _divide, _int_if_integral, _integer, _wrap
from .words import MAX_NESTING, UsageError, letter_word

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


class ParseError(UsageError):
    """Syntax error with the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class EvalError(UsageError):
    """An expression evaluates outside the algebra, e.g. a bare scalar."""


class UnknownIdentifier(EvalError):
    """A name not in the declared generator set."""

    def __init__(self, name: str):
        super().__init__(f"unknown generator: {name}")
        self.name = name


class _Node(tuple):
    """The equality of a parse-tree node.

    A node equals and hashes as the pair of its class and its fields, so
    nodes of different classes, or a node and a plain tuple, are never
    equal.
    """

    __slots__ = ()

    def __eq__(self, other: object) -> bool:
        return type(other) is type(self) and tuple.__eq__(self, other)

    def __ne__(self, other: object) -> bool:
        return not self == other

    def __hash__(self) -> int:
        return hash((type(self), tuple(self)))


class GeneratorRef(_Node, namedtuple("GeneratorRef", "name")):
    __slots__ = ()


class ScalarLit(_Node, namedtuple("ScalarLit", "value")):
    __slots__ = ()


class BracketApply(_Node, namedtuple("BracketApply", "child")):
    __slots__ = ()


class Product(_Node, namedtuple("Product", "children")):
    __slots__ = ()

    def __new__(cls, children: tuple["Expr", ...]) -> "Product":
        if len(children) < 2:
            raise ValueError("a product has at least two factors")
        return super().__new__(cls, children)


class Sum(_Node, namedtuple("Sum", "terms")):
    __slots__ = ()

    def __new__(cls, terms: tuple[tuple[int | Fraction, "Expr"], ...]) -> "Sum":
        if len(terms) < 2 or not all(c != 0 for c, _ in terms):
            raise ValueError("a sum has at least two terms, each with a nonzero coefficient")
        return super().__new__(cls, terms)


class DerivedOpNode(_Node, namedtuple("DerivedOpNode", "op left right")):
    __slots__ = ()


Expr = Union[GeneratorRef, ScalarLit, BracketApply, Product, Sum, DerivedOpNode]

_FUNCTIONS = {
    "prec": OpSymbol.PREC,
    "succ": OpSymbol.SUCC,
    "bullet": OpSymbol.BULLET,
    "star": OpSymbol.STAR,
}

_TOKEN = re.compile(r"[A-Za-z][A-Za-z0-9_]*|\d+|[-+*/()\[\],]")
# A token after any whitespace; the group is the token.
_SPACED_TOKEN = re.compile(rf"\s*({_TOKEN.pattern})")


def _tokenize(text: str) -> list[str]:
    """The token texts of ``text``, then ``""`` for the end of input."""
    tokens = _TOKEN.findall(text)
    # No token holds whitespace, so the tokens cover every other
    # character exactly when they join to the text without whitespace.
    if "".join(tokens) != "".join(text.split()):
        _token_starts(text)  # raises at the first stray character
    tokens.append("")
    return tokens


def _token_starts(text: str) -> list[int]:
    """Where each token of ``text`` starts, then where the input ends.

    Read again only for an error message.  Raises :class:`ParseError`
    at the first character that is neither whitespace nor in a token.
    """
    starts: list[int] = []
    pos = 0
    for m in _SPACED_TOKEN.finditer(text):
        if m.start() != pos:
            break
        starts.append(m.start(1))
        pos = m.end()
    rest = text[pos:]
    pos += len(rest) - len(rest.lstrip())
    if pos != len(text):
        raise ParseError(f"unexpected character {text[pos]!r}", pos)
    starts.append(pos)
    return starts


class _Parser:
    """Recursive descent over the token texts, read by index."""

    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.index = 0
        self.nesting = 0

    def error(self, message: str, index: int, offset: int = 0) -> ParseError:
        """An error at the token ``index``, ``offset`` characters into it."""
        return ParseError(message, _token_starts(self.text)[index] + offset)

    def expect(self, text: str) -> None:
        tok = self.tokens[self.index]
        if tok != text:
            raise self.error(f"expected {text!r}, found {tok or 'end of input'!r}", self.index)
        self.index += 1

    def parse(self) -> Expr:
        expr = self.parse_expr()
        tok = self.tokens[self.index]
        if tok:
            raise self.error(f"trailing input {tok!r}", self.index)
        return expr

    def parse_expr(self) -> Expr:
        # The whole input is level 0; each enclosing bracket, parenthesis
        # or call adds one level.
        if self.nesting > MAX_NESTING:
            raise self.error(f"nesting deeper than {MAX_NESTING} levels", self.index)
        self.nesting += 1
        tokens = self.tokens
        negate = tokens[self.index] == "-"
        if negate:
            self.index += 1
        coeff, node = self.parse_term()
        terms: list[tuple[int | Fraction, Expr | None]] = [(-coeff if negate else coeff, node)]
        tok = tokens[self.index]
        while tok == "+" or tok == "-":
            self.index += 1
            coeff, node = self.parse_term()
            terms.append((coeff if tok == "+" else -coeff, node))
            tok = tokens[self.index]
        self.nesting -= 1
        return _combine_terms(terms)

    def parse_term(self) -> tuple[int | Fraction, Expr | None]:
        tokens = self.tokens
        coeff: int | Fraction = 1
        children: list[Expr] = []
        while True:
            tok = tokens[self.index]
            if tok.isidentifier():
                self.index += 1
                if tokens[self.index] == "(":
                    children.append(self._call(tok, self.index - 1))
                else:
                    children.append(GeneratorRef(tok))
            elif tok.isdecimal():
                value = self._rational()
                coeff = value if coeff == 1 else _int_if_integral(coeff * value)
            else:
                children.append(self.parse_atom())
            if tokens[self.index] != "*":
                break
            self.index += 1
        if not children:
            return coeff, None
        node = children[0] if len(children) == 1 else Product(tuple(children))
        return coeff, node

    def _rational(self) -> int | Fraction:
        tokens = self.tokens
        i = self.index
        value = self._numeral(i)
        if tokens[i + 1] != "/":
            self.index = i + 1
            return value
        if not tokens[i + 2].isdecimal():
            raise self.error("expected an integer denominator", i + 1, 1)
        self.index = i + 3
        d = self._numeral(i + 2)
        if d == 0:
            raise self.error("zero denominator", i + 2)
        return _divide(value, d)

    def _numeral(self, i: int) -> int:
        """The value of the INT token at ``i``, under the numeral rule of files."""
        try:
            return _integer(self.tokens[i], self.tokens[i])
        except UsageError as exc:
            raise self.error(str(exc), i) from None

    def parse_atom(self) -> Expr:
        tok = self.tokens[self.index]
        if tok == "[":
            self.index += 1
            inner = self.parse_expr()
            self.expect("]")
            return BracketApply(inner)
        if tok == "(":
            self.index += 1
            inner = self.parse_expr()
            self.expect(")")
            return inner
        raise self.error(
            f"expected a generator, number, bracket, or parenthesis, found {tok or 'end of input'!r}",
            self.index,
        )

    def _call(self, name: str, at: int) -> Expr:
        """The call of ``name``, the token at ``at``, whose ``(`` is next."""
        self.index += 1
        if name == "P":
            inner = self.parse_expr()
            self.expect(")")
            return BracketApply(inner)
        op = _FUNCTIONS.get(name)
        if op is None:
            raise self.error(f"unknown function {name!r}", at)
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


def print_canonical(a: LinComb) -> str:
    """Render a combination with terms in canonical order."""
    return str(a)
