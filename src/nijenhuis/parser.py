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
evaluated combination.  Tokens are plain ``(kind, text, position)``
tuples, and each tree node is an immutable tuple of its fields that
equals and hashes by class and fields, so building a tree allocates one
tuple per node.
"""

from __future__ import annotations

import re
from fractions import Fraction
from operator import itemgetter
from typing import Iterable, Union

from .algebra import OpSymbol, derived_op, operator_n, product
from .linalg import LinComb, _divide, _int_if_integral
from .words import MAX_NESTING, BracketedWord, letter_word

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


class _Node(tuple):
    """An immutable parse-tree node: the tuple of its fields.

    A node equals and hashes as the pair of its class and its fields, so
    nodes of different classes, or a node and a plain tuple, are never
    equal.  Building one is a single tuple allocation.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __eq__(self, other: object) -> bool:
        return type(other) is type(self) and tuple.__eq__(self, other)

    def __ne__(self, other: object) -> bool:
        return not self == other

    def __hash__(self) -> int:
        return hash((type(self), tuple(self)))

    def __getnewargs__(self) -> tuple:
        return tuple(self)

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self))
        return f"{type(self).__name__}({fields})"


class GeneratorRef(_Node):
    __slots__ = ()
    _fields = ("name",)
    name: str = property(itemgetter(0))  # type: ignore[assignment]

    def __new__(cls, name: str) -> "GeneratorRef":
        return tuple.__new__(cls, (name,))


class ScalarLit(_Node):
    __slots__ = ()
    _fields = ("value",)
    value: int | Fraction = property(itemgetter(0))  # type: ignore[assignment]

    def __new__(cls, value: int | Fraction) -> "ScalarLit":
        return tuple.__new__(cls, (value,))


class BracketApply(_Node):
    __slots__ = ()
    _fields = ("child",)
    child: "Expr" = property(itemgetter(0))  # type: ignore[assignment]

    def __new__(cls, child: "Expr") -> "BracketApply":
        return tuple.__new__(cls, (child,))


class Product(_Node):
    __slots__ = ()
    _fields = ("children",)
    children: tuple["Expr", ...] = property(itemgetter(0))  # type: ignore[assignment]

    def __new__(cls, children: tuple["Expr", ...]) -> "Product":
        if len(children) < 2:
            raise ValueError("a product has at least two factors")
        return tuple.__new__(cls, (children,))


class Sum(_Node):
    __slots__ = ()
    _fields = ("terms",)
    terms: tuple[tuple[int | Fraction, "Expr"], ...] = property(itemgetter(0))  # type: ignore[assignment]

    def __new__(cls, terms: tuple[tuple[int | Fraction, "Expr"], ...]) -> "Sum":
        if len(terms) < 2 or not all(c != 0 for c, _ in terms):
            raise ValueError("a sum has at least two terms, each with a nonzero coefficient")
        return tuple.__new__(cls, (terms,))


class DerivedOpNode(_Node):
    __slots__ = ()
    _fields = ("op", "left", "right")
    op: OpSymbol = property(itemgetter(0))  # type: ignore[assignment]
    left: "Expr" = property(itemgetter(1))  # type: ignore[assignment]
    right: "Expr" = property(itemgetter(2))  # type: ignore[assignment]

    def __new__(cls, op: OpSymbol, left: "Expr", right: "Expr") -> "DerivedOpNode":
        return tuple.__new__(cls, (op, left, right))


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


# A token is a tuple (kind, text, position); the last one has kind "end".
_Token = tuple[str, str, int]


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    pos = 0
    for m in _TOKEN.finditer(text):
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
            return _divide(value, denom)
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
            return LinComb._wrap({letter_word(node.name): 1})
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
                    coeff = _int_if_integral(coeff * child.value)
                else:
                    part = walk(child)
                    value = part if value is None else product(value, part)
            if value is None:
                if coeff == 0:
                    return LinComb.zero()
                raise EvalError("a bare scalar is not an algebra element")
            return value.scale(coeff)
        if isinstance(node, Sum):
            data: dict[BracketedWord, int | Fraction] = {}
            get = data.get
            for coeff, child in node.terms:
                if isinstance(child, ScalarLit):
                    if coeff * child.value != 0:
                        raise EvalError("a bare scalar is not an algebra element")
                    continue
                for w, c in walk(child)._terms.items():
                    c = coeff if c == 1 else coeff * c
                    acc = get(w)
                    data[w] = c if acc is None else acc + c
            return LinComb._wrap({w: _int_if_integral(c) for w, c in data.items() if c})
        raise TypeError(f"not an expression node: {node!r}")

    return walk(expr)


def print_canonical(a: LinComb) -> str:
    """Render a combination with terms in canonical order."""
    return str(a)
