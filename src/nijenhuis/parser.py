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
building a tree allocates one tuple per node.

One recursive descent reads the grammar and hands what it reads to a
set of actions.  :func:`parse_expr` runs it with actions that build the
tree; :func:`read_expr`, which the commands call, with actions that
compute the value.  :func:`eval_expr` folds a tree through those same
actions, so one set of rules decides every value and every error.
"""

from __future__ import annotations

import re
from collections import namedtuple
from fractions import Fraction
from typing import Iterable, Union

from .algebra import OpSymbol, TooManyTerms, derived_op, operator_n, product
from .linalg import LinComb, _divide, _int_if_integral, _integer, _wrap
from .words import _NAME, MAX_NESTING, UsageError, letter_word

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
    "read_expr",
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

_TOKEN = re.compile(rf"{_NAME.pattern}|\d+|[-+*/()\[\],]")
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


class _Reader:
    """Recursive descent over the token texts, read by index.

    The productions hand what they read to five actions:
    ``generator(name)``, ``bracket(inner)``, ``call(op, left, right)``,
    ``product(factors)`` for the factors of a term other than its
    numerals, and ``sum(terms)`` for the ``(coefficient, product)``
    pairs of an expression.  A term of one factor is that factor, and an
    expression of one term with coefficient 1 is that term, with no
    action called.  The actions here build the tree; :class:`_ValueReader`
    swaps in actions that compute the value.
    """

    __slots__ = ("text", "tokens", "index", "nesting")

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

    def read(self):
        result = self.read_expr()
        tok = self.tokens[self.index]
        if tok:
            raise self.error(f"trailing input {tok!r}", self.index)
        return result

    def read_expr(self):
        # The whole input is level 0; each enclosing bracket, parenthesis
        # or call adds one level.
        if self.nesting > MAX_NESTING:
            raise self.error(f"nesting deeper than {MAX_NESTING} levels", self.index)
        self.nesting += 1
        tokens = self.tokens
        negate = tokens[self.index] == "-"
        if negate:
            self.index += 1
        coeff, part = self.read_term()
        if negate:
            coeff = -coeff
        tok = tokens[self.index]
        if tok != "+" and tok != "-":
            self.nesting -= 1
            if coeff == 1 and part is not None:
                return part
            return self.sum([(coeff, part)])
        terms = [(coeff, part)]
        while tok == "+" or tok == "-":
            self.index += 1
            coeff, part = self.read_term()
            terms.append((coeff if tok == "+" else -coeff, part))
            tok = tokens[self.index]
        self.nesting -= 1
        return self.sum(terms)

    def read_term(self):
        tokens = self.tokens
        coeff: int | Fraction = 1
        factors = []
        while True:
            tok = tokens[self.index]
            self.index += 1
            if tok.isidentifier():
                if tokens[self.index] == "(":
                    factors.append(self.read_call(tok))
                else:
                    factors.append(self.generator(tok))
            elif tok.isdecimal():
                number = self.read_rational(tok)
                coeff = number if coeff == 1 else _int_if_integral(coeff * number)
            elif tok == "[":
                inner = self.read_expr()
                self.expect("]")
                factors.append(self.bracket(inner))
            elif tok == "(":
                inner = self.read_expr()
                self.expect(")")
                factors.append(inner)
            else:
                raise self.error(
                    f"expected a generator, number, bracket, or parenthesis, found {tok or 'end of input'!r}",
                    self.index - 1,
                )
            if tokens[self.index] != "*":
                break
            self.index += 1
        return coeff, factors[0] if len(factors) == 1 else self.product(factors)

    def read_rational(self, tok: str) -> int | Fraction:
        """The numeral ``tok``, just read, and its denominator if one follows."""
        # A numeral past the digit limit is refused as in files.
        try:
            value = _integer(tok, tok)
        except UsageError as exc:
            raise self.error(str(exc), self.index - 1) from None
        tokens = self.tokens
        i = self.index
        if tokens[i] != "/":
            return value
        denominator = tokens[i + 1]
        if not denominator.isdecimal():
            raise self.error("expected an integer denominator", i, 1)
        self.index = i + 2
        try:
            d = _integer(denominator, denominator)
        except UsageError as exc:
            raise self.error(str(exc), i + 1) from None
        if d == 0:
            raise self.error("zero denominator", i + 1)
        return _divide(value, d)

    def read_call(self, name: str):
        """The call of ``name``, just read, whose ``(`` is next."""
        at = self.index - 1
        self.index += 1
        if name == "P":
            inner = self.read_expr()
            self.expect(")")
            return self.bracket(inner)
        op = _FUNCTIONS.get(name)
        if op is None:
            raise self.error(f"unknown function {name!r}", at)
        left = self.read_expr()
        self.expect(",")
        right = self.read_expr()
        self.expect(")")
        return self.call(op, left, right)

    generator = GeneratorRef
    bracket = BracketApply
    call = DerivedOpNode

    @staticmethod
    def product(factors: list[Expr]) -> Expr | None:
        """The node of a term of two or more factors, or ``None`` for a bare scalar."""
        return Product(tuple(factors)) if factors else None

    @staticmethod
    def sum(terms: list[tuple[int | Fraction, Expr | None]]) -> Expr:
        """The expression's node: the bare scalars add up, and terms with coefficient 0 go."""
        normalized, scalar_total = _normalize(terms, ScalarLit(1))
        if not normalized:
            return ScalarLit(scalar_total)
        if len(normalized) > 1:
            return Sum(tuple(normalized))
        coeff, node = normalized[0]
        return node if coeff == 1 else Product((ScalarLit(coeff), node))


def _normalize(terms: list, one: object) -> tuple[list, int | Fraction]:
    """The kept terms, then the bare scalars' total times ``one`` if both are there; and that total."""
    kept = []
    scalar_total: int | Fraction = 0
    for coeff, part in terms:
        if part is None:
            scalar_total = _int_if_integral(scalar_total + coeff)
        elif coeff != 0:
            kept.append((coeff, part))
    if kept and scalar_total != 0:
        kept.append((scalar_total, one))
    return kept, scalar_total


def parse_expr(text: str) -> Expr:
    """Parse surface syntax into an expression tree.

    Raises :class:`ParseError` on a syntax error, and on input nested
    more than :data:`~nijenhuis.words.MAX_NESTING` levels deep.
    """
    return _Reader(text).read()


def eval_expr(expr: Expr, declared: Iterable[str]) -> LinComb:
    """Evaluate over the declared generators: fold the tree through the actions of :func:`read_expr`.

    Raises :class:`UnknownIdentifier` for stray names and
    :class:`EvalError` when a nonzero bare scalar is left over, since the
    algebra has no unit to absorb it.
    """
    actions = _ValueReader("", set(declared))  # a reader of no text, for its actions

    def fold(node: Expr) -> _Value:
        cls = type(node)
        if cls is GeneratorRef:  # a tree built by hand may hold any name
            value = actions.generator(node.name)
            return letter_word(value) if type(value) is str else value
        if cls is Product:
            return actions.product([fold(child) for child in node.children])
        if cls is Sum:
            return actions.sum([(coeff, fold(child)) for coeff, child in node.terms])
        if cls is BracketApply:
            return actions.bracket(fold(node.child))
        if cls is DerivedOpNode:
            return actions.call(node.op, fold(node.left), fold(node.right))
        if cls is ScalarLit:
            return node.value
        raise TypeError(f"not an expression node: {node!r}")

    return _result(fold(expr))


# A value: a word's text, for one word with coefficient 1; a LinComb; a
# scalar, where the tree has a ScalarLit; or the error evaluation raises.
_Value = Union[str, LinComb, int, Fraction, UsageError]


def _lincomb(value: str | LinComb) -> LinComb:
    return _wrap({value: 1}) if type(value) is str else value


def _times(a: str | LinComb, b: str | LinComb) -> str | LinComb:
    # Two words at a letter junction make the one word u*v, as in product.
    if type(a) is str and type(b) is str and (a[-1] != "]" or b[0] != "["):
        return a + "*" + b
    return product(_lincomb(a), _lincomb(b))


def _element(value: _Value) -> _Value:
    """``value`` where it is evaluated whole: a scalar is an error unless it is 0."""
    if type(value) is int or type(value) is Fraction:
        return LinComb() if value == 0 else EvalError("a bare scalar is not an algebra element")
    return value


def _result(value: _Value) -> LinComb:
    value = _element(value)
    if isinstance(value, UsageError):
        raise value
    return _lincomb(value)


class _ValueReader(_Reader):
    """The descent of :class:`_Reader` with actions that compute values.

    An action that meets an undeclared name, a bare scalar or a product
    over the term cap returns that error as its value, and passes on the
    first error among its parts, in the order of evaluation.  The descent
    reads on, so a syntax error anywhere is still raised first.
    """

    __slots__ = ("allowed",)

    def __init__(self, text: str, allowed: set[str]):
        super().__init__(text)
        self.allowed = allowed

    def generator(self, name: str) -> str | UnknownIdentifier:
        return name if name in self.allowed else UnknownIdentifier(name)

    @staticmethod
    def bracket(inner: _Value) -> _Value:
        if type(inner) is str:
            return f"[{inner}]"
        inner = _element(inner)
        return operator_n(inner) if type(inner) is LinComb else inner

    @staticmethod
    def call(op: OpSymbol, left: _Value, right: _Value) -> _Value:
        left, right = _element(left), _element(right)
        for part in (left, right):
            if isinstance(part, UsageError):
                return part
        try:
            return derived_op(op, _lincomb(left), _lincomb(right))
        except TooManyTerms as exc:
            return exc.with_traceback(None)

    @staticmethod
    def product(factors: list[_Value]) -> _Value | None:
        # Scalar factors scale the product; the others multiply in order.
        coeff: int | Fraction = 1
        value = None
        for factor in factors:
            if type(factor) is str or type(factor) is LinComb:
                try:
                    value = factor if value is None else _times(value, factor)
                except TooManyTerms as exc:
                    return exc.with_traceback(None)
            elif type(factor) is int or type(factor) is Fraction:
                coeff = _int_if_integral(coeff * factor)
            else:
                return factor
        if value is None:
            return _element(coeff) if factors else None
        return value if coeff == 1 else _lincomb(value).scale(coeff)

    @staticmethod
    def sum(terms: list[tuple[int | Fraction, _Value | None]]) -> _Value:
        # One dict for the whole sum: added up as LinCombs, eval and mul
        # run 6-7% slower.
        data: dict[str, int | Fraction] = {}
        get = data.get
        for coeff, value in terms:
            if type(value) is str and coeff:
                acc = get(value)
                data[value] = coeff if acc is None else acc + coeff
            elif type(value) is LinComb and coeff:
                for w, c in value._terms.items():
                    c = coeff if c == 1 else coeff * c
                    acc = get(w)
                    data[w] = c if acc is None else acc + c
            else:
                # A bare scalar, a coefficient 0, a scalar or an error.
                return _tree_sum(terms)
        return _wrap({w: _int_if_integral(c) for w, c in data.items() if c})


def _tree_sum(terms: list[tuple[int | Fraction, _Value | None]]) -> _Value:
    """The value of the node that :meth:`_Reader.sum` makes of ``terms``."""
    kept, scalar_total = _normalize(terms, 1)
    if not kept:
        return scalar_total
    if len(kept) == 1 and kept[0][0] == 1:
        return kept[0][1]
    elements = [(coeff, _element(value)) for coeff, value in kept]
    for _, value in elements:
        if isinstance(value, UsageError):
            return value
    return _ValueReader.sum(elements)


def read_expr(text: str, declared: Iterable[str]) -> LinComb:
    """The value of ``text`` over the declared generators, read in one pass.

    Equal to ``eval_expr(parse_expr(text), declared)``, coefficient
    types and errors included, but builds no tree.
    """
    return _result(_ValueReader(text, set(declared)).read())


def print_canonical(a: LinComb) -> str:
    """Render a combination with terms in canonical order."""
    return str(a)
