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
``(`` and stay usable as generator names otherwise.  :func:`read_expr`
maps an expression to a linear combination over a declared generator
set, and ``str`` renders a combination in the canonical term order;
reading, then printing, is the identity on printed output.

Coefficients are exact: an ``int`` when integral, a
:class:`fractions.Fraction` otherwise.  The tokens are their texts
alone, found by one ``findall`` and read by index; a token's position
is found again only to report a :class:`ParseError`.

One recursive descent reads the grammar and computes the value as it
reads, through one set of value actions: :func:`read_expr`, which the
commands call, reads a text once, straight to its value or its error,
and builds no tree.  :func:`parse_expr`, :func:`eval_expr` and
:func:`print_canonical` are a few lines over :func:`read_expr` and
``str``, kept for the benchmark worker's round trip.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Iterable, Union

from .algebra import OpSymbol, TooManyTerms, derived_op, operator_n, product
from .linalg import LinComb, _divide, _int_if_integral, _integer, _wrap
from .words import _NAME, MAX_NESTING, UsageError

__all__ = [
    "ParseError",
    "UnknownIdentifier",
    "EvalError",
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


# A value: a word's text, for one word with coefficient 1; a LinComb; a
# scalar; or the error that reading raises.
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


class _Reader:
    """Recursive descent over the token texts, read by index, to a value.

    A name reads as its word if it is in ``allowed``.  The productions
    hand the values they read to four actions: ``bracket(inner)``,
    ``call(op, left, right)``, ``product(factors)`` for the factors of a
    term other than its numerals, and ``sum(terms)`` for the
    ``(coefficient, product)`` pairs of an expression.  A term of one
    factor is that factor, and an expression of one term with
    coefficient 1 is that term, with no action called.

    An undeclared name, a bare scalar or a product over the term cap
    reads as that error, as a value; an action passes on the first error
    among its parts, in the order of evaluation.  The descent reads on,
    so a syntax error anywhere is still raised first.
    """

    __slots__ = ("text", "tokens", "index", "nesting", "allowed")

    def __init__(self, text: str, allowed: set[str] | frozenset[str]):
        self.text = text
        self.tokens = _tokenize(text)
        self.index = 0
        self.nesting = 0
        self.allowed = allowed

    def error(self, message: str, index: int, offset: int = 0) -> ParseError:
        """An error at the token ``index``, ``offset`` characters into it."""
        return ParseError(message, _token_starts(self.text)[index] + offset)

    def expect(self, text: str) -> None:
        tok = self.tokens[self.index]
        if tok != text:
            raise self.error(f"expected {text!r}, found {tok or 'end of input'!r}", self.index)
        self.index += 1

    def read(self) -> _Value:
        result = self.read_expr()
        tok = self.tokens[self.index]
        if tok:
            raise self.error(f"trailing input {tok!r}", self.index)
        return result

    def read_expr(self) -> _Value:
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

    def read_term(self) -> tuple[int | Fraction, _Value | None]:
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
                    factors.append(tok if tok in self.allowed else UnknownIdentifier(tok))
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

    def read_call(self, name: str) -> _Value:
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
        """The value of a term's factors, or ``None`` for a bare scalar."""
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
    """The value of a sum with a bare scalar, a coefficient 0, a scalar or an error.

    The bare scalars add up, and terms with coefficient 0 go.  A sum of
    bare scalars alone is their total, a scalar; otherwise a nonzero
    total is one more term, after the others.  One term left with
    coefficient 1 is that term, and any other sum is evaluated whole.
    """
    kept = []
    scalar_total: int | Fraction = 0
    for coeff, part in terms:
        if part is None:
            scalar_total = _int_if_integral(scalar_total + coeff)
        elif coeff != 0:
            kept.append((coeff, part))
    if not kept:
        return scalar_total
    if scalar_total != 0:
        kept.append((scalar_total, 1))
    if len(kept) == 1 and kept[0][0] == 1:
        return kept[0][1]
    elements = [(coeff, _element(value)) for coeff, value in kept]
    for _, value in elements:
        if isinstance(value, UsageError):
            return value
    return _Reader.sum(elements)


def read_expr(text: str, declared: Iterable[str]) -> LinComb:
    """The value of ``text`` over the declared generators, read in one pass.

    Raises :class:`ParseError` on a syntax error, and on input nested
    more than :data:`~nijenhuis.words.MAX_NESTING` levels deep; then
    :class:`UnknownIdentifier` for a stray name, :class:`EvalError` when
    a nonzero bare scalar is left over, since the algebra has no unit to
    absorb it, or :class:`~nijenhuis.algebra.TooManyTerms`, whichever
    comes first in the order of evaluation.
    """
    return _result(_Reader(text, set(declared)).read())


def parse_expr(text: str) -> str:
    """``text``, or the :class:`ParseError` that :func:`read_expr` raises on it.

    It reads ``text`` with no name declared, so nothing is multiplied.
    Kept for ``perfbench/worker.py`` until ROADMAP item 1 may change that
    file, whose round trip is then ``str(read_expr(text, names)) == text``.
    """
    _Reader(text, frozenset()).read()
    return text


def eval_expr(expr: str, declared: Iterable[str]) -> LinComb:
    """:func:`read_expr`; kept for ``perfbench/worker.py`` until ROADMAP item 1 may change that file."""
    return read_expr(expr, declared)


def print_canonical(a: LinComb) -> str:
    """``str(a)``; kept for ``perfbench/worker.py`` until ROADMAP item 1 may change that file."""
    return str(a)
