"""The free Nijenhuis algebra product and its splitting operations.

A basis word is its canonical text (see :mod:`nijenhuis.words`), and
the product of two words works on that text by a junction recursion:
everything except the last factor of the left word and the first factor
of the right word is carried along unchanged, and the two junction
factors combine by kind.  When either of them is a letter run the
product is the one word ``u*v``, with coefficient 1: two runs merge into
one run, and a run next to a bracket simply sits there.  Two brackets
expand by the rule

    [u] . [v]  =  [[u] . v] + [u . [v]] - [[u . v]]

which terminates because every recursive call strictly lowers the total
bracket nesting.  The distinguished operator N wraps each word of a
combination in one bracket, ``[w]``; the identity

    N(a) . N(b)  =  N(N(a) . b) + N(a . N(b)) - N(N(a . b))

then holds by construction.  Splitting the product through N gives three
bilinear operations (and their sum):

    a < b = a . N(b)      a > b = N(a) . b      a o b = -N(a . b)

All operations extend bilinearly from words to combinations, and
:func:`derived_op` also splits a finite-dimensional algebra, given its
product and operator.  Only the bracket-bracket junction recurses, so
only it is memoized: a module cache keyed on the texts of the two
junction brackets maps them to their expansion, so it grows with the
distinct bracket junctions seen, not with the word pairs.  It empties
itself when it reaches ``_PRODUCT_CACHE_LIMIT`` junctions.  Entries are
pure values, so concurrent repopulation is harmless.  Splitting a word
into its last bracket and the text before it, or into its first bracket
and the text after it, is memoized up to a bounded number of words.

Every structure constant of the word product is an integer, so products
of words carry ``int`` coefficients, and the only rationals in a product
of combinations are the operands' own.  :func:`product` therefore
writes each operand over one common denominator, multiplies and sums
integer numerators, and divides each result term once, by the product
of the two denominators; a term that divides exactly stays an ``int``.
Operands with integer coefficients, as in the sweeps, have denominator
1 and are never divided.  The texts a product returns are plain
concatenations, unchecked, and none of them can break alternation:
``u*v`` merges two runs or puts a run next to a bracket; a bracket
junction's words start and end with brackets, so the text reattached
around them alternates as it did in the operands; and ``[w]`` is a
single factor.  The tests pass every such text through the one checked
constructor, :func:`~nijenhuis.words.word`, and a reference model.

:func:`product` checks the size of each result: one with more terms
than the cap, :data:`MAX_TERMS` unless :func:`command_scope` sets
another, raises :class:`TooManyTerms`.  Only the result is checked, so
the cap bounds the work that follows a product, not the product itself.

:func:`first_nonassociative_triple` and
:func:`first_operator_identity_failure` are the sweeps behind the
``assoc-check``, ``nijenhuis-check`` and ``fd-check`` commands and the
acceptance tests, on free or finite-dimensional elements: each returns
the first failing case with both sides, as a :class:`CheckReport`
named tuple, or None.
"""

from __future__ import annotations

from contextlib import contextmanager
from enum import Enum
from functools import lru_cache
from typing import Any, Callable, Iterator, NamedTuple, Sequence

from .linalg import LinComb, _divide, _int_if_integral, _numerators, _wrap
from .words import _close

__all__ = [
    "OpSymbol",
    "COORD_OPS",
    "product",
    "product_words",
    "operator_n",
    "derived_op",
    "MAX_TERMS",
    "TooManyTerms",
    "command_scope",
    "CheckReport",
    "first_nonassociative_triple",
    "first_operator_identity_failure",
]


class OpSymbol(Enum):
    """Names for the derived bilinear operations."""

    PREC = "prec"
    SUCC = "succ"
    BULLET = "bullet"
    STAR = "star"


#: The three operations that coordinatize quadratic relations.
COORD_OPS = (OpSymbol.PREC, OpSymbol.SUCC, OpSymbol.BULLET)

#: Most terms one :func:`product` may return outside :func:`command_scope`.
MAX_TERMS = 100_000

_PRODUCT_CACHE: dict[tuple[str, str], LinComb] = {}
# A long-lived process of mixed commands met fewer than 5,000 junctions
# in 28,000 commands, and `assoc-check --alphabet x,y,z --max-size 3`
# meets 21,825, so neither reaches the limit; unbounded, the 198,180 of
# `assoc-check --max-size 4` took its peak memory to 227 MB.
_PRODUCT_CACHE_LIMIT = 1 << 15
_max_terms = MAX_TERMS


class TooManyTerms(ValueError):
    """A product has more terms than the cap allows."""


@contextmanager
def command_scope(max_terms: int = MAX_TERMS) -> Iterator[None]:
    """Run one command: cap every product at ``max_terms`` terms.

    On the way out, whatever happened, the default cap comes back.
    """
    global _max_terms
    _max_terms = max_terms
    try:
        yield
    finally:
        _max_terms = MAX_TERMS


_MIRROR = str.maketrans("[]", "][")


@lru_cache(maxsize=1 << 14)
def _split_last(u: str) -> tuple[str, str]:
    """The text before the last factor of ``u``, a bracket, and that bracket."""
    # Mirrored and reversed, the last bracket of u opens at position 0.
    start = len(u) - 1 - _close(u[::-1].translate(_MIRROR), 0)
    return (u[:start], u[start:]) if start else ("", u)


@lru_cache(maxsize=1 << 14)
def _split_first(v: str) -> tuple[str, str]:
    """The first factor of ``v``, a bracket, and the text after it."""
    end = _close(v, 0) + 1
    return (v[:end], v[end:]) if end < len(v) else (v, "")


def product_words(u: str, v: str) -> LinComb:
    """Product of two basis words as a linear combination of words."""
    if u[-1] != "]" or v[0] != "[":
        return _wrap({u + "*" + v: 1})
    prefix, last = _split_last(u)
    first, suffix = _split_first(v)
    key = (last, first)
    junction = _PRODUCT_CACHE.get(key)
    if junction is None:
        inner_last, inner_first = last[1:-1], first[1:-1]
        data = dict(operator_n(product_words(last, inner_first))._terms)
        get = data.get
        for w, c in operator_n(product_words(inner_last, first))._terms.items():
            acc = get(w)
            data[w] = c if acc is None else acc + c
        for w, c in product_words(inner_last, inner_first)._terms.items():
            w = f"[[{w}]]"
            acc = get(w)
            data[w] = -c if acc is None else acc - c
        junction = _wrap({w: c for w, c in data.items() if c})
        if len(_PRODUCT_CACHE) >= _PRODUCT_CACHE_LIMIT:
            _PRODUCT_CACHE.clear()
        _PRODUCT_CACHE[key] = junction

    if not (prefix or suffix):
        return junction
    # Junction words start and end with brackets, so reattaching the
    # untouched outer text cannot break alternation or merge terms.
    return _wrap({prefix + w + suffix: c for w, c in junction._terms.items()})


def product(a: LinComb, b: LinComb) -> LinComb:
    """Bilinear extension of the word product.

    Raises :class:`TooManyTerms` when the result has more terms than
    the cap (see :func:`command_scope`).
    """
    if len(a._terms) == 1 and len(b._terms) == 1:
        ((wu, cu),) = a._terms.items()
        ((wv, cv),) = b._terms.items()
        scale = cu * cv
        if wu[-1] != "]" or wv[0] != "[":
            # A letter junction, as in product_words: the one word u*v.
            result = _wrap({wu + "*" + wv: scale if type(scale) is int else _int_if_integral(scale)})
        else:
            result = product_words(wu, wv)
            if scale != 1:
                result = result.scale(scale)
    else:
        # Integer numerators over one denominator per operand, so the
        # sums below run on ints; each result term is divided once.
        ta, da = _numerators(a._terms)
        tb, db = _numerators(b._terms)
        data: dict[str, int] = {}
        get = data.get
        for wu, cu in ta.items():
            ends_in_bracket = wu[-1] == "]"
            for wv, cv in tb.items():
                scale = cu * cv
                if not ends_in_bracket or wv[0] != "[":
                    # A letter junction, as in product_words: the one word u*v.
                    w = wu + "*" + wv
                    acc = get(w)
                    data[w] = scale if acc is None else acc + scale
                    continue
                unit = scale == 1
                for w, c in product_words(wu, wv)._terms.items():
                    if not unit:
                        c = scale * c
                    acc = get(w)
                    data[w] = c if acc is None else acc + c
        d = da * db
        if d == 1:
            result = _wrap({w: c for w, c in data.items() if c})
        else:
            result = _wrap({w: _divide(c, d) for w, c in data.items() if c})
    if len(result._terms) > _max_terms:
        raise TooManyTerms(f"a product has {len(result._terms)} terms, more than the cap of {_max_terms}")
    return result


def operator_n(a: LinComb) -> LinComb:
    """Apply the distinguished operator: wrap each word in one bracket."""
    return _wrap({f"[{w}]": c for w, c in a._terms.items()})


def derived_op(
    op: OpSymbol,
    a: Any,
    b: Any,
    mul: Callable[[Any, Any], Any] | None = None,
    n: Callable[[Any], Any] | None = None,
) -> Any:
    """Apply one of the splitting operations, or their sum for STAR.

    ``mul`` and ``n`` default to the free product and operator.
    """
    mul = mul or product
    n = n or operator_n
    if op is OpSymbol.PREC:
        return mul(a, n(b))
    if op is OpSymbol.SUCC:
        return mul(n(a), b)
    if op is OpSymbol.BULLET:
        return -n(mul(a, b))
    if op is OpSymbol.STAR:
        return mul(a, n(b)) + mul(n(a), b) - n(mul(a, b))
    raise ValueError(f"unknown operation: {op!r}")


class CheckReport(NamedTuple):
    """Outcome of a sweep: either a pass, or the first failure found."""

    ok: bool
    kind: str = ""
    indices: tuple[int, ...] = ()
    lhs: Any = None
    rhs: Any = None

    def describe(self) -> str:
        if self.ok:
            return "pass"
        where = ", ".join(str(i) for i in self.indices)
        detail = ""
        if self.lhs is not None and self.rhs is not None:
            detail = f": lhs={_format_side(self.lhs)}, rhs={_format_side(self.rhs)}"
        return f"{self.kind} fails at ({where}){detail}"


def _format_side(side: Any) -> str:
    """A coordinate vector as ``(a, b, ...)``; anything else by ``str``."""
    if isinstance(side, tuple):
        return "(" + ", ".join(map(str, side)) + ")"
    return str(side)


def first_nonassociative_triple(
    elements: Sequence[Any], mul: Callable[[Any, Any], Any] | None = None
) -> CheckReport | None:
    """First triple, in row-major order, with ``(a b) c != a (b c)``.

    ``mul`` defaults to the free product, read when the sweep is called.
    Every pair product ``b c`` is computed once, up front, and serves
    both as the left factor ``a b`` and as the right factor ``b c``.
    """
    mul = mul or product
    n = len(elements)
    pairs = [[mul(b, c) for c in elements] for b in elements]
    for i in range(n):
        a, row = elements[i], pairs[i]
        for j in range(n):
            ab, right_factors = row[j], pairs[j]
            for k in range(n):
                lhs = mul(ab, elements[k])
                rhs = mul(a, right_factors[k])
                if lhs != rhs:
                    return CheckReport(False, "associativity", (i, j, k), lhs, rhs)
    return None


def first_operator_identity_failure(
    elements: Sequence[Any],
    mul: Callable[[Any, Any], Any] | None = None,
    n: Callable[[Any], Any] | None = None,
) -> CheckReport | None:
    """First pair, in row-major order, with ``N(a) N(b) != N(N(a) b + a N(b) - N(a b))``.

    ``mul`` and ``n`` default to the free product and operator.  Each
    element is mapped by ``N`` once.
    """
    mul = mul or product
    n = n or operator_n
    images = [n(a) for a in elements]
    for i, a in enumerate(elements):
        pa = images[i]
        for j, b in enumerate(elements):
            pb = images[j]
            lhs = mul(pa, pb)
            rhs = n(mul(pa, b)) + n(mul(a, pb)) - n(n(mul(a, b)))
            if lhs != rhs:
                return CheckReport(False, "operator-identity", (i, j), lhs, rhs)
    return None
