"""The free Nijenhuis algebra product and its splitting operations.

The product of two basis words is computed by a junction recursion: all
factors except the last of the left word and the first of the right word
are carried along unchanged, and the two junction factors combine by
kind.  Two letter runs merge into one run, a letter run and a bracket
simply sit next to each other, and two brackets expand by the rule

    [u] . [v]  =  [[u] . v] + [u . [v]] - [[u . v]]

which terminates because every recursive call strictly lowers the total
bracket nesting.  The distinguished operator N wraps a combination in
one bracket; the identity

    N(a) . N(b)  =  N(N(a) . b) + N(a . N(b)) - N(N(a . b))

then holds by construction.  Splitting the product through N gives three
bilinear operations (and their sum):

    a < b = a . N(b)      a > b = N(a) . b      a o b = -N(a . b)

All operations extend bilinearly from words to combinations.  Junction
products are memoized in a module cache keyed on the junction factor
pair (last factor of the left word, first factor of the right word), so
the cache grows with the distinct junctions seen, not with the word
pairs; entries are pure values, so concurrent repopulation is harmless.

Every structure constant of the word product is an integer, so products
of words carry ``int`` coefficients.  The words a product returns are
built by the unchecked ``BracketedWord._of``: each junction word starts
and ends with factors of the same kinds as the two junction factors, so
the outer factors reattached around it alternate exactly as they did in
the operands, and ``[w]`` is a single factor.  Neither can break
alternation, and the tests compare every such word with the checked
constructor.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction

from .linalg import LinComb
from .words import Bracket, BracketedWord, Factor, Letters

__all__ = [
    "OpSymbol",
    "COORD_OPS",
    "product",
    "product_words",
    "operator_n",
    "derived_op",
]


class OpSymbol(Enum):
    """Names for the derived bilinear operations."""

    PREC = "prec"
    SUCC = "succ"
    BULLET = "bullet"
    STAR = "star"


#: The three operations that coordinatize quadratic relations.
COORD_OPS = (OpSymbol.PREC, OpSymbol.SUCC, OpSymbol.BULLET)

_PRODUCT_CACHE: dict[tuple[Factor, Factor], LinComb] = {}


def product_words(u: BracketedWord, v: BracketedWord) -> LinComb:
    """Product of two basis words as a linear combination of words."""
    last, first = u.factors[-1], v.factors[0]
    key = (last, first)
    junction = _PRODUCT_CACHE.get(key)
    if junction is None:
        if isinstance(last, Letters):
            if isinstance(first, Letters):
                junction = LinComb.from_word(BracketedWord((Letters(last.run + first.run),)))
            else:
                junction = LinComb.from_word(BracketedWord((last, first)))
        elif isinstance(first, Letters):
            junction = LinComb.from_word(BracketedWord((last, first)))
        else:
            left_alone = BracketedWord((last,))
            right_alone = BracketedWord((first,))
            junction = (
                operator_n(product_words(left_alone, first.inner))
                + operator_n(product_words(last.inner, right_alone))
                - operator_n(operator_n(product_words(last.inner, first.inner)))
            )
        _PRODUCT_CACHE[key] = junction

    prefix, suffix = u.factors[:-1], v.factors[1:]
    if not (prefix or suffix):
        return junction
    # Junction words keep the junction end kinds, so reattaching the
    # untouched outer factors cannot break alternation or merge terms.
    return LinComb._of(
        {
            BracketedWord._of(prefix + w.factors + suffix): c
            for w, c in junction._terms.items()
        }
    )


def product(a: LinComb, b: LinComb) -> LinComb:
    """Bilinear extension of the word product."""
    data: dict[BracketedWord, int | Fraction] = {}
    get = data.get
    for wu, cu in a._terms.items():
        for wv, cv in b._terms.items():
            scale = cu * cv
            unit = scale == 1
            for w, c in product_words(wu, wv)._terms.items():
                if not unit:
                    c = scale * c
                acc = get(w)
                data[w] = c if acc is None else acc + c
    return LinComb._of({w: c for w, c in data.items() if c})


def operator_n(a: LinComb) -> LinComb:
    """Apply the distinguished operator: wrap each word in one bracket."""
    return LinComb._of({BracketedWord._of((Bracket(w),)): c for w, c in a._terms.items()})


def derived_op(op: OpSymbol, a: LinComb, b: LinComb) -> LinComb:
    """Apply one of the splitting operations, or their sum for STAR."""
    if op is OpSymbol.PREC:
        return product(a, operator_n(b))
    if op is OpSymbol.SUCC:
        return product(operator_n(a), b)
    if op is OpSymbol.BULLET:
        return -operator_n(product(a, b))
    if op is OpSymbol.STAR:
        return (
            product(a, operator_n(b))
            + product(operator_n(a), b)
            - operator_n(product(a, b))
        )
    raise ValueError(f"unknown operation: {op!r}")
