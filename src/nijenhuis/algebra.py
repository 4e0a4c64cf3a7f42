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

All operations extend bilinearly from words to combinations, and
:func:`derived_op` also splits a finite-dimensional algebra, given its
product and operator.  Only the bracket-bracket junction recurses, so
only it is memoized: a module cache keyed on the two junction brackets
maps them to their expansion, and the cache grows with the distinct
bracket junctions seen, not with the word pairs.  Entries are pure
values, so concurrent repopulation is harmless.  A letter-letter or
mixed junction is a plain concatenation and is built directly as the one
result word, with coefficient 1.

Every structure constant of the word product is an integer, so products
of words carry ``int`` coefficients.  The words a product returns are
built by the unchecked ``BracketedWord._of``, ``Letters._of`` and
``Bracket._of``, and none of them can break alternation.  A mixed
junction puts a letter run next to a bracket; a letter junction merges
the two runs into one, whose
neighbours are the brackets (or ends) that neighboured the two runs; a
bracket junction's words start and end with brackets, so the outer
factors reattached around them alternate exactly as they did in the
operands; and ``[w]`` is a single factor.  The tests compare every such
word with the checked constructors.

Equal words are shared within a command.  ``BracketedWord._of`` returns
the word it built earlier from an equal factor tuple (see
:mod:`nijenhuis.words`), and :func:`operator_n` keeps a map from each
word it has wrapped to its image ``[w]``, so ``N`` of one word is built
once.  Dict lookups and comparisons of shared words end at the identity
test.  :func:`command_scope` empties the word table and the image map
when a command ends, so a long-lived process holds at most one
command's words; junctions the product cache kept from an earlier
command keep the words they were built with.  Each table also empties
itself when it reaches 4096 entries, for the reasons given at
``_WORDS_LIMIT`` in :mod:`nijenhuis.words`.  Sharing cannot change a
result: words are immutable, and equality and hashing stay structural,
so a shared word and any other equal word are interchangeable.

:func:`product` checks the size of each result: one with more terms
than the cap, :data:`MAX_TERMS` unless :func:`command_scope` sets
another, raises :class:`TooManyTerms`.  Only the result is checked, so
the cap bounds the work that follows a product, not the product itself.

:func:`first_nonassociative_triple` and
:func:`first_operator_identity_failure` are the sweeps behind the
``assoc-check``, ``nijenhuis-check`` and ``fd-check`` commands and the
acceptance tests, on free or finite-dimensional elements: each returns
the first failing case with both sides, as a :class:`CheckReport`, or
None.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Any, Callable, Iterator, Sequence

from .linalg import LinComb, format_rational
from .words import _WORDS, Bracket, BracketedWord, Letters

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

_PRODUCT_CACHE: dict[tuple[Bracket, Bracket], LinComb] = {}
_BRACKET_IMAGES: dict[BracketedWord, BracketedWord] = {}
_BRACKET_IMAGES_LIMIT = 4096
_max_terms = MAX_TERMS


class TooManyTerms(ValueError):
    """A product has more terms than the cap allows."""


@contextmanager
def command_scope(max_terms: int = MAX_TERMS) -> Iterator[None]:
    """Run one command: cap every product at ``max_terms`` terms.

    On the way out, whatever happened, the word table and the
    bracket-image map are emptied and the default cap comes back.
    """
    global _max_terms
    _max_terms = max_terms
    try:
        yield
    finally:
        _max_terms = MAX_TERMS
        _WORDS.clear()
        _BRACKET_IMAGES.clear()


def product_words(u: BracketedWord, v: BracketedWord) -> LinComb:
    """Product of two basis words as a linear combination of words."""
    last, first = u.factors[-1], v.factors[0]
    if type(last) is not type(first):
        return LinComb._of({BracketedWord._of(u.factors + v.factors): 1})
    if type(last) is Letters:
        merged = Letters._of(last.run + first.run)
        return LinComb._of({BracketedWord._of(u.factors[:-1] + (merged,) + v.factors[1:]): 1})

    key = (last, first)
    junction = _PRODUCT_CACHE.get(key)
    if junction is None:
        left_alone = BracketedWord._of((last,))
        right_alone = BracketedWord._of((first,))
        data = dict(operator_n(product_words(left_alone, first.inner))._terms)
        get = data.get
        for w, c in operator_n(product_words(last.inner, right_alone))._terms.items():
            acc = get(w)
            data[w] = c if acc is None else acc + c
        for w, c in operator_n(operator_n(product_words(last.inner, first.inner)))._terms.items():
            acc = get(w)
            data[w] = -c if acc is None else acc - c
        junction = LinComb._of({w: c for w, c in data.items() if c})
        _PRODUCT_CACHE[key] = junction

    prefix, suffix = u.factors[:-1], v.factors[1:]
    if not (prefix or suffix):
        return junction
    # Junction words start and end with brackets, so reattaching the
    # untouched outer factors cannot break alternation or merge terms.
    return LinComb._of(
        {
            BracketedWord._of(prefix + w.factors + suffix): c
            for w, c in junction._terms.items()
        }
    )


def product(a: LinComb, b: LinComb) -> LinComb:
    """Bilinear extension of the word product.

    Raises :class:`TooManyTerms` when the result has more terms than
    the cap (see :func:`command_scope`).
    """
    if len(a._terms) == 1 and len(b._terms) == 1:
        ((wu, cu),) = a._terms.items()
        ((wv, cv),) = b._terms.items()
        result = product_words(wu, wv)
        scale = cu * cv
        if scale != 1:
            result = result.scale(scale)
    else:
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
        result = LinComb._of({w: c for w, c in data.items() if c})
    if len(result._terms) > _max_terms:
        raise TooManyTerms(f"a product has {len(result._terms)} terms, more than the cap of {_max_terms}")
    return result


def operator_n(a: LinComb) -> LinComb:
    """Apply the distinguished operator: wrap each word in one bracket."""
    images = _BRACKET_IMAGES
    data: dict[BracketedWord, int | Fraction] = {}
    for w, c in a._terms.items():
        image = images.get(w)
        if image is None:
            if len(images) >= _BRACKET_IMAGES_LIMIT:
                images.clear()
            image = images[w] = BracketedWord._of((Bracket._of(w),))
        data[image] = c
    return LinComb._of(data)


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


@dataclass(frozen=True)
class CheckReport:
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
        return "(" + ", ".join(format_rational(a) for a in side) + ")"
    return str(side)


def first_nonassociative_triple(
    elements: Sequence[Any], mul: Callable[[Any, Any], Any] = product
) -> CheckReport | None:
    """First triple, in row-major order, with ``(a b) c != a (b c)``.

    Every pair product ``b c`` is computed once, up front, and serves
    both as the left factor ``a b`` and as the right factor ``b c``.
    """
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
