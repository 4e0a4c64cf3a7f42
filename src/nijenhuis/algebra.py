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
junction brackets maps them to their expansion, a plain dict of
integer terms, so it grows with the distinct bracket junctions seen,
not with the word pairs.  It empties itself when it reaches
``_PRODUCT_CACHE_LIMIT`` junctions.  Entries are pure values that no
caller mutates, so concurrent repopulation is harmless.  Splitting a
word into its last bracket and the text before it, or into its first
bracket and the text after it, takes that factor from
:func:`~nijenhuis.words.factors` and is memoized up to a bounded number
of words.  Where two brackets meet, every path, the recursion too, reads
the word product as a plain dict of terms from :func:`_product_terms`;
at a letter junction every caller outside the recursion writes ``u*v``
inline.  The rule is applied and cached by :func:`_junction` alone, and
one loop, :func:`_terms_times`, multiplies terms by terms for
:func:`product` and the sweeps alike.

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
``assoc-check``, ``nijenhuis-check`` and ``fd-check`` commands: each
returns the first failing case with both sides, as a
:class:`CheckReport`, or None.  Given a product ``mul``, they run on any
elements it takes, such as coordinate vectors.  Without one, they run
on basis words under the free product, on plain dicts of integer terms
(the associativity sweep holds a side of one word with coefficient 1 as
its text), checking each product against the term cap as
:func:`product` would, in the same order.  On free words the operator
identity holds by construction, its left side being the junction memo
``[a] . [b]``: the sweep reads ``[a] . b``, ``a . [b]`` and ``a . b``
once each, fills the memo from them only if it is cold, and compares
the memo with its own sum of the right side.  The independent,
cache-free check of the product is ``tests/test_product_reference.py``.
"""

from __future__ import annotations

from contextlib import contextmanager
from enum import Enum
from functools import lru_cache
from typing import Any, Callable, Iterator, NamedTuple, Sequence

from .linalg import LinComb, _divide, _int_if_integral, _numerators, _wrap
from .words import UsageError, factors

__all__ = [
    "OpSymbol",
    "COORD_OPS",
    "product",
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

_PRODUCT_CACHE: dict[tuple[str, str], dict[str, int]] = {}
# A long-lived process of mixed commands met fewer than 5,000 junctions
# in 28,000 commands, and `assoc-check --alphabet x,y,z --max-size 3`
# meets 21,825, so neither reaches the limit; unbounded, the 198,180 of
# `assoc-check --max-size 4` took its peak memory to 227 MB.
_PRODUCT_CACHE_LIMIT = 1 << 15
_max_terms = MAX_TERMS


class TooManyTerms(UsageError):
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


@lru_cache(maxsize=1 << 14)
def _split_last(u: str) -> tuple[str, str]:
    """The text before the last factor of ``u``, a bracket, and that bracket."""
    last = factors(u)[-1]
    return u[:-len(last)], last


@lru_cache(maxsize=1 << 14)
def _split_first(v: str) -> tuple[str, str]:
    """The first factor of ``v``, a bracket, and the text after it."""
    first = factors(v)[0]
    return first, v[len(first):]


def _product_terms(u: str, v: str) -> dict[str, int]:
    """The terms of the product of two basis words; the dict may be the cache's own."""
    if u[-1] != "]" or v[0] != "[":
        return {u + "*" + v: 1}
    prefix, last = _split_last(u)
    first, suffix = _split_first(v)
    key = (last, first)
    junction = _PRODUCT_CACHE.get(key)
    if junction is None:
        u, v = last[1:-1], first[1:-1]
        junction = _junction(key, _product_terms(last, v), _product_terms(u, first), _product_terms(u, v))

    if not (prefix or suffix):
        return junction
    # Junction words start and end with brackets, so reattaching the
    # untouched outer text cannot break alternation or merge terms.
    return {prefix + w + suffix: c for w, c in junction.items()}


def _junction(
    key: tuple[str, str], left: dict[str, int], right: dict[str, int], inner: dict[str, int]
) -> dict[str, int]:
    """Cache and return the junction ``[u] . [v]`` of ``key`` from ``[u] . v``, ``u . [v]`` and ``u . v``."""
    data = {f"[{w}]": c for w, c in left.items()}
    get = data.get
    for w, c in right.items():
        w = f"[{w}]"
        acc = get(w)
        data[w] = c if acc is None else acc + c
    for w, c in inner.items():
        w = f"[[{w}]]"
        acc = get(w)
        data[w] = -c if acc is None else acc - c
    junction = {w: c for w, c in data.items() if c}
    if len(_PRODUCT_CACHE) >= _PRODUCT_CACHE_LIMIT:
        _PRODUCT_CACHE.clear()
    _PRODUCT_CACHE[key] = junction
    return junction


def _terms_times(ta: dict[str, int], tb: dict[str, int]) -> dict[str, int]:
    """The nonzero terms of ``ta`` times ``tb``, integer terms on word texts, checked against the term cap."""
    data: dict[str, int] = {}
    get = data.get
    for wu, cu in ta.items():
        ends_in_bracket = wu[-1] == "]"
        for wv, cv in tb.items():
            scale = cu * cv
            if not ends_in_bracket or wv[0] != "[":
                # A letter junction, as in _product_terms: the one word u*v,
                # inline, since eval and mul run 2-4% slower through the call.
                w = wu + "*" + wv
                acc = get(w)
                data[w] = scale if acc is None else acc + scale
                continue
            for w, c in _product_terms(wu, wv).items():
                c *= scale
                acc = get(w)
                data[w] = c if acc is None else acc + c
    data = {w: c for w, c in data.items() if c}
    if len(data) > _max_terms:
        _over_cap(len(data))
    return data


def product(a: LinComb, b: LinComb) -> LinComb:
    """Bilinear extension of the word product.

    Raises :class:`TooManyTerms` when the result has more terms than
    the cap (see :func:`command_scope`).
    """
    if len(a._terms) != 1 or len(b._terms) != 1:
        # Integer numerators over one denominator per operand, so the
        # kernel runs on ints; each result term is divided once.
        ta, da = _numerators(a._terms)
        tb, db = _numerators(b._terms)
        data = _terms_times(ta, tb)
        d = da * db
        return _wrap(data if d == 1 else {w: _divide(c, d) for w, c in data.items()})
    # One word times one word, as in every relation check, skips
    # _numerators and the dict loop: ns-check runs a quarter slower without.
    ((wu, cu),) = a._terms.items()
    ((wv, cv),) = b._terms.items()
    scale = cu * cv
    if wu[-1] != "]" or wv[0] != "[":
        # A letter junction, as in _product_terms: the one word u*v.
        return _wrap({wu + "*" + wv: scale if type(scale) is int else _int_if_integral(scale)})
    result = _wrap(_product_terms(wu, wv))
    if len(result._terms) > _max_terms:
        _over_cap(len(result._terms))
    return result if scale == 1 else result.scale(scale)


def _over_cap(terms: int) -> None:
    raise TooManyTerms(f"a product has {terms} terms, more than the cap of {_max_terms}")


def _side(terms: dict[str, int]) -> str | dict[str, int]:
    """A sweep side: one word with coefficient 1 as its text, any other terms as they are."""
    return next(iter(terms)) if len(terms) == 1 and 1 in terms.values() else terms


def _lincomb(side: str | dict[str, int]) -> LinComb:
    return _wrap({side: 1} if type(side) is str else dict(side))


def _times(a: str | dict[str, int], b: str | dict[str, int]) -> str | dict[str, int]:
    """The sweep side of ``a`` times ``b``, each a sweep side.

    The result is checked against the term cap as :func:`product` checks it.
    """
    if type(a) is not str or type(b) is not str:
        return _side(_terms_times({a: 1} if type(a) is str else a, {b: 1} if type(b) is str else b))
    # A letter junction never reaches _product_terms from here, as from
    # product: the fault differentials in tests/test_sweeps.py rely on it.
    if a[-1] != "]" or b[0] != "[":
        return a + "*" + b
    data = _product_terms(a, b)
    if len(data) > _max_terms:
        _over_cap(len(data))
    return _side(data)


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

    Given ``mul``, ``elements`` are whatever it multiplies.  With no
    ``mul`` they are basis words, the texts that
    :func:`~nijenhuis.words.words_up_to_size` returns, under the free
    product, each side a text or a term dict (see the module docstring).
    Every pair product ``b c`` is computed once, up front, and serves
    both as the left factor ``a b`` and as the right factor ``b c``.
    """
    n = len(elements)
    if mul is not None:
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
    # Sides held as texts where they can be: on term dicts alone this
    # sweep runs two to three times as long over {a,b} and {a,b,c} to size 2.
    pairs = [[_times(b, c) for c in elements] for b in elements]
    for i, a in enumerate(elements):
        row = pairs[i]
        a_run = a[-1] != "]"
        for j in range(n):
            ab, right_factors = row[j], pairs[j]
            ab_text = type(ab) is str
            ab_run = ab_text and ab[-1] != "]"
            for k, c in enumerate(elements):
                bc = right_factors[k]
                # A text side at a letter junction is one concatenation.
                lhs = ab + "*" + c if ab_run or ab_text and c[0] != "[" else _times(ab, c)
                rhs = a + "*" + bc if type(bc) is str and (a_run or bc[0] != "[") else _times(a, bc)
                if lhs != rhs:
                    return CheckReport(False, "associativity", (i, j, k), _lincomb(lhs), _lincomb(rhs))
    return None


def first_operator_identity_failure(
    elements: Sequence[Any],
    mul: Callable[[Any, Any], Any] | None = None,
    n: Callable[[Any], Any] | None = None,
) -> CheckReport | None:
    """First pair, in row-major order, with ``N(a) N(b) != N(N(a) b + a N(b) - N(a b))``.

    Given ``mul``, ``elements`` are whatever it multiplies, and ``n``
    defaults to the free operator.  With no ``mul`` they are basis words,
    and the left side is the junction memo (see the module docstring).
    """
    if mul is not None:
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
    images = [f"[{a}]" for a in elements]
    for i, a in enumerate(elements):
        pa = images[i]
        a_run = a[-1] != "]"
        for j, b in enumerate(elements):
            pb = images[j]
            # Each product once: a letter junction is one concatenation,
            # never read from _product_terms, as in _times (and about 5%
            # faster on {x,y} and {a,b,c} to size 3).
            b_run = b[0] != "["
            pa_b = {pa + "*" + b: 1} if b_run else _product_terms(pa, b)
            a_pb = {a + "*" + pb: 1} if a_run else _product_terms(a, pb)
            a_b = {a + "*" + b: 1} if a_run or b_run else _product_terms(a, b)
            # A cached junction is read as it is, never rebuilt over.
            if (pa, pb) not in _PRODUCT_CACHE:
                _junction((pa, pb), pa_b, a_pb, a_b)
            lhs = _product_terms(pa, pb)
            for terms in (lhs, pa_b, a_pb, a_b):
                if len(terms) > _max_terms:
                    _over_cap(len(terms))
            # Summed here, not by _junction, so the memo is checked against it.
            rhs = {f"[{w}]": c for w, c in pa_b.items()}
            get = rhs.get
            for w, c in a_pb.items():
                w = f"[{w}]"
                acc = get(w)
                rhs[w] = c if acc is None else acc + c
            for w, c in a_b.items():
                w = f"[[{w}]]"
                acc = get(w)
                rhs[w] = -c if acc is None else acc - c
            rhs = {w: c for w, c in rhs.items() if c}
            if lhs != rhs:
                return CheckReport(False, "operator-identity", (i, j), _wrap(dict(lhs)), _wrap(rhs))
    return None
