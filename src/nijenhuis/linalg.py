"""Exact rational scalars, linear combinations, coordinate vectors and row spaces.

One rule holds for every scalar here: it is exact, an ``int`` when the
value is integral and otherwise a :class:`fractions.Fraction` (reduced
form, positive denominator), never a float.  The two mix freely, compare
and hash alike, and print alike, so integral work such as the free
product's structure constants runs on plain integers.  :class:`LinComb`
coefficients, :class:`Vector` coordinates and :class:`RowSpace` rows,
remainders and kernels all follow it, whatever arithmetic produced them,
so ``type(c) is int`` tells the integral ones apart.  :class:`LinComb`
holds its dict of terms and nothing else: its canonical order and its
hash are computed on each call, not kept.  A value from outside is
coerced once, where it enters: by :func:`rational` for a scalar, which
reads a string only as a numeral of the expression grammar, and by the
:class:`Vector` constructor for coordinates, which passes a Vector
through; :func:`_sized` checks that each level of nested input is a list
of the right length.  Where many rational terms meet, as in the product
of two combinations, the work runs on integer numerators over a common
denominator (:func:`_numerators`), with one division per result term
(:func:`_divide`, memoized in a bounded cache, so equal quotients share
one Fraction); printing writes every coefficient, ``int`` or Fraction,
through its own ``str``.  Every sparse sum in this module is
:func:`_add_into`, ``target += c·terms`` in place: a :class:`LinComb`'s
construction, sum, difference and scaling, and a :class:`RowSpace`'s
elimination.  A result is built around its finished dict by
:func:`_wrap`, with nothing copied or checked.  :class:`Vector` is the
one dense coordinate vector, and :class:`RowSpace` the one sparse
elimination engine: it spans rows, tests membership, and gives kernels,
for the relation solver and the ideal closure alike.  :func:`span` is
the one way from dense rows to a :class:`RowSpace`.  ``fractions`` is
imported on the first use of a Fraction, by :func:`_fraction`, so integer
work, such as the word sweeps, never loads it, nor the ``decimal`` it
imports.
"""

from __future__ import annotations

import sys
from functools import lru_cache
from math import lcm
from operator import add, sub
from typing import TYPE_CHECKING, Any, Callable, Hashable, Iterable, Iterator, Mapping, Sequence, Union

from .words import UsageError, canonical_sort

if TYPE_CHECKING:
    from fractions import Fraction

    Row = dict[Hashable, int | Fraction]

__all__ = [
    "RationalLike",
    "rational",
    "LinComb",
    "Vector",
    "DimensionMismatch",
    "RowSpace",
    "span",
]

# A string, since ``fractions`` is not loaded here (see the module docstring).
RationalLike = "Fraction | int | str"


@lru_cache(maxsize=None)
def _fraction() -> type[Fraction]:
    """:class:`fractions.Fraction`, imported on the first call.

    Memoized, since an ``import`` statement run on each call would cost
    several times the rest of :func:`rational`.
    """
    from fractions import Fraction

    return Fraction


def rational(value: RationalLike) -> int | Fraction:
    """Coerce an int, a numeral, or a Fraction to an exact scalar.

    A numeral is the expression grammar's ``['-'] INT ['/' INT]``: no
    sign but a leading minus, no space, point, exponent or underscore.
    The result is an ``int`` whenever the value is integral, and a
    Fraction otherwise.  Any other string, or a zero denominator, is a
    :class:`~nijenhuis.words.UsageError` that names it.
    """
    if type(value) is int:
        return value
    if isinstance(value, str):
        num, slash, den = value.partition("/")
        n = -_integer(num[1:], value) if num[:1] == "-" else _integer(num, value)
        if not slash:
            return n
        d = _integer(den, value)
        if not d:
            raise UsageError(f"zero denominator in {value!r}")
        return _divide(n, d)
    if isinstance(value, _fraction()):
        return value.numerator if value.denominator == 1 else value
    if isinstance(value, int) and type(value) is not bool:
        return int(value)
    raise TypeError(f"not a rational value: {value!r}")


def _integer(digits: str, numeral: str) -> int:
    """The int that ``digits``, a run of decimal digits in ``numeral``, writes.

    Any digit the parser's ``\\d`` reads counts, and a run past the
    interpreter's digit limit is refused before it is converted.
    """
    if not digits.isdecimal():
        raise UsageError(f"not a numeral: {numeral!r}")
    # 0 for no limit; Python 3.10 before 3.10.7 has none.
    limit = getattr(sys, "get_int_max_str_digits", int)()
    if limit and len(digits) > limit:
        raise UsageError(f"a numeral of more than {limit} digits: {numeral[:20]!r}...")
    return int(digits)


@lru_cache(maxsize=1 << 12)
def _divide(n: int, d: int) -> int | Fraction:
    """The exact scalar ``n/d``, for ``d > 0``: an ``int`` when ``d`` divides ``n``.

    Memoized: a long session met about a thousand distinct quotients in
    over a hundred thousand divisions, and a Fraction is immutable, so
    one object serves every term with that value.
    """
    q, r = divmod(n, d)
    return _fraction()(n, d) if r else q


def _int_if_integral(q: int | Fraction) -> int | Fraction:
    """``q`` as an ``int`` when its value is integral."""
    return q if type(q) is int or q.denominator != 1 else q.numerator


def _numerators(terms: dict[str, int | Fraction]) -> tuple[dict[str, int], int]:
    """The integer numerators of ``terms`` over their least common denominator, and that denominator.

    All-integer terms come back as they are, over 1.
    """
    den = lcm(*{c.denominator for c in terms.values() if type(c) is not int})
    if den == 1:
        return terms, 1
    return {w: c * den if type(c) is int else c.numerator * (den // c.denominator) for w, c in terms.items()}, den


class LinComb:
    """An immutable rational linear combination of bracketed words.

    Zero-coefficient terms are dropped at construction, so two
    combinations are equal exactly when they have identical term dicts.
    Iteration and :meth:`items` follow the canonical word order.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Union[Mapping[str, RationalLike], Iterable[tuple[str, RationalLike]]] = ()):
        # The dict test first spares the common case the slow ABC check.
        pairs = terms.items() if isinstance(terms, dict) or isinstance(terms, Mapping) else terms
        self._terms = _add_into({}, 1, ((word, rational(coeff)) for word, coeff in pairs))

    @classmethod
    def from_word(cls, word: str, coeff: RationalLike = 1) -> "LinComb":
        return cls(((word, coeff),))

    def items(self) -> tuple[tuple[str, int | Fraction], ...]:
        """Terms as (word, coefficient) pairs in canonical order."""
        ordered = canonical_sort(self._terms)
        return tuple(zip(ordered, map(self._terms.__getitem__, ordered)))

    def coeff(self, word: str) -> int | Fraction:
        return self._terms.get(word, 0)

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __len__(self) -> int:
        return len(self._terms)

    def __iter__(self) -> Iterator[tuple[str, int | Fraction]]:
        return iter(self.items())

    def __add__(self, other: "LinComb") -> "LinComb":
        if not isinstance(other, LinComb):
            return NotImplemented
        if not self._terms:
            return other
        return _wrap(_add_into(dict(self._terms), 1, other._terms.items())) if other._terms else self

    def __sub__(self, other: "LinComb") -> "LinComb":
        if not isinstance(other, LinComb):
            return NotImplemented
        return _wrap(_add_into(dict(self._terms), -1, other._terms.items())) if other._terms else self

    def __neg__(self) -> "LinComb":
        return _wrap({w: -c for w, c in self._terms.items()})

    def scale(self, scalar: RationalLike) -> "LinComb":
        c = rational(scalar)
        if c == 1:
            return self
        return _wrap(_add_into({}, c, self._terms.items()) if c else {})

    def __rmul__(self, scalar: RationalLike) -> "LinComb":
        return self.scale(scalar)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LinComb):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        return hash(frozenset(self._terms.items()))

    def __str__(self) -> str:
        terms = self._terms
        if not terms:
            return "0"
        pieces: list[str] = []
        for word in canonical_sort(terms):
            # One rule for every coefficient: its str, with the sign set
            # apart and a magnitude of 1 unwritten.
            text = str(terms[word])
            sign, text = ("- ", text[1:]) if text[0] == "-" else ("+ ", text)
            pieces.append(sign + (word if text == "1" else f"{text}*{word}"))
        text = " ".join(pieces)
        return text[2:] if text[0] == "+" else "-" + text[2:]

    def __repr__(self) -> str:
        return f"LinComb({self})"


_new_object = object.__new__


def _wrap(data: dict[str, int | Fraction]) -> LinComb:
    """A combination that takes ownership of a dict of nonzero exact coefficients.

    The caller guarantees the dict is clean and never mutates it
    afterwards; nothing is copied or checked.
    """
    a = _new_object(LinComb)
    a._terms = data
    return a


def _add_into(target: dict, c: int | Fraction, terms: Iterable[tuple[Hashable, int | Fraction]]) -> dict:
    """``target += c·terms`` in place, for (key, scalar) pairs ``terms``; returns ``target``.

    A zero term adds nothing, an entry that cancels is dropped, and a sum is
    an ``int`` where integral.  With ``c`` 1 or -1 no term is multiplied.
    """
    unit = c == 1 or c == -1
    n, d = c.numerator, c.denominator
    get = target.get
    for k, x in terms:
        if not unit:
            x = x * n if d == 1 and type(x) is int else _divide(x.numerator * n, x.denominator * d)
        elif c == -1:
            x = -x
        acc = get(k)
        if acc is None:
            if x:
                target[k] = x
        elif acc := acc + x:
            target[k] = _int_if_integral(acc)
        else:
            del target[k]
    return target


class DimensionMismatch(UsageError):
    """Shapes do not line up for the requested operation."""


class ArityMismatch(DimensionMismatch):
    """A name list, tensor, matrix or vector is not a list, or has the wrong length."""


def _sized(values: Sequence, n: int | None, what: str) -> Sequence:
    """``values``, a list or a tuple, of length ``n`` unless that is None.

    A string is refused, since it would be read character by character.
    """
    if not isinstance(values, (list, tuple)):
        raise ArityMismatch(f"{what} must be a list, not {type(values).__name__}")
    if n is not None and len(values) != n:
        raise ArityMismatch(f"{what} must have length {n}, not {len(values)}")
    return values


class Vector(tuple):
    """Coordinates with the arithmetic of :class:`LinComb`, all of it coordinatewise.

    It equals, hashes and prints like the plain tuple of its coordinates.
    Building one coerces each coordinate once with :func:`rational`, so
    every Vector holds exact scalars; a Vector passes through as it is.
    """

    __slots__ = ()

    def __new__(cls, values: Iterable[RationalLike]) -> "Vector":
        if type(values) is Vector:
            return values
        return tuple.__new__(cls, map(rational, values))

    def __add__(self, other: "Vector") -> "Vector":
        if len(self) != len(other):
            raise DimensionMismatch(f"cannot add vectors of lengths {len(self)} and {len(other)}")
        return Vector(map(add, self, other))

    def __sub__(self, other: "Vector") -> "Vector":
        if len(self) != len(other):
            raise DimensionMismatch(f"cannot subtract vectors of lengths {len(self)} and {len(other)}")
        return Vector(map(sub, self, other))

    def __neg__(self) -> "Vector":
        return Vector(-a for a in self)

    def scale(self, scalar: RationalLike) -> "Vector":
        c = rational(scalar)
        return Vector(c * a for a in self)


def _unit(dim: int, i: int) -> Vector:
    """The ``i``-th standard basis vector of length ``dim``."""
    return Vector(1 if j == i else 0 for j in range(dim))


class RowSpace:
    """The span of sparse rows, kept in reduced echelon form.

    A row maps columns to nonzero exact scalars, ints where integral; the
    stored rows, remainders and kernels keep to that rule.  Each stored
    row is filed under its pivot, its largest column under ``key``, and
    has coefficient 1 there; no other stored row has an entry in a pivot
    column.  The stored rows are therefore the unique reduced basis of
    the span and do not depend on the order rows were added in.
    """

    def __init__(self, key: Callable[[Hashable], Any]) -> None:
        self.key = key
        self.rows: dict[Hashable, Row] = {}
        # For each column, at least the pivots of the stored rows with an
        # entry there; entries that cancel are not removed.
        self._users: dict[Hashable, set] = {}

    def reduce(self, row: Mapping[Hashable, int | Fraction]) -> Row:
        """The remainder of ``row`` after clearing every pivot column.

        Clearing one pivot touches no other pivot column, so one pass
        over the pivots present in ``row`` suffices.
        """
        out = dict(row)
        for pivot in [col for col in row if col in self.rows]:
            _add_into(out, -row[pivot], self.rows[pivot].items())
        return out

    def add(self, row: Mapping[Hashable, int | Fraction]) -> bool:
        """Extend the span by ``row``; False when it was already inside."""
        residue = self.reduce(row)
        if not residue:
            return False
        pivot = max(residue, key=self.key)
        lead = residue[pivot]
        if lead != 1:
            inv = _fraction()(1, lead)
            residue = {col: _int_if_integral(c * inv) for col, c in residue.items()}
        touched = [pivot]
        for user in self._users.pop(pivot, ()):
            stored = self.rows[user]
            c = stored.get(pivot)
            if c:
                _add_into(stored, -c, residue.items())
                touched.append(user)
        for col in residue:
            self._users.setdefault(col, set()).update(touched)
        self.rows[pivot] = residue
        return True

    def __contains__(self, row: Mapping[Hashable, int | Fraction]) -> bool:
        return not self.reduce(row)

    def __len__(self) -> int:
        return len(self.rows)

    def kernel(self, columns: Iterable[Hashable]) -> tuple[Vector, ...]:
        """Basis of the vectors over ``columns`` orthogonal to every row.

        One vector per free column, in the order given, with that entry
        1; ``columns`` must include every column the rows use.
        """
        columns = tuple(columns)
        basis = []
        for free in columns:
            if free in self.rows:
                continue
            vec = {free: 1}
            for pivot, stored in self.rows.items():
                vec[pivot] = -stored.get(free, 0)
            basis.append(Vector(vec.get(col, 0) for col in columns))
        return tuple(basis)


def span(rows: Iterable[Sequence[RationalLike]]) -> RowSpace:
    """Row space of dense rows, pivoted on the leftmost column.

    That pivot choice makes the reduced rows those of the classical
    reduced row echelon form.
    """
    space = RowSpace(key=lambda col: -col)
    for row in rows:
        space.add({col: x for col, x in enumerate(map(rational, row)) if x})
    return space
