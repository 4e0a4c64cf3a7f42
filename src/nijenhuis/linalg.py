"""Exact rational scalars, linear combinations, coordinate vectors and row spaces.

One rule holds for every scalar here: it is exact, an ``int`` when the
value is integral and otherwise a :class:`fractions.Fraction` (reduced
form, positive denominator), never a float.  The two mix freely, compare
and hash alike, and print alike, so integral work such as the free
product's structure constants runs on plain integers.  :class:`LinComb`
coefficients, :class:`Vector` coordinates and :class:`RowSpace` rows,
remainders and kernels all follow it, whatever arithmetic produced
them, so ``type(c) is int`` tells the integral ones apart.
:class:`LinComb` holds its dict of terms and nothing else: its
canonical order and its hash are computed on each call, not kept.  A
value from outside is coerced once, where it enters: by
:func:`rational` for a scalar, and by the :class:`Vector` constructor
for coordinates, which passes a Vector through.  Where many rational
terms meet, as in the product of two combinations, the work runs on
integer numerators over a common denominator (:func:`_numerators`),
with one division per result term (:func:`_divide`, memoized in a
bounded cache, so equal quotients share one Fraction); printing writes
an ``int`` as it is and a Fraction through its own ``str``.  A result
is built around its finished dict by :func:`_wrap`, with nothing copied
or checked.  :class:`Vector` is the one
dense coordinate vector, and :class:`RowSpace` the one sparse
elimination engine: it spans rows, tests membership, and gives kernels,
for the relation solver and the ideal closure alike.  :func:`span` is
the one way from dense rows to a :class:`RowSpace`.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import lcm
from operator import add, sub
from typing import Any, Callable, Hashable, Iterable, Iterator, Mapping, Sequence, Union

from .words import canonical_sort

__all__ = [
    "RationalLike",
    "rational",
    "LinComb",
    "Vector",
    "DimensionMismatch",
    "RowSpace",
    "span",
    "rank",
]

RationalLike = Union[Fraction, int, str]


def rational(value: RationalLike) -> int | Fraction:
    """Coerce an int, a ``p/q`` string, or a Fraction to an exact scalar.

    The result is an ``int`` whenever the value is integral, also for an
    integral Fraction or string, and a Fraction otherwise.  A string with
    a zero denominator is a ValueError, like any other malformed string.
    """
    if type(value) is int:
        return value
    if type(value) is str:
        # A plain decimal integer, the commonest entry of an input file,
        # skips the Fraction parser.
        digits = value[1:] if value[:1] == "-" else value
        if digits.isdigit() and digits.isascii():
            return int(value)
    if isinstance(value, (int, str)) and type(value) is not bool:
        try:
            value = Fraction(value)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {value!r}") from None
    elif not isinstance(value, Fraction):
        raise TypeError(f"not a rational value: {value!r}")
    return value.numerator if value.denominator == 1 else value


@lru_cache(maxsize=1 << 12)
def _divide(n: int, d: int) -> int | Fraction:
    """The exact scalar ``n/d``, for ``d > 0``: an ``int`` when ``d`` divides ``n``.

    Memoized: a long session met about a thousand distinct quotients in
    over a hundred thousand divisions, and a Fraction is immutable, so
    one object serves every term with that value.
    """
    q, r = divmod(n, d)
    return Fraction(n, d) if r else q


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
        if isinstance(terms, dict) or isinstance(terms, Mapping):
            pairs = terms.items()
        else:
            pairs = terms
        data: dict[str, int | Fraction] = {}
        for word, coeff in pairs:
            c = rational(coeff)
            if c:
                acc = data.get(word)
                if acc is None:
                    data[word] = c
                else:
                    acc += c
                    if acc:
                        data[word] = _int_if_integral(acc)
                    else:
                        del data[word]
        self._terms = data

    @classmethod
    def from_word(cls, word: str, coeff: RationalLike = 1) -> "LinComb":
        return cls(((word, coeff),))

    def items(self) -> tuple[tuple[str, int | Fraction], ...]:
        """Terms as (word, coefficient) pairs in canonical order."""
        ordered = canonical_sort(self._terms)
        return tuple(zip(ordered, map(self._terms.__getitem__, ordered)))

    def support(self) -> tuple[str, ...]:
        return tuple(canonical_sort(self._terms))

    def coeff(self, word: str) -> int | Fraction:
        return self._terms.get(word, 0)

    def is_zero(self) -> bool:
        return not self._terms

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
        return self._add_signed(other, False)

    def __sub__(self, other: "LinComb") -> "LinComb":
        if not isinstance(other, LinComb):
            return NotImplemented
        return self._add_signed(other, True)

    def _add_signed(self, other: "LinComb", negate: bool) -> "LinComb":
        """``self + other``, or ``self - other``, in one pass over a copy of ``self``."""
        if not other._terms:
            return self
        data = dict(self._terms)
        for word, c in other._terms.items():
            if negate:
                c = -c
            acc = data.get(word)
            if acc is None:
                data[word] = c
            else:
                acc += c
                if acc:
                    data[word] = _int_if_integral(acc)
                else:
                    del data[word]
        return _wrap(data)

    def __neg__(self) -> "LinComb":
        return _wrap({w: -c for w, c in self._terms.items()})

    def scale(self, scalar: RationalLike) -> "LinComb":
        c = rational(scalar)
        if not c:
            return LinComb()
        if c == 1:
            return self
        n, d = c.numerator, c.denominator
        return _wrap(
            {
                w: q * n if d == 1 and type(q) is int else _divide(q.numerator * n, q.denominator * d)
                for w, q in self._terms.items()
            }
        )

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
            c = terms[word]
            if type(c) is int:
                if c == 1:
                    pieces.append("+ " + word)
                elif c == -1:
                    pieces.append("- " + word)
                elif c > 0:
                    pieces.append(f"+ {c}*{word}")
                else:
                    pieces.append(f"- {-c}*{word}")
            else:
                # A Fraction prints as "n/d", its sign on the numerator.
                text = str(c)
                if text[0] == "-":
                    pieces.append(f"- {text[1:]}*{word}")
                else:
                    pieces.append(f"+ {text}*{word}")
        first = pieces[0]
        pieces[0] = first[2:] if first[0] == "+" else "-" + first[2:]
        return " ".join(pieces)

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
        return Vector(map(add, self, other))

    def __sub__(self, other: "Vector") -> "Vector":
        return Vector(map(sub, self, other))

    def __neg__(self) -> "Vector":
        return Vector(-a for a in self)

    def scale(self, scalar: RationalLike) -> "Vector":
        c = rational(scalar)
        return Vector(c * a for a in self)


def _unit(dim: int, i: int) -> Vector:
    """The ``i``-th standard basis vector of length ``dim``."""
    return Vector(1 if j == i else 0 for j in range(dim))


class DimensionMismatch(ValueError):
    """Shapes do not line up for the requested operation."""


Row = dict[Hashable, int | Fraction]


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
            _subtract(out, row[pivot], self.rows[pivot])
        return out

    def add(self, row: Mapping[Hashable, int | Fraction]) -> bool:
        """Extend the span by ``row``; False when it was already inside."""
        residue = self.reduce(row)
        if not residue:
            return False
        pivot = max(residue, key=self.key)
        lead = residue[pivot]
        if lead != 1:
            inv = Fraction(1, lead)
            residue = {col: _int_if_integral(c * inv) for col, c in residue.items()}
        touched = [pivot]
        for user in self._users.pop(pivot, ()):
            stored = self.rows[user]
            c = stored.get(pivot)
            if c:
                _subtract(stored, c, residue)
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


def _subtract(target: Row, c: int | Fraction, row: Row) -> None:
    """``target -= c * row`` in place, dropping entries that cancel."""
    for col, x in row.items():
        acc = target.get(col, 0) - c * x
        if acc:
            target[col] = _int_if_integral(acc)
        else:
            del target[col]


def span(rows: Iterable[Sequence[RationalLike]]) -> RowSpace:
    """Row space of dense rows, pivoted on the leftmost column.

    That pivot choice makes the reduced rows those of the classical
    reduced row echelon form.
    """
    space = RowSpace(key=lambda col: -col)
    for row in rows:
        space.add({col: x for col, x in enumerate(map(rational, row)) if x})
    return space


def rank(rows: Iterable[Sequence[RationalLike]]) -> int:
    """Dimension of the span of dense rows."""
    return len(span(rows))
