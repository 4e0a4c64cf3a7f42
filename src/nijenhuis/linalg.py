"""Exact rational scalars, linear combinations of words, and matrices.

Scalars are :class:`fractions.Fraction` values, so every computation in
the package is exact: reduced form, positive denominators, and unbounded
integers come from the standard library.  On top of that this module
provides linear combinations of bracketed words with rational
coefficients, and enough dense matrix algebra (row reduction, nullspace,
span comparisons) to solve small linear systems exactly.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Iterator, Mapping, Sequence, Union

from .words import BracketedWord, canonical_key

__all__ = [
    "Rational",
    "RationalLike",
    "rational",
    "format_rational",
    "LinComb",
    "lc_add",
    "lc_scale",
    "DimensionMismatch",
    "RationalMatrix",
    "rref",
    "nullspace_basis",
    "in_span",
    "subspace_equal",
]

Rational = Fraction
RationalLike = Union[Fraction, int, str]


def rational(value: RationalLike) -> Fraction:
    """Coerce an int, a ``p/q`` string, or a Fraction to a Fraction."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, (int, str)):
        return Fraction(value)
    raise TypeError(f"not a rational value: {value!r}")


def format_rational(q: Fraction) -> str:
    """``p/q`` in lowest terms, or just ``p`` for integers."""
    return str(q)


class LinComb:
    """An immutable rational linear combination of bracketed words.

    Zero-coefficient terms are dropped at construction, so two
    combinations are equal exactly when they have identical term dicts.
    Iteration and :meth:`items` follow the canonical word order.
    """

    __slots__ = ("_terms", "_items", "_hash")

    def __init__(self, terms: Union[Mapping[BracketedWord, RationalLike], Iterable[tuple[BracketedWord, RationalLike]]] = ()):
        # The dict test first spares the common case the slow ABC check.
        if isinstance(terms, dict) or isinstance(terms, Mapping):
            pairs = terms.items()
        else:
            pairs = terms
        data: dict[BracketedWord, Fraction] = {}
        for word, coeff in pairs:
            c = rational(coeff)
            if c:
                acc = data.get(word)
                if acc is None:
                    data[word] = c
                else:
                    acc += c
                    if acc:
                        data[word] = acc
                    else:
                        del data[word]
        self._terms = data
        self._items: tuple[tuple[BracketedWord, Fraction], ...] | None = None
        self._hash: int | None = None

    @classmethod
    def _of(cls, data: dict[BracketedWord, Fraction]) -> "LinComb":
        """Wrap a dict of nonzero Fraction coefficients, taking ownership.

        The caller guarantees the dict is clean and never mutates it
        afterwards; nothing is copied or checked.
        """
        self = cls.__new__(cls)
        self._terms = data
        self._items = None
        self._hash = None
        return self

    @classmethod
    def zero(cls) -> "LinComb":
        return cls()

    @classmethod
    def from_word(cls, word: BracketedWord, coeff: RationalLike = 1) -> "LinComb":
        return cls(((word, coeff),))

    def items(self) -> tuple[tuple[BracketedWord, Fraction], ...]:
        """Terms as (word, coefficient) pairs in canonical order."""
        if self._items is None:
            ordered = sorted(self._terms.items(), key=lambda kv: canonical_key(kv[0]))
            self._items = tuple(ordered)
        return self._items

    def support(self) -> tuple[BracketedWord, ...]:
        return tuple(w for w, _ in self.items())

    def coeff(self, word: BracketedWord) -> Fraction:
        return self._terms.get(word, Fraction(0))

    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __len__(self) -> int:
        return len(self._terms)

    def __iter__(self) -> Iterator[tuple[BracketedWord, Fraction]]:
        return iter(self.items())

    def __add__(self, other: "LinComb") -> "LinComb":
        if not isinstance(other, LinComb):
            return NotImplemented
        if not self._terms:
            return other
        if not other._terms:
            return self
        data = dict(self._terms)
        for word, c in other._terms.items():
            acc = data.get(word)
            if acc is None:
                data[word] = c
            else:
                acc += c
                if acc:
                    data[word] = acc
                else:
                    del data[word]
        return LinComb._of(data)

    def __sub__(self, other: "LinComb") -> "LinComb":
        if not isinstance(other, LinComb):
            return NotImplemented
        return self + (-other)

    def __neg__(self) -> "LinComb":
        return LinComb._of({w: -c for w, c in self._terms.items()})

    def scale(self, scalar: RationalLike) -> "LinComb":
        c = rational(scalar)
        if not c:
            return LinComb()
        return LinComb._of({w: c * q for w, q in self._terms.items()})

    def __rmul__(self, scalar: RationalLike) -> "LinComb":
        return self.scale(scalar)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LinComb):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(frozenset(self._terms.items()))
        return self._hash

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        pieces: list[str] = []
        for word, c in self.items():
            magnitude = abs(c)
            body = str(word) if magnitude == 1 else f"{format_rational(magnitude)}*{word}"
            if not pieces:
                pieces.append(body if c > 0 else f"-{body}")
            else:
                pieces.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(pieces)

    def __repr__(self) -> str:
        return f"LinComb({self})"


def lc_add(a: LinComb, b: LinComb) -> LinComb:
    """Sum of two combinations."""
    return a + b


def lc_scale(scalar: RationalLike, a: LinComb) -> LinComb:
    """Scalar multiple of a combination."""
    return a.scale(scalar)


class DimensionMismatch(ValueError):
    """Shapes do not line up for the requested operation."""


class RationalMatrix:
    """A dense matrix of Fractions with rectangular shape."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, entries: Sequence[Sequence[RationalLike]], cols: int | None = None):
        converted = tuple(tuple(rational(x) for x in row) for row in entries)
        if converted:
            width = len(converted[0])
            if any(len(row) != width for row in converted):
                raise DimensionMismatch("ragged rows")
            if cols is not None and cols != width:
                raise DimensionMismatch(f"expected {cols} columns, got {width}")
        else:
            if cols is None:
                raise DimensionMismatch("empty matrix needs an explicit column count")
            width = cols
        self.entries = converted
        self.rows = len(converted)
        self.cols = width

    def __getitem__(self, index: tuple[int, int]) -> Fraction:
        r, c = index
        return self.entries[r][c]

    def row(self, r: int) -> tuple[Fraction, ...]:
        return self.entries[r]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RationalMatrix):
            return NotImplemented
        return self.cols == other.cols and self.entries == other.entries

    def __repr__(self) -> str:
        body = "; ".join(" ".join(str(x) for x in row) for row in self.entries)
        return f"RationalMatrix[{self.rows}x{self.cols}: {body}]"


def rref(matrix: RationalMatrix) -> tuple[RationalMatrix, tuple[int, ...]]:
    """Reduced row echelon form and the pivot column indices."""
    work = [list(row) for row in matrix.entries]
    nrows, ncols = matrix.rows, matrix.cols
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot_row = next((i for i in range(r, nrows) if work[i][c]), None)
        if pivot_row is None:
            continue
        work[r], work[pivot_row] = work[pivot_row], work[r]
        inv = 1 / work[r][c]
        work[r] = [x * inv for x in work[r]]
        for i in range(nrows):
            if i != r and work[i][c]:
                factor = work[i][c]
                work[i] = [x - factor * y for x, y in zip(work[i], work[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return RationalMatrix(work, cols=ncols), tuple(pivots)


def rank(matrix: RationalMatrix) -> int:
    """Number of pivots in the reduced form."""
    return len(rref(matrix)[1])


def nullspace_basis(matrix: RationalMatrix) -> tuple[tuple[Fraction, ...], ...]:
    """A basis of the right nullspace.

    One vector per free column, taken in increasing column order, with
    the free variable set to 1.  The result is deterministic.
    """
    reduced, pivots = rref(matrix)
    pivot_set = set(pivots)
    free_cols = [c for c in range(matrix.cols) if c not in pivot_set]
    basis: list[tuple[Fraction, ...]] = []
    for free in free_cols:
        vec = [Fraction(0)] * matrix.cols
        vec[free] = Fraction(1)
        for r, pc in enumerate(pivots):
            vec[pc] = -reduced[r, free]
        basis.append(tuple(vec))
    return tuple(basis)


def _stack(vectors: Sequence[Sequence[Fraction]], cols: int) -> RationalMatrix:
    return RationalMatrix(list(vectors), cols=cols)


def in_span(vector: Sequence[RationalLike], vectors: Sequence[Sequence[RationalLike]]) -> bool:
    """Whether ``vector`` lies in the span of ``vectors``."""
    vec = tuple(rational(x) for x in vector)
    rows = [tuple(rational(x) for x in row) for row in vectors]
    width = len(vec)
    if any(len(row) != width for row in rows):
        raise DimensionMismatch("span vectors have mismatched length")
    base = rank(_stack(rows, width)) if rows else 0
    extended = rank(_stack(rows + [vec], width))
    return extended == base


def subspace_equal(
    first: Sequence[Sequence[RationalLike]], second: Sequence[Sequence[RationalLike]], cols: int
) -> bool:
    """Whether two spanning sets generate the same subspace."""
    a = [tuple(rational(x) for x in row) for row in first]
    b = [tuple(rational(x) for x in row) for row in second]
    for row in a + b:
        if len(row) != cols:
            raise DimensionMismatch("vector length differs from the ambient dimension")
    rank_a = rank(_stack(a, cols)) if a else 0
    rank_b = rank(_stack(b, cols)) if b else 0
    rank_ab = rank(_stack(a + b, cols)) if a + b else 0
    return rank_a == rank_b == rank_ab
