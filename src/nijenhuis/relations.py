"""Quadratic relations among the three splitting operations.

A relation candidate is a :class:`~nijenhuis.linalg.Vector` of 18 exact
coefficients, read as two 3x3 grids, ``left`` and ``right``.  With the
operations ordered (prec, succ, bullet), the candidate asserts

    sum_ij left[i][j]  * ((x op_i y) op_j z)
  = sum_ij right[i][j] * (x op_i (y op_j z))

for all x, y, z.  Left coordinates are indexed (inner, outer) and right
coordinates (outer, inner), matching how the monomials are written.
:func:`relation_sides` evaluates the two sums, in the free algebra or,
given its operations, in any other.

Because the algebra here is free, a candidate holds in every algebra
with a compatible operator exactly when it vanishes on three distinct
generators.  Expanding all 18 parenthesized monomials over generators
x, y, z produces combinations supported on 13 basis words; the
coefficient matrix of that expansion has full row rank, and its
nullspace is the five-dimensional space of universally valid relations.
Two distinguished spanning sets are built in: a four-relation family in
which several monomials are tied together through the sum operation, and
a five-relation family that spans the whole nullspace.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable, Sequence

from .algebra import COORD_OPS, OpSymbol, derived_op
from .linalg import LinComb, RationalLike, Vector, _unit, format_rational, rational, span, vector
from .words import BracketedWord, canonical_sort, letter_word

__all__ = [
    "RelVector",
    "ns_relation_set",
    "ndendriform_relation_set",
    "relation_sides",
    "evaluate_relation",
    "relation_monomials",
    "relation_matrix",
    "solve_relation_space",
    "check_relation_universal",
    "relation_space_contains",
    "relation_sets_span_equal",
]

Grid = tuple[tuple[int | Fraction, ...], ...]

_OP_INDEX = {op: k for k, op in enumerate(COORD_OPS)}


@dataclass(frozen=True)
class RelVector:
    """A relation candidate: 18 exact coefficients, the left grid row-major, then the right grid."""

    coords: Vector

    def __post_init__(self) -> None:
        coords = vector(self.coords)
        if len(coords) != 18:
            raise ValueError(f"expected 18 coordinates, got {len(coords)}")
        object.__setattr__(self, "coords", coords)

    @property
    def left(self) -> Grid:
        c = self.coords
        return (c[0:3], c[3:6], c[6:9])

    @property
    def right(self) -> Grid:
        c = self.coords
        return (c[9:12], c[12:15], c[15:18])

    @classmethod
    def zero(cls) -> "RelVector":
        return cls(Vector((0,) * 18))

    @classmethod
    def unit_left(cls, i: int, j: int) -> "RelVector":
        return cls(_unit(18, 3 * i + j))

    @classmethod
    def unit_right(cls, i: int, j: int) -> "RelVector":
        return cls(_unit(18, 9 + 3 * i + j))

    @classmethod
    def from_coords(cls, coords: Sequence[RationalLike]) -> "RelVector":
        return cls(coords)

    def to_coords(self) -> Vector:
        """Flatten: left grid row-major, then right grid row-major."""
        return self.coords

    def __add__(self, other: "RelVector") -> "RelVector":
        if not isinstance(other, RelVector):
            return NotImplemented
        return RelVector(self.coords + other.coords)

    def scale(self, scalar: RationalLike) -> "RelVector":
        return RelVector(self.coords.scale(scalar))

    def __rmul__(self, scalar: RationalLike) -> "RelVector":
        return self.scale(scalar)

    def to_json_obj(self) -> dict:
        return {
            "left": [[format_rational(x) for x in row] for row in self.left],
            "right": [[format_rational(x) for x in row] for row in self.right],
        }

    @classmethod
    def from_json_obj(cls, obj: dict) -> "RelVector":
        coords: list[int | Fraction] = []
        for grid in (obj["left"], obj["right"]):
            rows = [[rational(x) for x in row] for row in grid]
            if len(rows) != 3 or any(len(row) != 3 for row in rows):
                raise ValueError("a relation grid must be 3x3")
            coords += rows[0] + rows[1] + rows[2]
        return cls(Vector(coords))


def _rel(
    left_terms: Sequence[tuple[OpSymbol, OpSymbol]],
    right_terms: Sequence[tuple[OpSymbol, OpSymbol]],
) -> RelVector:
    """Relation with unit coefficients; a STAR entry expands to all three ops."""
    coords = [0] * 18
    for offset, terms in ((0, left_terms), (9, right_terms)):
        for a, b in terms:
            for ai in _expand(a):
                for bi in _expand(b):
                    coords[offset + 3 * ai + bi] += 1
    return RelVector(Vector(coords))


def _expand(op: OpSymbol) -> tuple[int, ...]:
    if op is OpSymbol.STAR:
        return (0, 1, 2)
    return (_OP_INDEX[op],)


_P, _S, _B = OpSymbol.PREC, OpSymbol.SUCC, OpSymbol.BULLET
_STAR = OpSymbol.STAR


def ns_relation_set() -> tuple[RelVector, ...]:
    """The four-relation family, with the sum operation expanded."""
    return (
        _rel([(_P, _P)], [(_P, _STAR)]),
        _rel([(_S, _P)], [(_S, _P)]),
        _rel([(_STAR, _S)], [(_S, _S)]),
        _rel([(_STAR, _B), (_B, _P)], [(_S, _B), (_B, _STAR)]),
    )


def ndendriform_relation_set() -> tuple[RelVector, ...]:
    """The five-relation family spanning the full relation space."""
    return (
        _rel([(_P, _P)], [(_P, _STAR)]),
        _rel([(_S, _P)], [(_S, _P)]),
        _rel([(_STAR, _S)], [(_S, _S)]),
        _rel([(_P, _B)], [(_B, _S)]),
        _rel([(_S, _B), (_B, _P), (_B, _B)], [(_S, _B), (_B, _P), (_B, _B)]),
    )


def relation_sides(
    rel: RelVector, x: Any, y: Any, z: Any, op: Callable[[OpSymbol, Any, Any], Any] | None = None
) -> tuple[Any, Any]:
    """Left and right side of the candidate, evaluated at x, y, z.

    ``op`` applies a splitting operation; it defaults to
    :func:`derived_op` on the free algebra.  Both sums start at
    ``x.scale(0)``, the zero of whatever algebra x lies in.
    """
    op = op or derived_op
    left, right = rel.left, rel.right
    lhs = rhs = x.scale(0)
    for i, op_i in enumerate(COORD_OPS):
        for j, op_j in enumerate(COORD_OPS):
            c = left[i][j]
            if c:
                lhs = lhs + op(op_j, op(op_i, x, y), z).scale(c)
            c = right[i][j]
            if c:
                rhs = rhs + op(op_i, x, op(op_j, y, z)).scale(c)
    return lhs, rhs


def evaluate_relation(rel: RelVector, x: LinComb, y: LinComb, z: LinComb) -> LinComb:
    """Left side minus right side of the candidate, evaluated at x, y, z."""
    lhs, rhs = relation_sides(rel, x, y, z)
    return lhs - rhs


def _generator_triple() -> tuple[LinComb, LinComb, LinComb]:
    return (
        LinComb.from_word(letter_word("x")),
        LinComb.from_word(letter_word("y")),
        LinComb.from_word(letter_word("z")),
    )


def _unit_evaluations() -> tuple[tuple[LinComb, ...], tuple[BracketedWord, ...]]:
    x, y, z = _generator_triple()
    evals = tuple(evaluate_relation(RelVector(_unit(18, k)), x, y, z) for k in range(18))
    seen: set[BracketedWord] = set()
    for value in evals:
        seen.update(value.support())
    rows = tuple(canonical_sort(seen))
    return evals, rows


def relation_monomials() -> tuple[BracketedWord, ...]:
    """Basis words supporting the 18 expanded monomials, in canonical order."""
    return _unit_evaluations()[1]


def relation_matrix() -> tuple[Vector, ...]:
    """Coefficient rows of the 18 unit candidates over three generators.

    One row of length 18 per word of :func:`relation_monomials`, in that
    order; columns follow the coordinate flattening of
    :meth:`RelVector.to_coords`.  Everything is computed by symbolic
    expansion, nothing is tabulated by hand.
    """
    evals, rows = _unit_evaluations()
    return tuple(Vector(value.coeff(w) for value in evals) for w in rows)


def solve_relation_space() -> tuple[RelVector, ...]:
    """Basis of all universally valid candidates, from the nullspace.

    One vector per free coordinate, in increasing order, with that
    coordinate set to 1.
    """
    return tuple(map(RelVector, span(relation_matrix()).kernel(range(18))))


def check_relation_universal(rel: RelVector) -> bool:
    """Whether the candidate holds identically in every such algebra.

    Freeness makes the generator evaluation decisive.
    """
    x, y, z = _generator_triple()
    return evaluate_relation(rel, x, y, z).is_zero()


def relation_space_contains(rel: RelVector) -> bool:
    """Span membership test against the solved basis."""
    basis = solve_relation_space()
    return relation_sets_span_equal(basis, (*basis, rel))


def relation_sets_span_equal(
    first: Sequence[RelVector], second: Sequence[RelVector]
) -> bool:
    """Whether two families of candidates span the same subspace.

    Reduced rows are unique to the span, so comparing them decides it.
    """
    return (
        span(v.to_coords() for v in first).rows
        == span(v.to_coords() for v in second).rows
    )
