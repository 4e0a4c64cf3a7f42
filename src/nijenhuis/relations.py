"""Quadratic relations among the three splitting operations.

A relation candidate pairs two 3x3 rational grids.  With the operations
ordered (prec, succ, bullet), the candidate asserts

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
from .linalg import LinComb, RationalLike, Vector, format_rational, rational, span
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

Grid = tuple[tuple[Fraction, Fraction, Fraction], ...]

_OP_INDEX = {op: k for k, op in enumerate(COORD_OPS)}


def _grid(rows: Sequence[Sequence[RationalLike]]) -> Grid:
    out = tuple(tuple(rational(x) for x in row) for row in rows)
    if len(out) != 3 or any(len(row) != 3 for row in out):
        raise ValueError("a relation grid must be 3x3")
    return out


_ZERO_GRID: Grid = _grid([[0, 0, 0], [0, 0, 0], [0, 0, 0]])


@dataclass(frozen=True)
class RelVector:
    """A relation candidate: two 3x3 grids of rational coefficients."""

    left: Grid
    right: Grid

    def __post_init__(self) -> None:
        object.__setattr__(self, "left", _grid(self.left))
        object.__setattr__(self, "right", _grid(self.right))

    @classmethod
    def zero(cls) -> "RelVector":
        return cls(_ZERO_GRID, _ZERO_GRID)

    @classmethod
    def unit_left(cls, i: int, j: int) -> "RelVector":
        rows = [[1 if (a, b) == (i, j) else 0 for b in range(3)] for a in range(3)]
        return cls(_grid(rows), _ZERO_GRID)

    @classmethod
    def unit_right(cls, i: int, j: int) -> "RelVector":
        rows = [[1 if (a, b) == (i, j) else 0 for b in range(3)] for a in range(3)]
        return cls(_ZERO_GRID, _grid(rows))

    @classmethod
    def from_coords(cls, coords: Sequence[RationalLike]) -> "RelVector":
        vals = [rational(x) for x in coords]
        if len(vals) != 18:
            raise ValueError(f"expected 18 coordinates, got {len(vals)}")
        left = [vals[0:3], vals[3:6], vals[6:9]]
        right = [vals[9:12], vals[12:15], vals[15:18]]
        return cls(_grid(left), _grid(right))

    def to_coords(self) -> Vector:
        """Flatten: left grid row-major, then right grid row-major."""
        return Vector(x for grid in (self.left, self.right) for row in grid for x in row)

    def __add__(self, other: "RelVector") -> "RelVector":
        if not isinstance(other, RelVector):
            return NotImplemented
        return RelVector.from_coords(self.to_coords() + other.to_coords())

    def scale(self, scalar: RationalLike) -> "RelVector":
        return RelVector.from_coords(self.to_coords().scale(scalar))

    def __rmul__(self, scalar: RationalLike) -> "RelVector":
        return self.scale(scalar)

    def to_json_obj(self) -> dict:
        return {
            "left": [[format_rational(x) for x in row] for row in self.left],
            "right": [[format_rational(x) for x in row] for row in self.right],
        }

    @classmethod
    def from_json_obj(cls, obj: dict) -> "RelVector":
        return cls(_grid(obj["left"]), _grid(obj["right"]))


def _rel(
    left_terms: Sequence[tuple[OpSymbol, OpSymbol]],
    right_terms: Sequence[tuple[OpSymbol, OpSymbol]],
) -> RelVector:
    """Relation with unit coefficients; a STAR entry expands to all three ops."""
    left = [[Fraction(0)] * 3 for _ in range(3)]
    right = [[Fraction(0)] * 3 for _ in range(3)]
    for grid, terms in ((left, left_terms), (right, right_terms)):
        for a, b in terms:
            for ai in _expand(a):
                for bi in _expand(b):
                    grid[ai][bi] += 1
    return RelVector(_grid(left), _grid(right))


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
    lhs = rhs = x.scale(0)
    for i, op_i in enumerate(COORD_OPS):
        for j, op_j in enumerate(COORD_OPS):
            c = rel.left[i][j]
            if c:
                lhs = lhs + op(op_j, op(op_i, x, y), z).scale(c)
            c = rel.right[i][j]
            if c:
                rhs = rhs + op(op_i, x, op(op_j, y, z)).scale(c)
    return lhs, rhs


def evaluate_relation(rel: RelVector, x: LinComb, y: LinComb, z: LinComb) -> LinComb:
    """Left side minus right side of the candidate, evaluated at x, y, z."""
    lhs, rhs = relation_sides(rel, x, y, z)
    return lhs - rhs


def _unit_vectors() -> tuple[RelVector, ...]:
    units = [RelVector.unit_left(i, j) for i in range(3) for j in range(3)]
    units += [RelVector.unit_right(i, j) for i in range(3) for j in range(3)]
    return tuple(units)


def _generator_triple() -> tuple[LinComb, LinComb, LinComb]:
    return (
        LinComb.from_word(letter_word("x")),
        LinComb.from_word(letter_word("y")),
        LinComb.from_word(letter_word("z")),
    )


def _unit_evaluations() -> tuple[tuple[LinComb, ...], tuple[BracketedWord, ...]]:
    x, y, z = _generator_triple()
    evals = tuple(evaluate_relation(u, x, y, z) for u in _unit_vectors())
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
    kernel = span(relation_matrix()).kernel(range(18))
    return tuple(RelVector.from_coords(v) for v in kernel)


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
