"""Quadratic relations among the three splitting operations.

A relation candidate is a plain :class:`~nijenhuis.linalg.Vector` of 18
exact coordinates, laid out as two 3x3 grids: the ``left`` grid row-major
in coordinates 0-8, then the ``right`` grid in 9-17, so that
``left[i][j]`` is coordinate ``3 * i + j`` and ``right[i][j]`` is
``9 + 3 * i + j``.  With the operations ordered (prec, succ, bullet),
the candidate asserts

    sum_ij left[i][j]  * ((x op_i y) op_j z)
  = sum_ij right[i][j] * (x op_i (y op_j z))

for all x, y, z.  Left coordinates are indexed (inner, outer) and right
coordinates (outer, inner), matching how the monomials are written.
Only :mod:`nijenhuis.cli` reads the grids, to print them as JSON.
:func:`monomials_at` evaluates the 18 monomials at x, y, z once, in the
free algebra or, given its operations, in any other, and
:func:`relation_sides` reads the two sums of a candidate off them.
:func:`check_relations` is the one relation sweep: over the monomials
of one or many triples, it reports the first candidate whose sides
differ, as ``ns-check``, ``ndend-check`` and ``fd-check`` print it.

Because the algebra here is free, a candidate holds in every algebra
with a compatible operator exactly when it vanishes on three distinct
generators.  Expanding all 18 parenthesized monomials over generators
x, y, z produces combinations supported on 13 basis words; the
coefficient matrix of that expansion has full row rank, and its
nullspace is the five-dimensional space of universally valid relations.
Two distinguished spanning sets are built in: a four-relation family in
which several monomials are tied together through the sum operation, and
a five-relation family that spans the whole nullspace.  The solved
relation space is constant, so it is computed once per process and
shared by every caller.
"""

from __future__ import annotations

from functools import cache
from typing import Any, Callable, Sequence

from .algebra import COORD_OPS, CheckReport, OpSymbol, derived_op
from .linalg import LinComb, Vector, span
from .words import canonical_sort, letter_word

__all__ = [
    "ns_relation_set",
    "ndendriform_relation_set",
    "monomials_at",
    "relation_sides",
    "check_relations",
    "relation_monomials",
    "relation_matrix",
    "solve_relation_space",
    "relation_sets_span_equal",
]

_OP_INDEX = {op: k for k, op in enumerate(COORD_OPS)}


def _rel(
    left_terms: Sequence[tuple[OpSymbol, OpSymbol]],
    right_terms: Sequence[tuple[OpSymbol, OpSymbol]],
) -> Vector:
    """Relation with unit coefficients; a STAR entry expands to all three ops."""
    coords = [0] * 18
    for offset, terms in ((0, left_terms), (9, right_terms)):
        for a, b in terms:
            for ai in _expand(a):
                for bi in _expand(b):
                    coords[offset + 3 * ai + bi] += 1
    return Vector(coords)


def _expand(op: OpSymbol) -> tuple[int, ...]:
    if op is OpSymbol.STAR:
        return (0, 1, 2)
    return (_OP_INDEX[op],)


_P, _S, _B = OpSymbol.PREC, OpSymbol.SUCC, OpSymbol.BULLET
_STAR = OpSymbol.STAR


def ns_relation_set() -> tuple[Vector, ...]:
    """The four-relation family, with the sum operation expanded."""
    return (
        _rel([(_P, _P)], [(_P, _STAR)]),
        _rel([(_S, _P)], [(_S, _P)]),
        _rel([(_STAR, _S)], [(_S, _S)]),
        _rel([(_STAR, _B), (_B, _P)], [(_S, _B), (_B, _STAR)]),
    )


def ndendriform_relation_set() -> tuple[Vector, ...]:
    """The five-relation family spanning the full relation space."""
    return (
        _rel([(_P, _P)], [(_P, _STAR)]),
        _rel([(_S, _P)], [(_S, _P)]),
        _rel([(_STAR, _S)], [(_S, _S)]),
        _rel([(_P, _B)], [(_B, _S)]),
        _rel([(_S, _B), (_B, _P), (_B, _B)], [(_S, _B), (_B, _P), (_B, _B)]),
    )


def monomials_at(
    x: Any, y: Any, z: Any, op: Callable[[OpSymbol, Any, Any], Any] | None = None
) -> tuple[Any, ...]:
    """The 18 monomials at x, y, z, in the coordinate order of the module docstring.

    ``op`` applies a splitting operation; it defaults to
    :func:`derived_op` on the free algebra.  The inner products
    ``x op_i y`` and ``y op_j z`` are computed once each.
    """
    op = op or derived_op
    xy = [op(o, x, y) for o in COORD_OPS]
    yz = [op(o, y, z) for o in COORD_OPS]
    return (
        *(op(op_j, u, z) for u in xy for op_j in COORD_OPS),
        *(op(op_i, x, v) for op_i in COORD_OPS for v in yz),
    )


def relation_sides(rel: Vector, monomials: Sequence[Any]) -> tuple[Any, Any]:
    """Left and right side of the candidate, summed from the values of :func:`monomials_at`."""
    zero = monomials[0].scale(0)
    return tuple(
        sum((monomials[k].scale(rel[k]) for k in side if rel[k]), zero) for side in (range(9), range(9, 18))
    )


def check_relations(
    rels: Sequence[Vector], values: Sequence[tuple[tuple[int, ...], Sequence[Any]]]
) -> CheckReport:
    """Sweep the candidates over ``(indices, monomials)`` pairs, relation by relation.

    ``monomials`` holds the values of :func:`monomials_at` at one triple,
    which ``indices`` names.  The first candidate whose sides differ at
    some triple fails, at ``(relation number, *indices)``.
    """
    for r, rel in enumerate(rels):
        for indices, monomials in values:
            lhs, rhs = relation_sides(rel, monomials)
            if lhs != rhs:
                return CheckReport(False, "relation", (r, *indices), lhs, rhs)
    return CheckReport(True)


def _unit_evaluations() -> tuple[tuple[LinComb, ...], tuple[str, ...]]:
    # The unit candidate k reads monomial k, on the right side negated.
    m = monomials_at(*(LinComb.from_word(letter_word(name)) for name in "xyz"))
    evals = (*m[:9], *(-v for v in m[9:]))
    seen: set[str] = set()
    for value in evals:
        seen.update(value._terms)
    rows = tuple(canonical_sort(seen))
    return evals, rows


def relation_monomials() -> tuple[str, ...]:
    """Basis words supporting the 18 expanded monomials, in canonical order."""
    return _unit_evaluations()[1]


def relation_matrix() -> tuple[Vector, ...]:
    """Coefficient rows of the 18 unit candidates over three generators.

    One row of length 18 per word of :func:`relation_monomials`, in that
    order; columns follow the coordinate layout of the module
    docstring.  Everything is computed by symbolic expansion, nothing is
    tabulated by hand.
    """
    evals, rows = _unit_evaluations()
    return tuple(Vector(value.coeff(w) for value in evals) for w in rows)


@cache
def solve_relation_space() -> tuple[Vector, ...]:
    """Basis of all universally valid candidates, from the nullspace.

    One vector per free coordinate, in increasing order, with that
    coordinate set to 1.
    """
    return span(relation_matrix()).kernel(range(18))


def relation_sets_span_equal(
    first: Sequence[Vector], second: Sequence[Vector]
) -> bool:
    """Whether two families of candidates span the same subspace.

    Reduced rows are unique to the span, so comparing them decides it.
    """
    return span(first).rows == span(second).rows
