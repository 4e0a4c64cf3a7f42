"""Finite-dimensional algebras, induced operations, and enveloping tools.

A finite-dimensional algebra is given by structure constants over the
rationals, together with a square matrix for its distinguished operator.
Its elements are coordinate :class:`Vector` s with the arithmetic of
:class:`LinComb`, so the identity sweeps, the splitting operations and
the relation sides written for the free algebra run on them, given the
algebra's product and operator.  The products, operator images and
evaluations returned here hold an ``int`` wherever a coordinate is
integral and a Fraction only otherwise, as :class:`LinComb` does.
Input is coerced once, where it enters through ``mul``, ``apply_op``,
:meth:`LinearMap.apply` or a loader; the Vectors this module builds
pass through.  Each structure tensor and matrix keeps its nonzero
entries, and products sum over those alone.  This module checks the
operator identity and associativity by sweep, splits such an algebra
into its three induced bilinear operations, and studies the result
through the free algebra: every finite-dimensional instance with the
three operations embeds, up to a quotient, into the free algebra on one
generator per basis vector.  The kernel of that comparison is generated
by an explicit finite family, one relation per basis pair and operation;
a truncated closure computes a certified lower bound of the kernel,
giving a semidecision procedure for membership.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from itertools import product as _cartesian
from typing import Sequence

from .algebra import (
    COORD_OPS,
    CheckReport,
    OpSymbol,
    derived_op,
    first_nonassociative_triple,
    first_operator_identity_failure,
    operator_n,
    product,
)
from .linalg import (
    DimensionMismatch,
    LinComb,
    RationalLike,
    RowSpace,
    Vector,
    _unit,
    _wrap,
    rational,
)
from .relations import RelVector, ndendriform_relation_set, ns_relation_set, relation_sides
from .words import (
    UsageError,
    canonical_key,
    generators,
    iter_symbols,
    letter_word,
    size,
    words_of_size,
)

__all__ = [
    "InvalidInput",
    "ArityMismatch",
    "UnknownGenerator",
    "BoundTooSmall",
    "Vector",
    "NijenhuisAlgebraFD",
    "NSAlgebraFD",
    "LinearMap",
    "check_nijenhuis_fd",
    "check_relations_fd",
    "check_ns_axioms",
    "check_ndendriform_axioms",
    "induced_ns",
    "default_names",
    "enveloping_generators",
    "evaluate_hom",
    "check_morphism_kills_generators",
    "Membership",
    "truncated_ideal_membership",
    "fixture_projection",
    "fixture_scaling",
    "fixture_swap",
]


class InvalidInput(ValueError):
    """A precondition on supplied data does not hold.

    Not a :class:`~nijenhuis.words.UsageError`: the data is well formed
    but fails a check, so the CLI exits with 1, as for a failing check.
    """


class ArityMismatch(UsageError):
    """A name list or tensor has the wrong length for the dimension."""


class UnknownGenerator(UsageError):
    """A word mentions a generator with no assigned image."""


class BoundTooSmall(UsageError):
    """The candidate itself does not fit under the truncation bound."""


def _vector(values: Sequence[RationalLike], dim: int) -> Vector:
    """``values`` as a Vector of ``dim`` exact scalars."""
    values = Vector(values)
    if len(values) != dim:
        raise DimensionMismatch(f"expected a vector of length {dim}, got {len(values)}")
    return values


Tensor = tuple[tuple[Vector, ...], ...]
# A structure tensor's nonzero constants by first index: for each i, the
# triples (j, k, t[i][j][k]) with t[i][j][k] nonzero.
SparseTensor = tuple[tuple[tuple[int, int, int | Fraction], ...], ...]


def _tensor(values: Sequence[Sequence[Sequence[RationalLike]]], dim: int) -> Tensor:
    t = tuple(tuple(_vector(row, dim) for row in plane) for plane in values)
    if len(t) != dim or any(len(plane) != dim for plane in t):
        raise ArityMismatch(f"structure tensor is not {dim}x{dim}x{dim}")
    return t


def _sparse(t: Tensor) -> SparseTensor:
    return tuple(
        tuple((j, k, s) for j, row in enumerate(plane) for k, s in enumerate(row) if s)
        for plane in t
    )


def _json_dim(obj: dict) -> int:
    dim = obj["dim"]
    if type(dim) is not int:
        raise TypeError(f"dim must be a JSON integer, got {dim!r}")
    return dim


def _tensor_json(t: Tensor) -> list:
    return [[[str(x) for x in row] for row in plane] for plane in t]


def _contract(t: SparseTensor, u: Sequence[RationalLike], v: Sequence[RationalLike]) -> Vector:
    """The bilinear product of ``u`` and ``v`` with structure tensor ``t``."""
    dim = len(t)
    a = _vector(u, dim)
    b = _vector(v, dim)
    out = [0] * dim
    for ci, plane in zip(a, t):
        if ci:
            for j, k, s in plane:
                cj = b[j]
                if cj:
                    out[k] += ci * cj * s
    return Vector(out)


@dataclass(frozen=True)
class LinearMap:
    """A rows-by-cols rational matrix acting on coordinate columns."""

    rows: int
    cols: int
    entries: tuple[tuple[int | Fraction, ...], ...]
    # The columns, and each column's nonzero entries as (row, entry) pairs.
    _columns: tuple[Vector, ...] = field(init=False, repr=False, compare=False)
    _sparse_columns: tuple[tuple[tuple[int, int | Fraction], ...], ...] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        converted = tuple(tuple(map(rational, row)) for row in self.entries)
        if len(converted) != self.rows or any(len(r) != self.cols for r in converted):
            raise DimensionMismatch("matrix entries do not match the declared shape")
        columns = tuple(Vector(row[j] for row in converted) for j in range(self.cols))
        object.__setattr__(self, "entries", converted)
        object.__setattr__(self, "_columns", columns)
        object.__setattr__(
            self,
            "_sparse_columns",
            tuple(tuple((i, x) for i, x in enumerate(col) if x) for col in columns),
        )

    @classmethod
    def from_rows(cls, entries: Sequence[Sequence[RationalLike]]) -> "LinearMap":
        rows = len(entries)
        cols = len(entries[0]) if rows else 0
        return cls(rows, cols, entries)

    @classmethod
    def identity(cls, n: int) -> "LinearMap":
        return cls.from_rows([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    def apply(self, vec: Sequence[RationalLike]) -> Vector:
        v = _vector(vec, self.cols)
        out = [0] * self.rows
        for c, col in zip(v, self._sparse_columns):
            if c:
                for i, x in col:
                    out[i] += c * x
        return Vector(out)

    def column(self, j: int) -> Vector:
        return self._columns[j]

    def to_json_obj(self) -> list:
        return [[str(x) for x in row] for row in self.entries]


@dataclass(frozen=True)
class NijenhuisAlgebraFD:
    """Structure constants plus an operator matrix.

    ``mult[i][j][k]`` is the coefficient of basis vector k in the product
    of basis vectors i and j; ``op`` applies the operator to coordinates.
    Nothing is validated beyond shape; run :func:`check_nijenhuis_fd`.
    """

    dim: int
    mult: Tensor
    op: LinearMap
    _mult_sparse: SparseTensor = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "mult", _tensor(self.mult, self.dim))
        object.__setattr__(self, "_mult_sparse", _sparse(self.mult))
        if self.op.rows != self.dim or self.op.cols != self.dim:
            raise DimensionMismatch("operator matrix must be square of the dimension")

    def mul(self, u: Sequence[RationalLike], v: Sequence[RationalLike]) -> Vector:
        return _contract(self._mult_sparse, u, v)

    def apply_op(self, u: Sequence[RationalLike]) -> Vector:
        return self.op.apply(u)

    def to_json_obj(self) -> dict:
        return {
            "dim": self.dim,
            "mult": _tensor_json(self.mult),
            "op": self.op.to_json_obj(),
        }

    @classmethod
    def from_json_obj(cls, obj: dict) -> "NijenhuisAlgebraFD":
        dim = _json_dim(obj)
        return cls(dim, _tensor(obj["mult"], dim), LinearMap.from_rows(obj["op"]))


@dataclass(frozen=True)
class NSAlgebraFD:
    """Three bilinear operations given by structure tensors."""

    dim: int
    prec: Tensor
    succ: Tensor
    bullet: Tensor
    _sparse_tensors: dict[OpSymbol, SparseTensor] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        for op in COORD_OPS:
            object.__setattr__(self, op.value, _tensor(getattr(self, op.value), self.dim))
        object.__setattr__(
            self, "_sparse_tensors", {op: _sparse(self.tensor(op)) for op in COORD_OPS}
        )

    def tensor(self, op: OpSymbol) -> Tensor:
        if op not in COORD_OPS:
            raise ValueError(f"no structure tensor for {op!r}")
        return getattr(self, op.value)

    def op_product(
        self, op: OpSymbol, u: Sequence[RationalLike], v: Sequence[RationalLike]
    ) -> Vector:
        if op is OpSymbol.STAR:
            prec, succ, bullet = (self.op_product(o, u, v) for o in COORD_OPS)
            return prec + succ + bullet
        return _contract(self._sparse_tensors[op], u, v)

    def to_json_obj(self) -> dict:
        return {"dim": self.dim, **{op.value: _tensor_json(self.tensor(op)) for op in COORD_OPS}}

    @classmethod
    def from_json_obj(cls, obj: dict) -> "NSAlgebraFD":
        dim = _json_dim(obj)
        return cls(dim, *(_tensor(obj[op.value], dim) for op in COORD_OPS))


def check_nijenhuis_fd(alg: NijenhuisAlgebraFD) -> CheckReport:
    """Sweep associativity, then the operator identity, on basis vectors.

    Indices run in lexicographic order and the first failure is returned.
    """
    basis = [_unit(alg.dim, i) for i in range(alg.dim)]
    return (
        first_nonassociative_triple(basis, alg.mul)
        or first_operator_identity_failure(basis, alg.mul, alg.apply_op)
        or CheckReport(True)
    )


def check_relations_fd(alg: NSAlgebraFD, rels: Sequence[RelVector]) -> CheckReport:
    """Evaluate each relation candidate on every basis triple."""
    n = alg.dim
    basis = [_unit(n, i) for i in range(n)]
    for r_idx, rel in enumerate(rels):
        for a, b, c in _cartesian(range(n), repeat=3):
            lhs, rhs = relation_sides(rel, basis[a], basis[b], basis[c], alg.op_product)
            if lhs != rhs:
                return CheckReport(False, "relation", (r_idx, a, b, c), lhs, rhs)
    return CheckReport(True)


def check_ns_axioms(alg: NSAlgebraFD) -> CheckReport:
    """Sweep the four-relation family on basis triples."""
    return check_relations_fd(alg, ns_relation_set())


def check_ndendriform_axioms(alg: NSAlgebraFD) -> CheckReport:
    """Sweep the five-relation family on basis triples."""
    return check_relations_fd(alg, ndendriform_relation_set())


def induced_ns(alg: NijenhuisAlgebraFD) -> NSAlgebraFD:
    """Split a checked algebra into its three induced operations.

    Each is :func:`derived_op` with the algebra's product and operator.
    Raises :class:`InvalidInput` when the input fails its own sweep.
    """
    report = check_nijenhuis_fd(alg)
    if not report.ok:
        raise InvalidInput(f"input algebra is not valid: {report.describe()}")
    basis = [_unit(alg.dim, i) for i in range(alg.dim)]
    prec, succ, bullet = (
        tuple(
            tuple(derived_op(op, u, v, alg.mul, alg.apply_op) for v in basis)
            for u in basis
        )
        for op in COORD_OPS
    )
    return NSAlgebraFD(alg.dim, prec, succ, bullet)


def default_names(dim: int) -> tuple[str, ...]:
    """Generator names e1 .. e<dim> used when none are supplied."""
    return tuple(f"e{i + 1}" for i in range(dim))


def enveloping_generators(
    alg: NSAlgebraFD, names: Sequence[str] | None = None
) -> tuple[LinComb, ...]:
    """Kernel generators of the comparison onto the free algebra.

    For each basis pair (i, j) three elements are produced, one per
    operation, each the structure-constant combination of letters minus
    the same operation on the free generators:

        sum_k t[i][j][k] e_k  -  derived_op(op, e_i, e_j)

    for op = prec, succ, bullet with t its structure tensor.  Order:
    (i, j) lexicographic, then the three operations.  The ``names`` must
    be distinct identifiers; others raise
    :class:`~nijenhuis.words.WordError`.
    """
    if names is None:
        names = default_names(alg.dim)
    names = generators(*names)
    if len(names) != alg.dim:
        raise ArityMismatch(f"{alg.dim} names required, got {len(names)}")
    letters = [LinComb.from_word(letter_word(s)) for s in names]

    def constants(t: Tensor, i: int, j: int) -> LinComb:
        total = LinComb()
        for k, c in enumerate(t[i][j]):
            if c:
                total = total + letters[k].scale(c)
        return total

    return tuple(
        constants(alg.tensor(op), i, j) - derived_op(op, letters[i], letters[j])
        for i in range(alg.dim)
        for j in range(alg.dim)
        for op in COORD_OPS
    )


# A bracket, or a generator name, in the text of a word.
_TOKEN = re.compile(r"[\[\]]|[^\[\]*]+")


def evaluate_hom(
    alg: NijenhuisAlgebraFD,
    f: LinearMap,
    a: LinComb,
    names: Sequence[str],
) -> Vector:
    """Image of a free-algebra element under the induced evaluation map.

    ``f`` sends each named generator (a column) to a vector of ``alg``;
    letters multiply in ``alg``, brackets apply its operator, and the
    whole thing extends linearly.  The ``names`` must be distinct
    identifiers; others raise :class:`~nijenhuis.words.WordError`.
    """
    names = generators(*names)
    if f.cols != len(names):
        raise DimensionMismatch("map has one column per generator name")
    if f.rows != alg.dim:
        raise DimensionMismatch("map must land in the target algebra")
    index = {name: k for k, name in enumerate(names)}

    def eval_word(w: str) -> Vector:
        # Read the text left to right.  ``run`` is the product of the
        # letter run being read, ``value`` that of the factors before it
        # in the current word; an open bracket saves ``value``.
        outer: list[Vector | None] = []
        value = run = None
        for token in _TOKEN.findall(w):
            if token == "[" or token == "]":
                if run is not None:
                    value = run if value is None else alg.mul(value, run)
                    run = None
                if token == "[":
                    outer.append(value)
                    value = None
                else:
                    piece = alg.apply_op(value)
                    value = outer.pop()
                    value = piece if value is None else alg.mul(value, piece)
            else:
                k = index.get(token)
                if k is None:
                    raise UnknownGenerator(f"no image for generator {token}")
                col = f.column(k)
                run = col if run is None else alg.mul(run, col)
        if run is not None:
            value = run if value is None else alg.mul(value, run)
        return value

    total = [0] * alg.dim
    for w, c in a:
        for k, x in enumerate(eval_word(w)):
            if x:
                total[k] += c * x
    return Vector(total)


def check_morphism_kills_generators(
    source: NSAlgebraFD,
    target: NijenhuisAlgebraFD,
    f: LinearMap,
    names: Sequence[str] | None = None,
) -> CheckReport:
    """Check that ``f`` intertwines the three operations, and so kills
    the kernel generators under the induced evaluation.

    The generator for (op, i, j) is ``sum_k t[i][j][k] e_k -
    derived_op(op, e_i, e_j)``, whose words have at most two factors, so
    its image is exactly ``f(op(e_i, e_j)) - derived_op(op, f e_i, f e_j)``,
    the two sides compared here, whatever the target's product.  The
    one failure kind is ``morphism`` with indices (op, i, j), where op
    numbers the operations (0 prec, 1 succ, 2 bullet).  ``names``, when
    given, must be distinct identifiers, one per source basis vector.
    """
    if names is not None and len(generators(*names)) != source.dim:
        raise ArityMismatch(f"{source.dim} names required, got {len(names)}")
    if f.cols != source.dim or f.rows != target.dim:
        raise DimensionMismatch("map shape must be target dim by source dim")

    columns = [f.column(j) for j in range(source.dim)]
    for o, op in enumerate(COORD_OPS):
        tensor = source.tensor(op)
        for i in range(source.dim):
            for j in range(source.dim):
                lhs = f.apply(tensor[i][j])
                rhs = derived_op(op, columns[i], columns[j], target.mul, target.apply_op)
                if lhs != rhs:
                    return CheckReport(False, "morphism", (o, i, j), lhs, rhs)
    return CheckReport(True)


class Membership(Enum):
    """Verdict of the truncated ideal membership procedure."""

    MEMBER = "member"
    NOT_DETECTED = "not-detected"


def truncated_ideal_membership(
    ideal_generators: Sequence[LinComb],
    candidate: LinComb,
    size_bound: int,
) -> Membership:
    """Semidecide membership in the two-sided operator-stable ideal.

    The ideal generated by the inputs is closed under the product on
    either side and under the operator.  The procedure computes the
    smallest span that holds every generator whose words fit under
    ``size_bound`` and is closed under each of those moves whose result
    fits (term sizes add under the product, so an element fits a move
    exactly when its largest word does).  That span depends only on the
    generators' span and the bound, not on their order.  A ``MEMBER``
    verdict is therefore a certificate; ``NOT_DETECTED`` only means no
    derivation was found within the truncation.

    Raises :class:`BoundTooSmall` if the candidate itself has a word
    above the bound.
    """
    if candidate and max(map(size, candidate._terms)) > size_bound:
        raise BoundTooSmall(
            f"candidate has a word larger than the bound {size_bound}"
        )
    if candidate.is_zero():
        return Membership.MEMBER

    symbols = sorted(
        {
            name
            for element in (*ideal_generators, candidate)
            for w in element._terms
            for name in iter_symbols(w)
        }
    )
    # multipliers[n - 1] holds the words of size n.
    multipliers = [
        [LinComb.from_word(w) for w in words_of_size(tuple(symbols), n)] for n in range(1, size_bound)
    ]

    # Pivoted on the largest word, size first, each kept row's pivot is
    # its largest word, and stays so under back-substitution.
    space = RowSpace(key=lambda w: (size(w), canonical_key(w)))
    fresh: list[str] = []

    def keep(element: LinComb) -> None:
        if element and space.add(element._terms):
            # A new pivot is the last key stored.
            fresh.append(next(reversed(space.rows)))

    for g in ideal_generators:
        if g and max(map(size, g._terms)) <= size_bound:
            keep(g)

    while fresh:
        pivot = fresh.pop()
        room = size_bound - size(pivot)
        # A copy: back-substitution edits the stored rows in place.
        row = _wrap(dict(space.rows[pivot]))
        if room:
            keep(operator_n(row))
        for group in multipliers[:room]:
            for m in group:
                keep(product(m, row))
                keep(product(row, m))

    return Membership.MEMBER if candidate._terms in space else Membership.NOT_DETECTED


def _componentwise_mult(dim: int) -> Tensor:
    return tuple(
        tuple(
            Vector(1 if i == j == k else 0 for k in range(dim))
            for j in range(dim)
        )
        for i in range(dim)
    )


def fixture_projection() -> NijenhuisAlgebraFD:
    """Componentwise product on two coordinates; operator keeps the first."""
    return NijenhuisAlgebraFD(
        2, _componentwise_mult(2), LinearMap.from_rows([[1, 0], [0, 0]])
    )


def fixture_scaling(lam: RationalLike) -> NijenhuisAlgebraFD:
    """Componentwise product; operator is the given scalar multiple of the identity."""
    c = rational(lam)
    return NijenhuisAlgebraFD(
        2, _componentwise_mult(2), LinearMap.from_rows([[c, 0], [0, c]])
    )


def fixture_swap() -> NijenhuisAlgebraFD:
    """Componentwise product with the coordinate swap; fails the operator identity."""
    return NijenhuisAlgebraFD(
        2, _componentwise_mult(2), LinearMap.from_rows([[0, 1], [1, 0]])
    )
