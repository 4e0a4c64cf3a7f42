"""Finite-dimensional algebras, induced operations, and enveloping tools.

A finite-dimensional algebra is given by structure constants over the
rationals, together with a square matrix for its distinguished operator.
Its elements are coordinate :class:`Vector` s with the arithmetic of
:class:`LinComb`, so the identity sweeps, the splitting operations and
the relation sides written for the free algebra run on them, given the
algebra's product and operator.  The products, operator images and
evaluations returned here hold an ``int`` wherever a coordinate is
integral and a Fraction only otherwise, as :class:`LinComb` does.  Input
is coerced once, where it enters through ``mul``, ``apply_op``,
:meth:`LinearMap.apply` or a class's one constructor; the Vectors this
module builds pass through.  A constructor walks its input once, taking
only lists of the right length at every level, and keeps only its
dense rows: products, map images and columns read those rows, skipping
zero entries.  The attributes are read-only.  No class here
reads or writes JSON: :mod:`nijenhuis.cli` reads the algebra and map
files through the constructors and writes what it prints.  This module
checks the operator identity and associativity by sweep, splits such an
algebra into its three induced bilinear operations, checks families of
quadratic relations on a split algebra, evaluating the monomials of
each basis triple once for all of them, and studies the result
through the free algebra: every finite-dimensional instance with the
three operations embeds, up to a quotient, into the free algebra on one
generator per basis vector.  The kernel of that comparison is generated
by an explicit finite family, one relation per basis pair and operation;
a truncated closure computes a certified lower bound of the kernel,
giving a semidecision procedure for membership.

The two algebra classes and :class:`LinearMap` hash as they compare,
by value, and the four functions a command runs on a whole algebra are
memoized in the process, each in a bounded ``functools.lru_cache`` of
``_MEMO_SIZE`` (64) results: :func:`check_nijenhuis_fd` and
:func:`induced_ns`, keyed on the algebra; :func:`enveloping_generators`,
on the split algebra and the tuple of names;
:func:`check_morphism_kills_generators`, on the source, the target and
the map, once the names have been checked.  So equal algebras, read
from two files or written ``1`` and ``"2/2"``, share one entry.  An
error is never cached: invalid input raises on every call.  The
results are read-only values shared by every caller, and none depends
on the term cap (:func:`~nijenhuis.algebra.command_scope`), since
every free product they take has one term.
"""

from __future__ import annotations

from enum import Enum
from functools import lru_cache
from itertools import product as _cartesian
from operator import attrgetter
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
    ArityMismatch,
    DimensionMismatch,
    LinComb,
    RationalLike,
    RowSpace,
    Vector,
    _sized,
    _unit,
    _wrap,
)
from .relations import check_relations, monomials_at
from .words import (
    UsageError,
    canonical_key,
    factors,
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
    "induced_ns",
    "default_names",
    "enveloping_generators",
    "evaluate_hom",
    "check_morphism_kills_generators",
    "Membership",
    "truncated_ideal_membership",
]


class InvalidInput(ValueError):
    """A precondition on supplied data does not hold.

    Not a :class:`~nijenhuis.words.UsageError`: the data is well formed
    but fails a check, so the CLI exits with 1, as for a failing check.
    """


class UnknownGenerator(UsageError):
    """A word mentions a generator with no assigned image."""


class BoundTooSmall(UsageError):
    """The candidate itself does not fit under the truncation bound."""


Tensor = tuple[tuple[Vector, ...], ...]
TensorLike = Sequence[Sequence[Sequence[RationalLike]]]

# Results kept by each memo of this module.  A long-lived process of
# mixed commands reads a handful of algebra files again and again; a
# dimension-3 algebra holds about 21 KiB across the four memos.  What
# each memo is worth is the median, over 12 interpreters, of the
# slowdown of the command kinds it serves when it alone is taken out,
# on the session traffic of perfbench/gen.py (slower in 12 of 12 each
# time).
_MEMO_SIZE = 64


def _read_tensor(values: TensorLike, dim: int) -> Tensor:
    """A ``dim``-cubed structure tensor of exact scalars."""
    if type(dim) is not int:
        raise TypeError(f"dim must be a JSON integer, got {dim!r}")
    return tuple(
        tuple(Vector(_sized(row, dim, "a tensor row")) for row in _sized(plane, dim, "a tensor plane"))
        for plane in _sized(values, dim, "a structure tensor")
    )


def _contract(t: Tensor, u: Sequence[RationalLike], v: Sequence[RationalLike]) -> Vector:
    """The bilinear product of ``u`` and ``v`` with structure tensor ``t``."""
    dim = len(t)
    b = Vector(_sized(v, dim, "a vector"))
    out = [0] * dim
    for ci, plane in zip(Vector(_sized(u, dim, "a vector")), t):
        if ci:
            for cj, row in zip(b, plane):
                if cj:
                    c = ci * cj
                    for k, s in enumerate(row):
                        if s:
                            out[k] += c * s
    return Vector(out)


class LinearMap:
    """A read-only rational matrix, given by its rows, acting on coordinate columns."""

    __slots__ = ("_entries",)

    def __init__(self, rows: Sequence[Sequence[RationalLike]]) -> None:
        rows = _sized(rows, None, "a matrix")
        cols = len(_sized(rows[0], None, "a matrix row")) if rows else 0
        self._entries = tuple(Vector(_sized(row, cols, "a matrix row")) for row in rows)

    @property
    def shape(self) -> tuple[int, int]:
        """The numbers of rows and of columns."""
        rows = self._entries
        return len(rows), len(rows[0]) if rows else 0

    def apply(self, vec: Sequence[RationalLike]) -> Vector:
        out = [0] * len(self._entries)
        for j, c in enumerate(Vector(_sized(vec, self.shape[1], "a vector"))):
            if c:
                for i, row in enumerate(self._entries):
                    if row[j]:
                        out[i] += c * row[j]
        return Vector(out)

    def column(self, j: int) -> Vector:
        return Vector([row[j] for row in self._entries])

    def __eq__(self, other: object) -> bool:
        return self._entries == other._entries if type(other) is LinearMap else NotImplemented

    def __hash__(self) -> int:
        return hash(self._entries)


class NijenhuisAlgebraFD:
    """Structure constants plus an operator matrix.

    ``mult[i][j][k]`` is the coefficient of basis vector k in the product
    of basis vectors i and j; ``op`` applies the operator to coordinates.
    Nothing is validated beyond shape; run :func:`check_nijenhuis_fd`.
    The attributes are read-only.
    """

    __slots__ = ("_mult", "_op")

    def __init__(self, dim: int, mult: TensorLike, op: LinearMap) -> None:
        self._mult = _read_tensor(mult, dim)
        if op.shape != (dim, dim):
            raise DimensionMismatch("operator matrix must be square of the dimension")
        self._op = op

    dim = property(lambda self: len(self._mult))
    mult = property(attrgetter("_mult"))
    op = property(attrgetter("_op"))

    def mul(self, u: Sequence[RationalLike], v: Sequence[RationalLike]) -> Vector:
        return _contract(self._mult, u, v)

    def apply_op(self, u: Sequence[RationalLike]) -> Vector:
        return self._op.apply(u)

    def __eq__(self, other: object) -> bool:
        if type(other) is not NijenhuisAlgebraFD:
            return NotImplemented
        return (self._mult, self._op) == (other._mult, other._op)

    def __hash__(self) -> int:
        return hash((self._mult, self._op))


class NSAlgebraFD:
    """Three bilinear operations given by structure tensors; read-only."""

    __slots__ = ("_tensors",)

    def __init__(self, dim: int, prec: TensorLike, succ: TensorLike, bullet: TensorLike) -> None:
        self._tensors = {op: _read_tensor(t, dim) for op, t in zip(COORD_OPS, (prec, succ, bullet))}

    dim = property(lambda self: len(self.prec))
    prec = property(lambda self: self._tensors[OpSymbol.PREC])
    succ = property(lambda self: self._tensors[OpSymbol.SUCC])
    bullet = property(lambda self: self._tensors[OpSymbol.BULLET])

    def tensor(self, op: OpSymbol) -> Tensor:
        if op not in COORD_OPS:
            raise ValueError(f"no structure tensor for {op!r}")
        return self._tensors[op]

    def op_product(
        self, op: OpSymbol, u: Sequence[RationalLike], v: Sequence[RationalLike]
    ) -> Vector:
        return _contract(self._tensors[op], u, v)

    def __eq__(self, other: object) -> bool:
        return self._tensors == other._tensors if type(other) is NSAlgebraFD else NotImplemented

    def __hash__(self) -> int:
        # The constructor fills the dict in the order of COORD_OPS.
        return hash(tuple(self._tensors.values()))


# fd-check x2.8 without it.
@lru_cache(maxsize=_MEMO_SIZE)
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


def check_relations_fd(
    alg: NSAlgebraFD, families: Sequence[Sequence[Vector]]
) -> tuple[CheckReport, ...]:
    """Sweep each family of candidates on basis triples, one report per family.

    The monomials of each basis triple are evaluated once, for all the families.
    """
    basis = [_unit(alg.dim, i) for i in range(alg.dim)]
    values = [
        (t, monomials_at(*(basis[i] for i in t), alg.op_product))
        for t in _cartesian(range(alg.dim), repeat=3)
    ]
    return tuple(check_relations(rels, values) for rels in families)


# induce-ns x1.8, morphism-check x1.8, env-generators x1.4 without it.
@lru_cache(maxsize=_MEMO_SIZE)
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
    return _enveloping_generators(alg, generators(*names))


# env-generators +24% without it.
@lru_cache(maxsize=_MEMO_SIZE)
def _enveloping_generators(alg: NSAlgebraFD, names: tuple[str, ...]) -> tuple[LinComb, ...]:
    if len(names) != alg.dim:
        raise ArityMismatch(f"{alg.dim} names required, got {len(names)}")
    words = [letter_word(s) for s in names]
    letters = [LinComb.from_word(w) for w in words]
    return tuple(
        LinComb(zip(words, alg.tensor(op)[i][j])) - derived_op(op, letters[i], letters[j])
        for i in range(alg.dim)
        for j in range(alg.dim)
        for op in COORD_OPS
    )


def evaluate_hom(
    alg: NijenhuisAlgebraFD,
    f: LinearMap,
    a: LinComb,
    names: Sequence[str],
) -> Vector:
    """Image of a free-algebra element under the induced evaluation map.

    ``f`` sends each named generator (a column) to a vector of ``alg``;
    brackets apply its operator, a word's letters and brackets multiply
    in ``alg`` left to right, and the whole extends linearly.  On an
    associative target, which :func:`check_nijenhuis_fd` checks, that is
    the homomorphism image; no homomorphism from the free algebra reaches
    another target, so no grouping is right there.  The ``names`` must
    be distinct identifiers; others raise :class:`~nijenhuis.words.WordError`.
    """
    names = generators(*names)
    if f.shape != (alg.dim, len(names)):
        raise DimensionMismatch("map shape must be target dim by the number of names")
    index = {name: k for k, name in enumerate(names)}

    def column(name: str) -> Vector:
        if name not in index:
            raise UnknownGenerator(f"no image for generator {name}")
        return f.column(index[name])

    def eval_word(w: str) -> Vector:
        # A run gives its letters' columns, a bracket the operator's image of its inside.
        value = None
        for factor in factors(w):
            if factor[0] == "[":
                pieces = (alg.apply_op(eval_word(factor[1:-1])),)
            else:
                pieces = map(column, factor.split("*"))
            for piece in pieces:
                value = piece if value is None else alg.mul(value, piece)
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
    return _morphism_report(source, target, f)


# morphism-check x1.7 without it.
@lru_cache(maxsize=_MEMO_SIZE)
def _morphism_report(source: NSAlgebraFD, target: NijenhuisAlgebraFD, f: LinearMap) -> CheckReport:
    if f.shape != (target.dim, source.dim):
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
    ``size_bound`` and is closed under each of these moves whose result
    fits: the operator, and the product on either side with a letter or
    a bracket ``[w]`` (term sizes add under the product, so an element
    fits a move exactly when its largest word does).  A word m = b·m′
    with first factor b has no term at that junction, so m·r = b·(m′·r),
    and m′·r fits where m·r does; alike on the right.  So the span is
    closed under the product with every word that fits, and depends only
    on the generators' span and the bound, not on their order.  A
    ``MEMBER`` verdict is a certificate; ``NOT_DETECTED`` only means no
    derivation was found within the truncation.

    Raises :class:`BoundTooSmall` if the candidate itself has a word
    above the bound.
    """
    if candidate and max(map(size, candidate._terms)) > size_bound:
        raise BoundTooSmall(
            f"candidate has a word larger than the bound {size_bound}"
        )
    if not candidate:
        return Membership.MEMBER

    symbols = sorted(
        {
            name
            for element in (*ideal_generators, candidate)
            for w in element._terms
            for name in iter_symbols(w)
        }
    )
    # singles[n - 1] holds the single factors of size n: the letters,
    # then the brackets [w] of the words w of size n - 1.
    singles = [[LinComb.from_word(name) for name in symbols]] + [
        [LinComb.from_word(f"[{w}]") for w in words_of_size(tuple(symbols), n)]
        for n in range(1, size_bound - 1)
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
        for group in singles[:room]:
            for m in group:
                keep(product(m, row))
                keep(product(row, m))

    return Membership.MEMBER if candidate._terms in space else Membership.NOT_DETECTED
