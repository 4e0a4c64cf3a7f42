"""Finite-dimensional algebras, induced operations, and enveloping tools.

A finite-dimensional algebra is given by structure constants over the
rationals, together with a square matrix for its distinguished operator.
This module can check the operator identity and associativity by sweep,
split such an algebra into its three induced bilinear operations, and
study the result through the free algebra: every finite-dimensional
instance with the three operations embeds, up to a quotient, into the
free algebra on one generator per basis vector.  The kernel of that
comparison is generated by an explicit finite family, one relation per
basis pair and operation; a truncated closure computes a certified lower
bound of the kernel, giving a semidecision procedure for membership.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Sequence

from .algebra import (
    COORD_OPS,
    CheckReport,
    OpSymbol,
    first_nonassociative_triple,
    operator_n,
    product,
)
from .linalg import (
    DimensionMismatch,
    LinComb,
    RationalLike,
    RowSpace,
    format_rational,
    rational,
)
from .relations import RelVector, ndendriform_relation_set, ns_relation_set
from .words import (
    Bracket,
    BracketedWord,
    GeneratorSymbol,
    Letters,
    canonical_key,
    iter_symbols,
    letter_word,
    size,
    words_up_to_size,
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
    """A precondition on supplied data does not hold."""


class ArityMismatch(ValueError):
    """A name list or tensor has the wrong length for the dimension."""


class UnknownGenerator(ValueError):
    """A word mentions a generator with no assigned image."""


class BoundTooSmall(ValueError):
    """The candidate itself does not fit under the truncation bound."""


Vector = tuple[Fraction, ...]


def _vector(values: Sequence[RationalLike], dim: int) -> Vector:
    vec = tuple(rational(x) for x in values)
    if len(vec) != dim:
        raise DimensionMismatch(f"expected a vector of length {dim}, got {len(vec)}")
    return vec


def _vec_add(u: Vector, v: Vector) -> Vector:
    return tuple(a + b for a, b in zip(u, v))


def _vec_sub(u: Vector, v: Vector) -> Vector:
    return tuple(a - b for a, b in zip(u, v))


def _vec_scale(c: Fraction, u: Vector) -> Vector:
    return tuple(c * a for a in u)


def _zero(dim: int) -> Vector:
    return (Fraction(0),) * dim


def _is_zero(u: Vector) -> bool:
    return not any(u)


Tensor = tuple[tuple[Vector, ...], ...]


def _tensor(values: Sequence[Sequence[Sequence[RationalLike]]], dim: int) -> Tensor:
    t = tuple(tuple(_vector(row, dim) for row in plane) for plane in values)
    if len(t) != dim or any(len(plane) != dim for plane in t):
        raise ArityMismatch(f"structure tensor is not {dim}x{dim}x{dim}")
    return t


def _tensor_json(t: Tensor) -> list:
    return [[[format_rational(x) for x in row] for row in plane] for plane in t]


def _contract(t: Tensor, u: Sequence[RationalLike], v: Sequence[RationalLike]) -> Vector:
    """The bilinear product of ``u`` and ``v`` with structure tensor ``t``."""
    dim = len(t)
    a = _vector(u, dim)
    b = _vector(v, dim)
    out = [Fraction(0)] * dim
    for i, ci in enumerate(a):
        if not ci:
            continue
        for j, cj in enumerate(b):
            if not cj:
                continue
            coeff = ci * cj
            for k, s in enumerate(t[i][j]):
                if s:
                    out[k] += coeff * s
    return tuple(out)


def _unit(dim: int, i: int) -> Vector:
    return tuple(Fraction(1 if j == i else 0) for j in range(dim))


@dataclass(frozen=True)
class LinearMap:
    """A rows-by-cols rational matrix acting on coordinate columns."""

    rows: int
    cols: int
    entries: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self) -> None:
        converted = tuple(tuple(rational(x) for x in row) for row in self.entries)
        if len(converted) != self.rows or any(len(r) != self.cols for r in converted):
            raise DimensionMismatch("matrix entries do not match the declared shape")
        object.__setattr__(self, "entries", converted)

    @classmethod
    def from_rows(cls, entries: Sequence[Sequence[RationalLike]]) -> "LinearMap":
        rows = len(entries)
        cols = len(entries[0]) if rows else 0
        return cls(rows, cols, tuple(tuple(rational(x) for x in r) for r in entries))

    @classmethod
    def identity(cls, n: int) -> "LinearMap":
        return cls.from_rows([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    def apply(self, vec: Sequence[RationalLike]) -> Vector:
        v = _vector(vec, self.cols)
        return tuple(
            sum((row[j] * v[j] for j in range(self.cols)), Fraction(0))
            for row in self.entries
        )

    def column(self, j: int) -> Vector:
        return tuple(row[j] for row in self.entries)

    def to_json_obj(self) -> list:
        return [[format_rational(x) for x in row] for row in self.entries]

    @classmethod
    def from_json_obj(cls, obj: Sequence[Sequence[RationalLike]]) -> "LinearMap":
        return cls.from_rows(obj)


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

    def __post_init__(self) -> None:
        object.__setattr__(self, "mult", _tensor(self.mult, self.dim))
        if self.op.rows != self.dim or self.op.cols != self.dim:
            raise DimensionMismatch("operator matrix must be square of the dimension")

    def mul(self, u: Sequence[RationalLike], v: Sequence[RationalLike]) -> Vector:
        return _contract(self.mult, u, v)

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
        dim = int(obj["dim"])
        return cls(dim, _tensor(obj["mult"], dim), LinearMap.from_json_obj(obj["op"]))


@dataclass(frozen=True)
class NSAlgebraFD:
    """Three bilinear operations given by structure tensors."""

    dim: int
    prec: Tensor
    succ: Tensor
    bullet: Tensor

    def __post_init__(self) -> None:
        for name in ("prec", "succ", "bullet"):
            object.__setattr__(self, name, _tensor(getattr(self, name), self.dim))

    def tensor(self, op: OpSymbol) -> Tensor:
        if op is OpSymbol.PREC:
            return self.prec
        if op is OpSymbol.SUCC:
            return self.succ
        if op is OpSymbol.BULLET:
            return self.bullet
        raise ValueError(f"no structure tensor for {op!r}")

    def op_product(
        self, op: OpSymbol, u: Sequence[RationalLike], v: Sequence[RationalLike]
    ) -> Vector:
        if op is OpSymbol.STAR:
            parts = (self.op_product(o, u, v) for o in COORD_OPS)
            total = _zero(self.dim)
            for p in parts:
                total = _vec_add(total, p)
            return total
        return _contract(self.tensor(op), u, v)

    def to_json_obj(self) -> dict:
        return {
            "dim": self.dim,
            "prec": _tensor_json(self.prec),
            "succ": _tensor_json(self.succ),
            "bullet": _tensor_json(self.bullet),
        }

    @classmethod
    def from_json_obj(cls, obj: dict) -> "NSAlgebraFD":
        dim = int(obj["dim"])
        return cls(
            dim,
            _tensor(obj["prec"], dim),
            _tensor(obj["succ"], dim),
            _tensor(obj["bullet"], dim),
        )


def check_nijenhuis_fd(alg: NijenhuisAlgebraFD) -> CheckReport:
    """Sweep associativity, then the operator identity, on basis vectors.

    Indices run in lexicographic order and the first failure is returned.
    """
    n = alg.dim
    basis = [_unit(n, i) for i in range(n)]
    failure = first_nonassociative_triple(basis, alg.mul)
    if failure is not None:
        return failure
    for i in range(n):
        for j in range(n):
            pi, pj = alg.apply_op(basis[i]), alg.apply_op(basis[j])
            lhs = alg.mul(pi, pj)
            rhs = _vec_sub(
                _vec_add(
                    alg.apply_op(alg.mul(pi, basis[j])),
                    alg.apply_op(alg.mul(basis[i], pj)),
                ),
                alg.apply_op(alg.apply_op(alg.mul(basis[i], basis[j]))),
            )
            if lhs != rhs:
                return CheckReport(False, "operator-identity", (i, j), lhs, rhs)
    return CheckReport(True)


def check_relations_fd(alg: NSAlgebraFD, rels: Sequence[RelVector]) -> CheckReport:
    """Evaluate each relation candidate on every basis triple."""
    n = alg.dim
    basis = [_unit(n, i) for i in range(n)]
    for r_idx, rel in enumerate(rels):
        for a in range(n):
            for b in range(n):
                for c in range(n):
                    lhs = _zero(n)
                    rhs = _zero(n)
                    for i, op_i in enumerate(COORD_OPS):
                        for j, op_j in enumerate(COORD_OPS):
                            cl = rel.left[i][j]
                            if cl:
                                inner = alg.op_product(op_i, basis[a], basis[b])
                                lhs = _vec_add(
                                    lhs,
                                    _vec_scale(cl, alg.op_product(op_j, inner, basis[c])),
                                )
                            cr = rel.right[i][j]
                            if cr:
                                inner = alg.op_product(op_j, basis[b], basis[c])
                                rhs = _vec_add(
                                    rhs,
                                    _vec_scale(cr, alg.op_product(op_i, basis[a], inner)),
                                )
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

    prec(u, v) = u P(v),  succ(u, v) = P(u) v,  bullet(u, v) = -P(u v).
    Raises :class:`InvalidInput` when the input fails its own sweep.
    """
    report = check_nijenhuis_fd(alg)
    if not report.ok:
        raise InvalidInput(f"input algebra is not valid: {report.describe()}")
    n = alg.dim
    basis = [_unit(n, i) for i in range(n)]
    prec = [[alg.mul(basis[i], alg.apply_op(basis[j])) for j in range(n)] for i in range(n)]
    succ = [[alg.mul(alg.apply_op(basis[i]), basis[j]) for j in range(n)] for i in range(n)]
    bullet = [
        [_vec_scale(Fraction(-1), alg.apply_op(alg.mul(basis[i], basis[j]))) for j in range(n)]
        for i in range(n)
    ]
    return NSAlgebraFD(n, tuple(map(tuple, prec)), tuple(map(tuple, succ)), tuple(map(tuple, bullet)))


def default_names(dim: int) -> tuple[GeneratorSymbol, ...]:
    """Generator names e1 .. e<dim> used when none are supplied."""
    return tuple(GeneratorSymbol(f"e{i + 1}") for i in range(dim))


def enveloping_generators(
    alg: NSAlgebraFD, names: Sequence[GeneratorSymbol] | None = None
) -> tuple[LinComb, ...]:
    """Kernel generators of the comparison onto the free algebra.

    For each basis pair (i, j) three elements are produced, one per
    operation, each the structure-constant combination of letters minus
    the corresponding free-algebra expression:

        sum_k prec[i][j][k] e_k  -  e_i [e_j]
        sum_k succ[i][j][k] e_k  -  [e_i] e_j
        sum_k bullet[i][j][k] e_k  +  [e_i e_j]

    The bullet line carries a plus because the free bullet operation is
    itself a negated bracket.  Order: (i, j) lexicographic, then the
    three operations.
    """
    if names is None:
        names = default_names(alg.dim)
    names = tuple(names)
    if len(names) != alg.dim:
        raise ArityMismatch(f"{alg.dim} names required, got {len(names)}")
    letters = [LinComb.from_word(letter_word(s)) for s in names]

    def constants(t: Tensor, i: int, j: int) -> LinComb:
        total = LinComb.zero()
        for k, c in enumerate(t[i][j]):
            if c:
                total = total + letters[k].scale(c)
        return total

    out: list[LinComb] = []
    for i in range(alg.dim):
        for j in range(alg.dim):
            prec_word = BracketedWord(
                (Letters((names[i],)), Bracket(letter_word(names[j])))
            )
            succ_word = BracketedWord(
                (Bracket(letter_word(names[i])), Letters((names[j],)))
            )
            bullet_word = BracketedWord(
                (Bracket(letter_word(names[i], names[j])),)
            )
            out.append(constants(alg.prec, i, j) - LinComb.from_word(prec_word))
            out.append(constants(alg.succ, i, j) - LinComb.from_word(succ_word))
            out.append(constants(alg.bullet, i, j) + LinComb.from_word(bullet_word))
    return tuple(out)


def evaluate_hom(
    alg: NijenhuisAlgebraFD,
    f: LinearMap,
    a: LinComb,
    names: Sequence[GeneratorSymbol],
) -> Vector:
    """Image of a free-algebra element under the induced evaluation map.

    ``f`` sends each named generator (a column) to a vector of ``alg``;
    letters multiply in ``alg``, brackets apply its operator, and the
    whole thing extends linearly.
    """
    names = tuple(names)
    if f.cols != len(names):
        raise DimensionMismatch("map has one column per generator name")
    if f.rows != alg.dim:
        raise DimensionMismatch("map must land in the target algebra")
    index = {sym: k for k, sym in enumerate(names)}

    def eval_word(w: BracketedWord) -> Vector:
        value: Vector | None = None
        for factor in w.factors:
            if isinstance(factor, Letters):
                part: Vector | None = None
                for sym in factor.run:
                    k = index.get(sym)
                    if k is None:
                        raise UnknownGenerator(f"no image for generator {sym}")
                    col = f.column(k)
                    part = col if part is None else alg.mul(part, col)
                piece = part
            else:
                piece = alg.apply_op(eval_word(factor.inner))
            assert piece is not None
            value = piece if value is None else alg.mul(value, piece)
        assert value is not None
        return value

    total = _zero(alg.dim)
    for w, c in a:
        total = _vec_add(total, _vec_scale(c, eval_word(w)))
    return total


def check_morphism_kills_generators(
    source: NSAlgebraFD,
    target: NijenhuisAlgebraFD,
    f: LinearMap,
    names: Sequence[GeneratorSymbol] | None = None,
) -> CheckReport:
    """Check that ``f`` intertwines the three operations and that the
    kernel generators map to zero under the induced evaluation.

    Failure kinds: ``morphism`` with indices (op, i, j) where op numbers
    the operations (0 prec, 1 succ, 2 bullet), then ``generator-image``
    with the flat generator index.
    """
    if names is None:
        names = default_names(source.dim)
    names = tuple(names)
    if len(names) != source.dim:
        raise ArityMismatch(f"{source.dim} names required, got {len(names)}")
    if f.cols != source.dim or f.rows != target.dim:
        raise DimensionMismatch("map shape must be target dim by source dim")

    columns = [f.column(j) for j in range(source.dim)]
    for o, op in enumerate(COORD_OPS):
        for i in range(source.dim):
            for j in range(source.dim):
                lhs = f.apply(source.op_product(op, _unit(source.dim, i), _unit(source.dim, j)))
                if op is OpSymbol.PREC:
                    rhs = target.mul(columns[i], target.apply_op(columns[j]))
                elif op is OpSymbol.SUCC:
                    rhs = target.mul(target.apply_op(columns[i]), columns[j])
                else:
                    rhs = _vec_scale(
                        Fraction(-1), target.apply_op(target.mul(columns[i], columns[j]))
                    )
                if lhs != rhs:
                    return CheckReport(False, "morphism", (o, i, j), lhs, rhs)

    for g_idx, gen in enumerate(enveloping_generators(source, names)):
        image = evaluate_hom(target, f, gen, names)
        if not _is_zero(image):
            return CheckReport(False, "generator-image", (g_idx,), image, _zero(target.dim))
    return CheckReport(True)


class Membership(Enum):
    """Verdict of the truncated ideal membership procedure."""

    MEMBER = "member"
    NOT_DETECTED = "not-detected"


def _max_term_size(a: LinComb) -> int:
    return max(size(w) for w, _ in a)


def truncated_ideal_membership(
    ideal_generators: Sequence[LinComb],
    candidate: LinComb,
    size_bound: int,
) -> Membership:
    """Semidecide membership in the two-sided operator-stable ideal.

    The ideal generated by the inputs is closed under the product on
    either side and under the operator.  The procedure closes the
    generator span under those moves, keeping only elements all of whose
    words fit under ``size_bound`` (term sizes add under the product, so
    discarding an oversized element never corrupts the kept span).  A
    ``MEMBER`` verdict is therefore a certificate; ``NOT_DETECTED`` only
    means no derivation was found within the truncation.

    Raises :class:`BoundTooSmall` if the candidate itself has a word
    above the bound.
    """
    if candidate and _max_term_size(candidate) > size_bound:
        raise BoundTooSmall(
            f"candidate has a word larger than the bound {size_bound}"
        )
    if candidate.is_zero():
        return Membership.MEMBER

    symbols = sorted(
        {
            sym
            for element in (*ideal_generators, candidate)
            for w, _ in element
            for sym in iter_symbols(w)
        },
        key=lambda s: s.name,
    )
    multipliers = [
        LinComb.from_word(w)
        for w in words_up_to_size(tuple(symbols), max(size_bound - 1, 0))
    ]
    multiplier_sizes = [_max_term_size(m) for m in multipliers]

    space = RowSpace(key=canonical_key)
    queue: list[LinComb] = []
    for g in ideal_generators:
        if g.is_zero() or _max_term_size(g) > size_bound:
            continue
        space.add(g._terms)
        queue.append(g)

    while queue:
        element = queue.pop()
        element_size = _max_term_size(element)
        derived: list[LinComb] = []
        if element_size + 1 <= size_bound:
            derived.append(operator_n(element))
        for m, m_size in zip(multipliers, multiplier_sizes):
            if element_size + m_size <= size_bound:
                derived.append(product(m, element))
                derived.append(product(element, m))
        for item in derived:
            if item and space.add(item._terms):
                queue.append(item)

    return Membership.MEMBER if candidate._terms in space else Membership.NOT_DETECTED


def _componentwise_mult(dim: int) -> Tensor:
    return tuple(
        tuple(
            tuple(Fraction(1 if i == j == k else 0) for k in range(dim))
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
