"""The finite-dimensional checks against plain coordinate loops.

The envelope checks run the free algebra's definitions (``derived_op``,
the operator identity sweep, ``monomials_at`` and ``relation_sides``)
on coordinate vectors.
Here each check is written out again the plain way, on tuples of
coordinates with the formulas spelled out, and the two are compared on
random dimension-2 algebras with entries in -2..2, and on the committed
dimension-4 algebras of 2-by-2 matrices: the verdict, the failure kind,
its indices and both sides.  The images of the kernel generators are
compared with the morphism check's two sides the same way.  Products,
operator images, map application and columns, the split, the morphism
check and evaluation are also compared on rational data, spelled as
values or ``p/q`` strings and passed as lists, tuples or Vectors, with
the same loops run on Fractions.  Evaluation is also folded over the
tuple model, factor by factor, on every short word of the 2-by-2
matrix algebras.
"""

from __future__ import annotations

import json
from fractions import Fraction
from itertools import product as cartesian

import pytest
from hypothesis import example, given, strategies as st

from nijenhuis.envelope import (
    InvalidInput,
    LinearMap,
    NijenhuisAlgebraFD,
    NSAlgebraFD,
    Vector,
    check_morphism_kills_generators,
    check_nijenhuis_fd,
    check_relations_fd,
    default_names,
    enveloping_generators,
    evaluate_hom,
    induced_ns,
)
from nijenhuis.linalg import LinComb
from nijenhuis.relations import ndendriform_relation_set, ns_relation_set
from nijenhuis.words import words_up_to_size

from conftest import FIXTURES, identity_map, lincombs_strategy, parse_reference

DIM = 2


def basis(n):
    return [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]


BASIS = basis(DIM)


def mul(t, u, v):
    n = len(t)
    return tuple(sum(u[i] * v[j] * t[i][j][k] for i in range(n) for j in range(n)) for k in range(n))


def apply(m, u):
    return tuple(sum(x * c for x, c in zip(row, u)) for row in m)


def add(u, v):
    return tuple(a + b for a, b in zip(u, v))


def sub(u, v):
    return tuple(a - b for a, b in zip(u, v))


def reference_nijenhuis(t, m):
    """Associativity on basis triples, then N(a)N(b) = N(N(a)b + aN(b) - N(ab))."""
    units = basis(len(t))
    for i, j, k in cartesian(range(len(t)), repeat=3):
        a, b, c = units[i], units[j], units[k]
        lhs, rhs = mul(t, mul(t, a, b), c), mul(t, a, mul(t, b, c))
        if lhs != rhs:
            return False, "associativity", (i, j, k), lhs, rhs
    for i, j in cartesian(range(len(t)), repeat=2):
        a, b = units[i], units[j]
        pa, pb = apply(m, a), apply(m, b)
        lhs = mul(t, pa, pb)
        rhs = sub(
            add(apply(m, mul(t, pa, b)), apply(m, mul(t, a, pb))),
            apply(m, apply(m, mul(t, a, b))),
        )
        if lhs != rhs:
            return False, "operator-identity", (i, j), lhs, rhs
    return True, "", (), None, None


def reference_split(t, m, a, b):
    """x < y = x N(y), x > y = N(x) y and x o y = -N(x y), in that order."""
    return mul(t, a, apply(m, b)), mul(t, apply(m, a), b), tuple(-x for x in apply(m, mul(t, a, b)))


def reference_induced(t, m):
    """The three split operations on basis pairs."""
    units = basis(len(t))
    return tuple(
        tuple(tuple(reference_split(t, m, a, b)[o] for b in units) for a in units)
        for o in range(3)
    )


def reference_relations(tensors, rels):
    """Each relation on every basis triple, with the operations indexed prec, succ, bullet.

    A relation is 18 coordinates: the left grid row-major, then the right.
    """
    n = len(tensors[0])
    units = basis(n)
    for r_idx, rel in enumerate(rels):
        for a, b, c in cartesian(range(n), repeat=3):
            x, y, z = units[a], units[b], units[c]
            lhs = rhs = (0,) * n
            for i, j in cartesian(range(3), repeat=2):
                cl = rel[3 * i + j]
                if cl:
                    term = mul(tensors[j], mul(tensors[i], x, y), z)
                    lhs = add(lhs, tuple(cl * q for q in term))
                cr = rel[9 + 3 * i + j]
                if cr:
                    term = mul(tensors[i], x, mul(tensors[j], y, z))
                    rhs = add(rhs, tuple(cr * q for q in term))
            if lhs != rhs:
                return False, "relation", (r_idx, a, b, c), lhs, rhs
    return True, "", (), None, None


def fields(report):
    return report.ok, report.kind, report.indices, report.lhs, report.rhs


entries = st.integers(min_value=-2, max_value=2)
random_tensors = st.lists(entries, min_size=DIM**3, max_size=DIM**3).map(
    lambda xs: [[xs[4 * i + 2 * j : 4 * i + 2 * j + 2] for j in range(DIM)] for i in range(DIM)]
)
# Random tensors are rarely associative.  The componentwise product is,
# and it satisfies the operator identity with every diagonal operator
# but not with every operator.  In the noncommutative algebra spanned
# by the matrix units E11, E12 (e0 e0 = e0, e0 e1 = e1), and in its
# opposite, every operator satisfies it, so there x < y and x > y differ.
COMPONENTWISE = [[[1 if i == j == k else 0 for k in range(DIM)] for j in range(DIM)] for i in range(DIM)]
ZERO = [[[0] * DIM for _ in range(DIM)] for _ in range(DIM)]
UNITS = [[[1, 0], [0, 1]], [[0, 0], [0, 0]]]
UNITS_OPPOSITE = [[[1, 0], [0, 0]], [[0, 1], [0, 0]]]
VALID = [COMPONENTWISE, ZERO, UNITS, UNITS_OPPOSITE]
tensors = st.one_of(random_tensors, st.sampled_from(VALID))
random_ops = st.lists(entries, min_size=DIM * DIM, max_size=DIM * DIM).map(
    lambda xs: [xs[0:2], xs[2:4]]
)
diagonal_ops = st.tuples(entries, entries).map(lambda d: [[d[0], 0], [0, d[1]]])
ops = st.one_of(random_ops, diagonal_ops)


def algebra(t, m) -> NijenhuisAlgebraFD:
    return NijenhuisAlgebraFD(len(t), t, LinearMap(m))


def compare_nijenhuis(t, m) -> str:
    alg = algebra(t, m)
    expected = reference_nijenhuis(t, m)
    assert fields(check_nijenhuis_fd(alg)) == expected
    if expected[0]:
        ns = induced_ns(alg)
        assert (ns.prec, ns.succ, ns.bullet) == reference_induced(t, m)
    else:
        with pytest.raises(InvalidInput):
            induced_ns(alg)
    return expected[1]


def compare_relations(ns: NSAlgebraFD) -> tuple[bool, bool]:
    tensors = (ns.prec, ns.succ, ns.bullet)
    families = (ns_relation_set(), ndendriform_relation_set())
    four, five = (reference_relations(tensors, rels) for rels in families)
    assert [fields(r) for r in check_relations_fd(ns, families)] == [four, five]
    return four[0], five[0]


@given(tensors, ops)
def test_operator_identity_and_splitting_match_the_loops(t, m):
    compare_nijenhuis(t, m)


def test_the_loops_meet_every_verdict():
    swap = [[0, 1], [1, 0]]
    perturbed = [[[1, 0], [1, 0]], [[0, 0], [0, 1]]]
    kinds = {
        compare_nijenhuis(COMPONENTWISE, [[2, 0], [0, -1]]),
        compare_nijenhuis(UNITS, [[1, -2], [2, 1]]),
        compare_nijenhuis(COMPONENTWISE, swap),
        compare_nijenhuis(perturbed, [[1, 0], [0, 0]]),
    }
    assert kinds == {"", "operator-identity", "associativity"}


random_ns = st.tuples(random_tensors, random_tensors, random_tensors).map(
    lambda ts: NSAlgebraFD(DIM, *ts)
)
# Split operations of a valid operator algebra satisfy both families.
induced = st.one_of(
    st.tuples(st.sampled_from([COMPONENTWISE, ZERO]), diagonal_ops),
    st.tuples(st.sampled_from([UNITS, UNITS_OPPOSITE]), random_ops),
).map(lambda tm: induced_ns(algebra(*tm)))


@given(st.one_of(random_ns, induced))
def test_relation_grids_match_the_loops(ns):
    compare_relations(ns)


def test_the_relation_loops_meet_both_verdicts():
    valid = induced_ns(algebra(COMPONENTWISE, [[1, 0], [0, 0]]))
    assert compare_relations(valid) == (True, True)
    broken = NSAlgebraFD(DIM, valid.prec, valid.succ, COMPONENTWISE)
    assert compare_relations(broken) == (False, False)


def test_vector_addition_is_coordinatewise():
    u, v = Vector((1, 2)), Vector((Fraction(1, 2), -2))
    assert u + v == (Fraction(3, 2), 0)
    assert len(u + v) == 2
    assert u - v == (Fraction(1, 2), 4)
    assert -u == (-1, -2)
    assert u.scale("1/2") == (Fraction(1, 2), 1)
    assert all(type(w) is Vector for w in (u + v, u - v, -u, u.scale(3)))


def test_scaling_by_zero_keeps_the_length():
    assert Vector((1, -2, Fraction(1, 3))).scale(0) == (0, 0, 0)


@given(st.lists(st.fractions(min_value=-3, max_value=3, max_denominator=4), max_size=4))
def test_vector_equals_and_hashes_like_its_tuple(coords):
    plain = tuple(coords)
    vec = Vector(coords)
    assert vec == plain and plain == vec
    assert hash(vec) == hash(plain)
    assert {plain: "found"}[vec] == "found"
    assert vec.scale(0) == (0,) * len(plain)


@given(random_ns, tensors, random_ops, random_ops)
def test_generator_images_are_the_morphism_sides(source, t, m, f_rows):
    # Each kernel generator has words of at most two factors, so its image
    # is f(op(e_i, e_j)) minus op(f e_i, f e_j), even for a target product
    # that is not associative.
    target, f, names = algebra(t, m), LinearMap(f_rows), default_names(DIM)
    images = [evaluate_hom(target, f, g, names) for g in enveloping_generators(source, names)]
    expected = []
    for i, j in cartesian(range(DIM), repeat=2):
        fi, fj = (tuple(row[k] for row in f_rows) for k in (i, j))
        split = reference_split(t, m, fi, fj)
        for o, tensor in enumerate((source.prec, source.succ, source.bullet)):
            expected.append(sub(apply(f_rows, mul(tensor, BASIS[i], BASIS[j])), split[o]))
    assert images == expected


# Rational data, spelled as the loaders and callers may spell it.  The
# references first turn every entry into a Fraction (``frac``) and then
# run the plain loops above, so they share no arithmetic with the int
# paths.
#
# Scaling an associative product by a nonzero constant keeps it
# associative and keeps every operator identity it satisfies, so the
# scaled VALID tensors with their operators are valid algebras still.

rationals = st.builds(
    Fraction, st.integers(min_value=-3, max_value=3), st.integers(min_value=1, max_value=3)
)
# Each value as a Fraction, as a ``p/q`` string, and as an int when integral.
spelled = rationals.flatmap(
    lambda q: st.sampled_from([q, str(q), q.numerator if q.denominator == 1 else q])
)
nonzero_rationals = rationals.filter(bool)
containers = st.sampled_from([list, tuple, Vector])
coordinates = st.lists(spelled, min_size=DIM, max_size=DIM)
rational_random_ops = st.lists(spelled, min_size=DIM * DIM, max_size=DIM * DIM).map(
    lambda xs: [xs[0:2], xs[2:4]]
)
rational_diagonal_ops = st.tuples(spelled, spelled).map(lambda d: [[d[0], 0], [0, d[1]]])


def frac(x):
    """Nested lists of ints, Fractions and ``p/q`` strings, as Fractions."""
    if isinstance(x, (int, str, Fraction)):
        return Fraction(x)
    return [frac(y) for y in x]


def scaled(t, c):
    """``c`` times the tensor ``t``, each entry a ``p/q`` string."""
    return [[[str(c * x) for x in row] for row in plane] for plane in t]


rational_tensors = st.one_of(
    st.lists(spelled, min_size=DIM**3, max_size=DIM**3).map(
        lambda xs: [[xs[4 * i + 2 * j : 4 * i + 2 * j + 2] for j in range(DIM)] for i in range(DIM)]
    ),
    st.tuples(st.sampled_from(VALID), nonzero_rationals).map(lambda tc: scaled(*tc)),
)
rational_valid = st.one_of(
    st.tuples(
        st.sampled_from([COMPONENTWISE, ZERO]), nonzero_rationals, rational_diagonal_ops
    ),
    st.tuples(st.sampled_from([UNITS, UNITS_OPPOSITE]), nonzero_rationals, rational_random_ops),
).map(lambda tcm: (scaled(tcm[0], tcm[1]), tcm[2]))


@given(rational_tensors, rational_random_ops, coordinates, coordinates, containers)
def test_products_and_maps_match_the_fraction_loops(t, m, u, v, container):
    alg = algebra(t, m)
    f = LinearMap(m)
    assert alg.mul(container(u), container(v)) == mul(frac(t), frac(u), frac(v))
    assert alg.apply_op(container(u)) == apply(frac(m), frac(u))
    assert f.apply(container(u)) == apply(frac(m), frac(u))
    tall = LinearMap([*m, u])
    assert tall.apply(container(v)) == apply(frac([*m, u]), frac(v))
    assert (f.shape, tall.shape) == ((DIM, DIM), (DIM + 1, DIM))
    for g, rows in ((f, m), (tall, [*m, u])):
        assert [g.column(j) for j in range(DIM)] == [apply(frac(rows), e) for e in BASIS]


def test_maps_without_columns_keep_their_shape():
    assert LinearMap([]).shape == (0, 0)
    empty_rows = LinearMap([[], []])
    assert empty_rows.shape == (2, 0)
    assert empty_rows.apply([]) == (0, 0)


def matrix_algebra(name):
    """The structure tensor and operator rows of a committed M2(Q) fixture, as ``p/q`` strings."""
    obj = json.loads((FIXTURES / f"{name}.json").read_text())
    return obj["mult"], obj["op"]


# Left and right multiplication by a = E11 + E12 + 2 E22 on M2(Q), which
# pass, and their sum, which fails the operator identity.
@given(st.one_of(rational_valid, st.tuples(rational_tensors, rational_random_ops)))
@example(matrix_algebra("m2_left"))
@example(matrix_algebra("m2_right"))
@example(matrix_algebra("m2_left_plus_right"))
def test_rational_operator_identity_and_splitting_match_the_loops(tm):
    t, m = tm
    alg = algebra(t, m)
    expected = reference_nijenhuis(frac(t), frac(m))
    assert fields(check_nijenhuis_fd(alg)) == expected
    if expected[0]:
        ns = induced_ns(alg)
        assert (ns.prec, ns.succ, ns.bullet) == reference_induced(frac(t), frac(m))
        (report,) = check_relations_fd(ns, (ns_relation_set(),))
        assert fields(report) == reference_relations((ns.prec, ns.succ, ns.bullet), ns_relation_set())
    else:
        with pytest.raises(InvalidInput):
            induced_ns(alg)


def reference_morphism(tensors, t, m, f_rows):
    """The first (op, i, j) with f(op(e_i, e_j)) != op(f e_i, f e_j), as report fields."""
    t, m, f_rows = frac(t), frac(m), frac(f_rows)
    for o, tensor in enumerate(frac(tensors)):
        for i, j in cartesian(range(DIM), repeat=2):
            lhs = apply(f_rows, tensor[i][j])
            fi, fj = (tuple(row[k] for row in f_rows) for k in (i, j))
            rhs = reference_split(t, m, fi, fj)[o]
            if lhs != rhs:
                return False, "morphism", (o, i, j), lhs, rhs
    return True, "", (), None, None


@given(rational_valid, rational_tensors, rational_random_ops, st.booleans())
def test_morphism_check_matches_the_fraction_loops(target_tm, source_t, f_rows, induced_source):
    target = algebra(*target_tm)
    if induced_source:
        source = induced_ns(target)
    else:
        source = NSAlgebraFD(DIM, source_t, source_t, scaled(frac(source_t), -1))
    f = LinearMap(f_rows)
    tensors = (source.prec, source.succ, source.bullet)
    expected = reference_morphism(tensors, *target_tm, f_rows)
    assert fields(check_morphism_kills_generators(source, target, f)) == expected


def test_the_morphism_loops_meet_both_verdicts():
    t, m = scaled(COMPONENTWISE, Fraction(1, 2)), [["3/2", 0], [0, "-2/3"]]
    target = algebra(t, m)
    source = induced_ns(target)
    identity = [[1, 0], [0, 1]]
    for f_rows, ok in ((identity, True), ([[1, 1], [0, 1]], False)):
        report = check_morphism_kills_generators(source, target, LinearMap(f_rows))
        assert report.ok is ok
        assert fields(report) == reference_morphism((source.prec, source.succ, source.bullet), t, m, f_rows)


def reference_word(t, m, columns, word):
    """A tuple-model word evaluated factor by factor, left to right."""
    value = None
    for kind, body in word:
        pieces = [columns[name] for name in body] if kind == "L" else [
            apply(m, reference_word(t, m, columns, body))
        ]
        for piece in pieces:
            value = piece if value is None else mul(t, value, piece)
    return value


@given(
    st.one_of(rational_valid, st.tuples(rational_tensors, rational_random_ops)),
    rational_random_ops,
    lincombs_strategy(max_size=4),
    st.sampled_from(["xy", "yx"]),
)
# Not associative: [x]*x*y is (4, -1) there, and (0, 1) with x*y grouped first.
@example(
    ([[[1, 2], [0, 1]], [[1, 0], [2, -1]]], [[1, 1], [0, 2]]), [[1, 0], [0, 1]], LinComb.from_word("[x]*x*y"), "xy"
)
def test_evaluation_matches_the_fraction_loops(target_tm, f_rows, a, order):
    # Both sides multiply a word's factors left to right, so they agree
    # on targets that are not associative too.
    t, m = target_tm
    names = tuple(order)
    columns = {name: tuple(frac(row[k]) for row in f_rows) for k, name in enumerate(names)}
    expected = [Fraction(0)] * DIM
    for w, c in a:
        value = reference_word(frac(t), frac(m), columns, parse_reference(w))
        expected = [x + Fraction(c) * y for x, y in zip(expected, value)]
    got = evaluate_hom(algebra(t, m), LinearMap(f_rows), a, names)
    assert got == tuple(expected)


@pytest.mark.parametrize("name", ["m2_left", "m2_right"])
def test_evaluation_matches_the_fold_on_every_short_word(name):
    # On the 2-by-2 matrices a letter or bracket multiplied out of turn
    # changes the value.
    t, m = matrix_algebra(name)
    names = default_names(4)
    columns = dict(zip(names, basis(4)))
    alg, f = algebra(t, m), identity_map(4)
    for w in words_up_to_size(names, 4):
        expected = reference_word(frac(t), frac(m), columns, parse_reference(w))
        assert evaluate_hom(alg, f, LinComb.from_word(w), names) == expected, w
