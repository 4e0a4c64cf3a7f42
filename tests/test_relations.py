"""Relation candidates, the expansion matrix, and the solved space."""

from __future__ import annotations

from fractions import Fraction

from hypothesis import given, strategies as st

from nijenhuis import cli
from nijenhuis.algebra import COORD_OPS, OpSymbol, derived_op
from nijenhuis.linalg import LinComb, Vector, span
from nijenhuis.relations import (
    check_relations,
    monomials_at,
    ndendriform_relation_set,
    ns_relation_set,
    relation_matrix,
    relation_monomials,
    relation_sets_span_equal,
    relation_sides,
    solve_relation_space,
)
from nijenhuis.words import generators, letter_word, word

from conftest import rationals_strategy

X, Y, Z = (LinComb.from_word(letter_word(s)) for s in generators("x", "y", "z"))

# support of the 18 expanded monomials, derived once by expanding each
# parenthesization by hand and frozen here as an oracle
EXPECTED_MONOMIALS = [
    "[x]*y*[z]",
    "[[x*y*z]]",
    "[[x*y]*z]",
    "[[x*y]]*z",
    "[[x]*y*z]",
    "[[x]*y]*z",
    "[x*[y*z]]",
    "[x*[y]*z]",
    "[x*[y]]*z",
    "[x*y*[z]]",
    "x*[[y*z]]",
    "x*[[y]*z]",
    "x*[y*[z]]",
]


def coords_index(side: str, i: int, j: int) -> int:
    return (0 if side == "left" else 9) + 3 * i + j


def unit(side: str, i: int, j: int) -> Vector:
    """The candidate with 1 at ``(i, j)`` of one grid and 0 elsewhere."""
    k = coords_index(side, i, j)
    return Vector(int(n == k) for n in range(18))


def residue(rel: Vector, x: LinComb, y: LinComb, z: LinComb) -> LinComb:
    """Left side minus right side of the candidate at x, y, z."""
    lhs, rhs = relation_sides(rel, monomials_at(x, y, z))
    return lhs - rhs


def universal(rel: Vector) -> bool:
    """Whether the candidate holds on three generators; freeness makes that decisive."""
    return check_relations((rel,), [((), monomials_at(X, Y, Z))]).ok


def in_solved_space(rel: Vector) -> bool:
    """Whether the candidate lies in the span of the solved basis."""
    basis = solve_relation_space()
    return relation_sets_span_equal(basis, (*basis, rel))


def test_relation_monomials_are_the_expected_thirteen():
    got = [str(w) for w in relation_monomials()]
    assert got == EXPECTED_MONOMIALS


def test_relation_matrix_shape_and_rank():
    m = relation_matrix()
    assert len(m) == 13 and all(len(row) == 18 for row in m)
    assert len(span(m)) == 13


def test_matrix_column_for_left_prec_prec():
    # (x < y) < z expands to three depth-two words
    m = relation_matrix()
    rows = [str(w) for w in relation_monomials()]
    col = coords_index("left", 0, 0)
    expected = {
        "x*[[y]*z]": Fraction(1),
        "x*[y*[z]]": Fraction(1),
        "x*[[y*z]]": Fraction(-1),
    }
    for r, name in enumerate(rows):
        assert m[r][col] == expected.get(name, Fraction(0))


def test_matrix_row_for_deepest_right_monomial():
    # x*[y*[z]] is hit only by the two (prec, prec) parenthesizations,
    # with opposite signs
    m = relation_matrix()
    rows = [str(w) for w in relation_monomials()]
    r = rows.index("x*[y*[z]]")
    expected = {
        coords_index("left", 0, 0): Fraction(1),
        coords_index("right", 0, 0): Fraction(-1),
    }
    for c in range(18):
        assert m[r][c] == expected.get(c, Fraction(0))


def test_matrix_columns_for_succ_prec_pair():
    # both (x > y) < z and x > (y < z) produce exactly [x]*y*[z]
    m = relation_matrix()
    rows = [str(w) for w in relation_monomials()]
    r = rows.index("[x]*y*[z]")
    left_col = coords_index("left", 1, 0)
    right_col = coords_index("right", 1, 0)
    for rr in range(13):
        assert m[rr][left_col] == (Fraction(1) if rr == r else Fraction(0))
        assert m[rr][right_col] == (Fraction(-1) if rr == r else Fraction(0))


def grids(rel: Vector) -> tuple[list[list], list[list]]:
    """The left and right 3x3 grids of the candidate, read through :func:`coords_index`."""
    return tuple([[rel[coords_index(side, i, j)] for j in range(3)] for i in range(3)] for side in ("left", "right"))


def json_coords(rel: Vector) -> list[Fraction]:
    """The coordinates read back from ``cli``'s JSON grids, left rows then right rows."""
    view = cli._relation_json(rel)
    return [Fraction(x) for side in ("left", "right") for row in view[side] for x in row]


def test_unit_vectors_and_coords_round_trip():
    u = unit("left", 1, 2)
    assert u[coords_index("left", 1, 2)] == 1
    assert sum(abs(c) for c in u) == 1
    assert type(u) is Vector and len(u) == 18
    assert cli._relation_json(u)["left"][1][2] == "1"
    assert json_coords(u) == list(u)
    v = unit("right", 2, 0)
    assert v[coords_index("right", 2, 0)] == 1
    assert cli._relation_json(v)["right"][2][0] == "1"


@given(st.lists(rationals_strategy(), min_size=18, max_size=18))
def test_coords_round_trip_everywhere(coords):
    v = Vector(coords)
    assert list(v) == coords
    assert json_coords(v) == coords
    left, right = grids(v)
    assert cli._relation_json(v) == {
        "left": [[str(x) for x in row] for row in left],
        "right": [[str(x) for x in row] for row in right],
    }


def test_four_family_coordinates():
    (l1, r1), (l2, r2), (l3, r3), (l4, r4) = map(grids, ns_relation_set())
    # first relation: left (prec,prec); right (prec, anything)
    assert l1[0][0] == 1 and sum(abs(c) for row in l1 for c in row) == 1
    assert r1[0] == [Fraction(1), Fraction(1), Fraction(1)]
    # second relation pairs the two mixed monomials
    assert l2[1][0] == 1 and r2[1][0] == 1
    assert sum(abs(c) for c in ns_relation_set()[1]) == 2
    # third: the sum operation expands across the left inner slot
    assert [l3[i][1] for i in range(3)] == [1, 1, 1]
    assert r3[1][1] == 1
    # fourth: bullet outer column plus bullet inner row
    assert [l4[i][2] for i in range(3)] == [1, 1, 1]
    assert l4[2][0] == 1
    assert r4[1][2] == 1
    assert r4[2] == [Fraction(1), Fraction(1), Fraction(1)]


def test_five_family_coordinates():
    v1, v2, v3, v4, v5 = ndendriform_relation_set()
    assert v4[coords_index("left", 0, 2)] == 1 and v4[coords_index("right", 2, 1)] == 1
    assert sum(abs(c) for c in v4) == 2
    for grid in grids(v5):
        assert grid[1][2] == 1 and grid[2][0] == 1 and grid[2][2] == 1
    assert sum(abs(c) for c in v5) == 6
    # first three agree with the four-relation family
    assert (v1, v2, v3) == ns_relation_set()[:3]


def test_fourth_ns_relation_is_sum_of_last_two():
    nd = ndendriform_relation_set()
    assert ns_relation_set()[3] == nd[3] + nd[4]


def test_both_families_hold_universally():
    for rel in ns_relation_set() + ndendriform_relation_set():
        assert universal(rel)


def test_unit_candidates_all_fail():
    for i in range(3):
        for j in range(3):
            assert not universal(unit("left", i, j))
            assert not universal(unit("right", i, j))


def test_evaluate_relation_on_simple_candidate():
    # (x < y) < z alone leaves a three-term residue
    got = residue(unit("left", 0, 0), X, Y, Z)
    expected = (
        LinComb.from_word(word("x*[[y]*z]"))
        + LinComb.from_word(word("x*[y*[z]]"))
        - LinComb.from_word(word("x*[[y*z]]"))
    )
    assert got == expected


def test_evaluate_relation_matches_direct_expansion():
    rel = ns_relation_set()[1]
    lhs = derived_op(OpSymbol.PREC, derived_op(OpSymbol.SUCC, X, Y), Z)
    rhs = derived_op(OpSymbol.SUCC, X, derived_op(OpSymbol.PREC, Y, Z))
    assert residue(rel, X, Y, Z) == lhs - rhs


def test_monomials_at_gives_each_unit_candidate():
    values = monomials_at(X, Y, Z)
    for side, sign in (("left", 1), ("right", -1)):
        for i, op_i in enumerate(COORD_OPS):
            for j, op_j in enumerate(COORD_OPS):
                k = coords_index(side, i, j)
                if side == "left":
                    expected = derived_op(op_j, derived_op(op_i, X, Y), Z)
                else:
                    expected = derived_op(op_i, X, derived_op(op_j, Y, Z))
                assert values[k] == expected
                assert residue(unit(side, i, j), X, Y, Z) == values[k].scale(sign)


def test_check_relations_reports_the_first_failing_relation_and_triple():
    values = [((0,), monomials_at(X, Y, Z)), ((1,), monomials_at(Y, X, Z))]
    failing = unit("left", 0, 0)
    report = check_relations((*ns_relation_set(), failing), values)
    assert (report.ok, report.kind, report.indices) == (False, "relation", (4, 0))
    assert report.lhs - report.rhs == residue(failing, X, Y, Z)
    assert check_relations(ndendriform_relation_set(), values).ok
    assert check_relations((), values).ok and check_relations((failing,), []).ok


def test_evaluate_relation_is_trilinear():
    rel = ndendriform_relation_set()[4]
    a, b = X.scale(2), Y - Z
    assert residue(rel, a, b, Z) == (
        residue(rel, X, Y, Z).scale(2)
        - residue(rel, X, Z, Z).scale(2)
    )


def test_solved_space_dimension_and_span():
    basis = solve_relation_space()
    assert len(basis) == 5
    assert relation_sets_span_equal(basis, ndendriform_relation_set())
    assert len(span(basis)) == 5
    for v in basis:
        assert universal(v)


def test_every_relation_is_a_vector_of_18_coordinates():
    for v in (*solve_relation_space(), *ns_relation_set(), *ndendriform_relation_set()):
        assert type(v) is Vector and len(v) == 18


def test_four_family_sits_strictly_inside():
    for rel in ns_relation_set():
        assert in_solved_space(rel)
    assert len(span(ns_relation_set())) == 4
    assert not relation_sets_span_equal(ns_relation_set(), ndendriform_relation_set())


@given(
    st.lists(rationals_strategy(max_num=3, max_den=2), min_size=5, max_size=5)
)
def test_span_closed_under_combinations(coeffs):
    basis = solve_relation_space()
    coords = Vector([0] * 18)
    for c, v in zip(coeffs, basis):
        coords = coords + v.scale(c)
    assert universal(coords)
    assert in_solved_space(coords)
