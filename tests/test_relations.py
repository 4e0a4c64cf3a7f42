"""Relation candidates, the expansion matrix, and the solved space."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from nijenhuis.algebra import OpSymbol, derived_op
from nijenhuis.linalg import LinComb, Vector, rank
from nijenhuis.relations import (
    RelVector,
    check_relation_universal,
    evaluate_relation,
    ndendriform_relation_set,
    ns_relation_set,
    relation_matrix,
    relation_monomials,
    relation_sets_span_equal,
    relation_space_contains,
    solve_relation_space,
)
from nijenhuis.words import BracketedWord, generators, letter_word

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


def test_relation_monomials_are_the_expected_thirteen():
    got = [str(w) for w in relation_monomials()]
    assert got == EXPECTED_MONOMIALS


def test_relation_matrix_shape_and_rank():
    m = relation_matrix()
    assert len(m) == 13 and all(len(row) == 18 for row in m)
    assert rank(m) == 13


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


def test_unit_vectors_and_coords_round_trip():
    u = RelVector.unit_left(1, 2)
    assert u.left[1][2] == 1
    assert sum(abs(c) for c in u.to_coords()) == 1
    assert type(u.to_coords()) is Vector
    assert RelVector.from_coords(u.to_coords()) == u
    v = RelVector.unit_right(2, 0)
    assert v.to_coords()[coords_index("right", 2, 0)] == 1


@given(st.lists(rationals_strategy(), min_size=18, max_size=18))
def test_coords_round_trip_everywhere(coords):
    v = RelVector.from_coords(coords)
    assert list(v.to_coords()) == coords


def test_relvector_json_round_trip():
    v = ns_relation_set()[3]
    assert RelVector.from_json_obj(v.to_json_obj()) == v


def test_relvector_json_grids_must_be_3x3():
    good = [["0", "0", "0"]] * 3
    for bad in ([["0", "0", "0"]] * 2, [["0", "0", "0", "0"]] * 3):
        for obj in ({"left": bad, "right": good}, {"left": good, "right": bad}):
            with pytest.raises(ValueError, match="3x3"):
                RelVector.from_json_obj(obj)
    with pytest.raises(ValueError, match="18 coordinates"):
        RelVector.from_coords([0] * 17)


def test_four_family_coordinates():
    r1, r2, r3, r4 = ns_relation_set()
    # first relation: left (prec,prec); right (prec, anything)
    assert r1.left[0][0] == 1 and sum(abs(c) for row in r1.left for c in row) == 1
    assert r1.right[0] == (Fraction(1), Fraction(1), Fraction(1))
    # second relation pairs the two mixed monomials
    assert r2.left[1][0] == 1 and r2.right[1][0] == 1
    assert sum(abs(c) for c in r2.to_coords()) == 2
    # third: the sum operation expands across the left inner slot
    assert [r3.left[i][1] for i in range(3)] == [1, 1, 1]
    assert r3.right[1][1] == 1
    # fourth: bullet outer column plus bullet inner row
    assert [r4.left[i][2] for i in range(3)] == [1, 1, 1]
    assert r4.left[2][0] == 1
    assert r4.right[1][2] == 1
    assert r4.right[2] == (Fraction(1), Fraction(1), Fraction(1))


def test_five_family_coordinates():
    v1, v2, v3, v4, v5 = ndendriform_relation_set()
    assert v4.left[0][2] == 1 and v4.right[2][1] == 1
    assert sum(abs(c) for c in v4.to_coords()) == 2
    for grid in (v5.left, v5.right):
        assert grid[1][2] == 1 and grid[2][0] == 1 and grid[2][2] == 1
    assert sum(abs(c) for c in v5.to_coords()) == 6
    # first three agree with the four-relation family
    assert (v1, v2, v3) == ns_relation_set()[:3]


def test_fourth_ns_relation_is_sum_of_last_two():
    nd = ndendriform_relation_set()
    assert ns_relation_set()[3] == nd[3] + nd[4]


def test_both_families_hold_universally():
    for rel in ns_relation_set() + ndendriform_relation_set():
        assert check_relation_universal(rel)


def test_unit_candidates_all_fail():
    for i in range(3):
        for j in range(3):
            assert not check_relation_universal(RelVector.unit_left(i, j))
            assert not check_relation_universal(RelVector.unit_right(i, j))


def test_evaluate_relation_on_simple_candidate():
    # (x < y) < z alone leaves a three-term residue
    residue = evaluate_relation(RelVector.unit_left(0, 0), X, Y, Z)
    expected = (
        LinComb.from_word(BracketedWord("x*[[y]*z]"))
        + LinComb.from_word(BracketedWord("x*[y*[z]]"))
        - LinComb.from_word(BracketedWord("x*[[y*z]]"))
    )
    assert residue == expected


def test_evaluate_relation_matches_direct_expansion():
    rel = ns_relation_set()[1]
    lhs = derived_op(OpSymbol.PREC, derived_op(OpSymbol.SUCC, X, Y), Z)
    rhs = derived_op(OpSymbol.SUCC, X, derived_op(OpSymbol.PREC, Y, Z))
    assert evaluate_relation(rel, X, Y, Z) == lhs - rhs


def test_evaluate_relation_is_trilinear():
    rel = ndendriform_relation_set()[4]
    a, b = X.scale(2), Y - Z
    assert evaluate_relation(rel, a, b, Z) == (
        evaluate_relation(rel, X, Y, Z).scale(2)
        - evaluate_relation(rel, X, Z, Z).scale(2)
    )


def test_solved_space_dimension_and_span():
    basis = solve_relation_space()
    assert len(basis) == 5
    assert relation_sets_span_equal(basis, ndendriform_relation_set())
    assert rank(v.to_coords() for v in basis) == 5
    for v in basis:
        assert check_relation_universal(v)


def test_four_family_sits_strictly_inside():
    for rel in ns_relation_set():
        assert relation_space_contains(rel)
    assert rank(r.to_coords() for r in ns_relation_set()) == 4
    assert not relation_sets_span_equal(ns_relation_set(), ndendriform_relation_set())


@given(
    st.lists(rationals_strategy(max_num=3, max_den=2), min_size=5, max_size=5)
)
def test_span_closed_under_combinations(coeffs):
    basis = solve_relation_space()
    combo = RelVector.zero()
    for c, v in zip(coeffs, basis):
        combo = combo + v.scale(c)
    assert check_relation_universal(combo)
    assert relation_space_contains(combo)


def test_from_coords_validates_length():
    with pytest.raises(ValueError):
        RelVector.from_coords([1] * 17)
