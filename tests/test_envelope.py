"""Structure-constant algebras, induced operations, and the enveloping tools."""

from __future__ import annotations

import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from nijenhuis import envelope
from nijenhuis.algebra import OpSymbol, derived_op, operator_n, product
from nijenhuis.envelope import (
    ArityMismatch,
    BoundTooSmall,
    InvalidInput,
    LinearMap,
    Membership,
    NijenhuisAlgebraFD,
    NSAlgebraFD,
    UnknownGenerator,
    check_morphism_kills_generators,
    check_ndendriform_axioms,
    check_nijenhuis_fd,
    check_ns_axioms,
    default_names,
    enveloping_generators,
    evaluate_hom,
    fixture_projection,
    fixture_scaling,
    fixture_swap,
    induced_ns,
    truncated_ideal_membership,
)
from nijenhuis.linalg import DimensionMismatch, LinComb, RowSpace, Vector
from nijenhuis.words import WordError, letter_word, word, words_up_to_size

from conftest import ideal_candidates_strategy

E1, E2 = default_names(2)


def lc(text: str) -> LinComb:
    return LinComb.from_word(word(text))


def unit(i: int) -> tuple:
    return tuple(Fraction(1 if j == i else 0) for j in range(2))


def test_projection_fixture_passes():
    assert check_nijenhuis_fd(fixture_projection()).ok


@pytest.mark.parametrize("lam", [0, 1, 2, "1/2", -3])
def test_scaling_fixtures_pass(lam):
    assert check_nijenhuis_fd(fixture_scaling(lam)).ok


def test_swap_fixture_fails_with_exact_counterexample():
    report = check_nijenhuis_fd(fixture_swap())
    assert not report.ok
    assert report.kind == "operator-identity"
    assert report.indices == (0, 0)
    assert report.lhs == (Fraction(0), Fraction(1))
    assert report.rhs == (Fraction(-1), Fraction(0))


def test_broken_associativity_detected():
    # perturb one structure constant of the componentwise product
    base = fixture_projection()
    mult = [[[c for c in base.mult[i][j]] for j in range(2)] for i in range(2)]
    mult[0][1][0] = Fraction(1)
    broken = NijenhuisAlgebraFD(2, tuple(tuple(tuple(r) for r in p) for p in mult), base.op)
    report = check_nijenhuis_fd(broken)
    assert not report.ok
    assert report.kind == "associativity"


def test_induced_ns_values_for_projection():
    m = induced_ns(fixture_projection())
    assert m.prec[0][0] == unit(0)
    assert m.prec[1][1] == (Fraction(0), Fraction(0))
    assert m.succ[0][0] == unit(0)
    assert m.bullet[0][0] == (Fraction(-1), Fraction(0))
    assert m.bullet[1][1] == (Fraction(0), Fraction(0))


def test_induced_ns_requires_valid_input():
    with pytest.raises(InvalidInput):
        induced_ns(fixture_swap())


def test_induced_ns_satisfies_both_relation_families():
    for alg in (fixture_projection(), fixture_scaling(2), fixture_scaling("1/3")):
        m = induced_ns(alg)
        assert check_ns_axioms(m).ok
        assert check_ndendriform_axioms(m).ok


def test_relation_sweep_catches_perturbation():
    m = induced_ns(fixture_projection())
    prec = [[[c for c in m.prec[i][j]] for j in range(2)] for i in range(2)]
    prec[0][0][1] = Fraction(1)
    broken = NSAlgebraFD(2, tuple(tuple(tuple(r) for r in p) for p in prec), m.succ, m.bullet)
    report = check_ns_axioms(broken)
    assert not report.ok
    assert report.kind == "relation"


def test_star_operation_in_fd_algebra():
    m = induced_ns(fixture_projection())
    star = m.op_product(OpSymbol.STAR, unit(0), unit(0))
    # prec + succ + bullet = e1 + e1 - e1
    assert star == unit(0)


def test_enveloping_generator_count_and_values():
    m = induced_ns(fixture_projection())
    gens = enveloping_generators(m)
    assert len(gens) == 3 * m.dim * m.dim
    assert gens[0] == lc("e1") - lc("e1*[e1]")
    assert gens[1] == lc("e1") - lc("[e1]*e1")
    assert gens[2] == -lc("e1") + lc("[e1*e1]")
    # mixed pair (0, 1): all structure constants vanish
    assert gens[3] == -lc("e1*[e2]")
    assert gens[4] == -lc("[e1]*e2")
    assert gens[5] == lc("[e1*e2]")


def test_enveloping_generators_name_arity():
    m = induced_ns(fixture_projection())
    with pytest.raises(ArityMismatch):
        enveloping_generators(m, default_names(3))


@pytest.mark.parametrize("names", [("x", "x"), ("e1", "2x"), ("", "e2")])
def test_generator_names_must_be_distinct_identifiers(names):
    alg = fixture_projection()
    x = LinComb.from_word(letter_word("x"))
    with pytest.raises(WordError):
        evaluate_hom(alg, LinearMap.identity(2), x, names)
    with pytest.raises(WordError):
        enveloping_generators(induced_ns(alg), names)
    with pytest.raises(WordError):
        check_morphism_kills_generators(induced_ns(alg), alg, LinearMap.identity(2), names)


def test_evaluate_hom_base_cases():
    alg = fixture_projection()
    f = LinearMap.identity(2)
    names = default_names(2)
    assert evaluate_hom(alg, f, lc("e1"), names) == unit(0)
    assert evaluate_hom(alg, f, lc("[e2]"), names) == (Fraction(0), Fraction(0))
    assert evaluate_hom(alg, f, lc("e1*[e1]"), names) == unit(0)
    assert evaluate_hom(alg, f, lc("[e1*e1]"), names) == unit(0)
    assert evaluate_hom(alg, f, lc("e1*e2"), names) == (Fraction(0), Fraction(0))
    combo = lc("e1").scale("1/2") - lc("[e1]").scale(3)
    assert evaluate_hom(alg, f, combo, names) == (Fraction(-5, 2), Fraction(0))


def test_evaluate_hom_is_multiplicative_and_operator_compatible():
    alg = fixture_projection()
    f = LinearMap.identity(2)
    names = default_names(2)

    pool = words_up_to_size(names, 2)
    for u in pool:
        lu = LinComb.from_word(u)
        image_u = evaluate_hom(alg, f, lu, names)
        assert evaluate_hom(alg, f, operator_n(lu), names) == alg.apply_op(image_u)
        for v in pool:
            lv = LinComb.from_word(v)
            image_v = evaluate_hom(alg, f, lv, names)
            assert evaluate_hom(alg, f, product(lu, lv), names) == alg.mul(image_u, image_v)


def test_evaluate_hom_unknown_generator():
    alg = fixture_projection()
    f = LinearMap.identity(2)
    with pytest.raises(UnknownGenerator):
        evaluate_hom(alg, f, lc("q"), default_names(2))


def test_evaluate_hom_shape_checks():
    alg = fixture_projection()
    with pytest.raises(DimensionMismatch):
        evaluate_hom(alg, LinearMap.identity(3), lc("e1"), default_names(2))
    with pytest.raises(DimensionMismatch):
        evaluate_hom(alg, LinearMap.from_rows([[1, 0, 0], [0, 1, 0]]), lc("e1"), default_names(2))


def test_morphism_check_passes_for_identity():
    alg = fixture_projection()
    m = induced_ns(alg)
    assert check_morphism_kills_generators(m, alg, LinearMap.identity(2)).ok


def test_morphism_check_detects_wrong_map():
    alg = fixture_projection()
    m = induced_ns(alg)
    wrong = LinearMap.from_rows([[1, 1], [0, 1]])
    report = check_morphism_kills_generators(m, alg, wrong)
    assert not report.ok
    assert report.kind == "morphism"


def test_generators_die_under_evaluation():
    alg = fixture_projection()
    m = induced_ns(alg)
    f = LinearMap.identity(2)
    names = default_names(2)
    zero = (Fraction(0), Fraction(0))
    for g in enveloping_generators(m, names):
        assert evaluate_hom(alg, f, g, names) == zero
        assert evaluate_hom(alg, f, operator_n(g), names) == zero


def test_ideal_membership_detects_generators():
    m = induced_ns(fixture_projection())
    gens = enveloping_generators(m)
    assert truncated_ideal_membership(gens, gens[0], 4) is Membership.MEMBER
    assert truncated_ideal_membership(gens, operator_n(gens[0]), 4) is Membership.MEMBER
    scaled = gens[2].scale("5/3") - gens[5]
    assert truncated_ideal_membership(gens, scaled, 4) is Membership.MEMBER


def test_ideal_membership_product_closure():
    m = induced_ns(fixture_projection())
    gens = enveloping_generators(m)
    shifted = product(lc("e2"), gens[0])
    assert truncated_ideal_membership(gens, shifted, 5) is Membership.MEMBER


def test_ideal_membership_not_detected_for_letters():
    m = induced_ns(fixture_projection())
    gens = enveloping_generators(m)
    assert truncated_ideal_membership(gens, lc("e1"), 4) is Membership.NOT_DETECTED
    assert truncated_ideal_membership(gens, lc("e2"), 4) is Membership.NOT_DETECTED


def test_ideal_membership_monotone_on_fixture_cases():
    m = induced_ns(fixture_projection())
    gens = enveloping_generators(m)
    for candidate in (gens[0], operator_n(gens[3])):
        assert truncated_ideal_membership(gens, candidate, 4) is Membership.MEMBER
        assert truncated_ideal_membership(gens, candidate, 5) is Membership.MEMBER


def test_ideal_membership_closes_the_span():
    # Each is e1*e2 times a letter.  Queued as raw products, the closure
    # missed both at bound 4 and found them only at bound 5.
    gens = enveloping_generators(induced_ns(fixture_projection()))
    for text in ("e1*e2*e1", "e2*e1*e1"):
        assert truncated_ideal_membership(gens, lc(text), 4) is Membership.MEMBER


def closure_rows(monkeypatch, gens, bound: int) -> dict:
    """The reduced rows the membership closure of ``e1`` keeps."""
    spaces = []

    class Recorded(RowSpace):
        def __init__(self, key):
            super().__init__(key)
            spaces.append(self)

    monkeypatch.setattr(envelope, "RowSpace", Recorded)
    truncated_ideal_membership(gens, lc("e1"), bound)
    (space,) = spaces
    return space.rows


@pytest.mark.parametrize("bound, dimension", [(4, 92), (5, 396), (6, 1740)])
def test_ideal_closure_does_not_depend_on_generator_order(monkeypatch, bound, dimension):
    gens = list(enveloping_generators(induced_ns(fixture_projection())))
    rows = closure_rows(monkeypatch, gens, bound)
    assert len(rows) == dimension
    orders = [gens[::-1]] + [random.Random(seed).sample(gens, len(gens)) for seed in range(3)]
    for order in orders:
        assert closure_rows(monkeypatch, order, bound) == rows


@given(data=st.data())
def test_ideal_membership_is_monotone_in_the_bound(data):
    gens = enveloping_generators(induced_ns(fixture_projection()))
    candidate = data.draw(ideal_candidates_strategy(words_up_to_size((E1, E2), 3), gens))
    bound = data.draw(st.sampled_from((4, 5)))
    if truncated_ideal_membership(gens, candidate, bound) is Membership.MEMBER:
        assert truncated_ideal_membership(gens, candidate, bound + 1) is Membership.MEMBER


def test_ideal_membership_zero_and_bound():
    m = induced_ns(fixture_projection())
    gens = enveloping_generators(m)
    assert truncated_ideal_membership(gens, LinComb(), 3) is Membership.MEMBER
    with pytest.raises(BoundTooSmall):
        truncated_ideal_membership(gens, operator_n(gens[0]), 3)


def test_linear_map_shapes_and_application():
    f = LinearMap.from_rows([[1, 2], [3, 4]])
    assert f.apply([1, 0]) == (Fraction(1), Fraction(3))
    assert f.column(1) == (Fraction(2), Fraction(4))
    with pytest.raises(DimensionMismatch):
        LinearMap(2, 2, ((Fraction(1),),))
    with pytest.raises(DimensionMismatch):
        f.apply([1, 2, 3])


def test_vector_inputs_are_coerced_or_rejected():
    # A Vector coerces its coordinates when it is built, and so does each
    # entry point given plain coordinates: a float, a bool or a malformed
    # string fails either way, and a wrong length is still a
    # DimensionMismatch.
    alg, f = fixture_scaling("3/2"), LinearMap.from_rows([[1, "1/2"], [0, 1]])
    assert alg.mul(Vector(("1/2", "2")), Vector(("4", 1))) == (2, 2)
    assert alg.apply_op(Vector(("2/3", "-2"))) == (1, -3)
    assert f.apply(Vector(("1", "2"))) == (2, 2)
    bads = ((1.5, 0), (True, 0), ("x", 0))
    for bad in bads:
        with pytest.raises((TypeError, ValueError)):
            Vector(bad)
    for call in (alg.apply_op, f.apply, lambda v: alg.mul(v, (1, 1)), lambda v: alg.mul((1, 1), v)):
        with pytest.raises(DimensionMismatch):
            call(Vector((1, 2, 3)))
        for bad in bads:
            with pytest.raises((TypeError, ValueError)):
                call(bad)


def test_algebra_json_round_trips():
    alg = fixture_projection()
    again = NijenhuisAlgebraFD.from_json_obj(json.loads(json.dumps(alg.to_json_obj())))
    assert again == alg
    m = induced_ns(alg)
    m_again = NSAlgebraFD.from_json_obj(json.loads(json.dumps(m.to_json_obj())))
    assert m_again == m


def test_tensor_shape_validation():
    with pytest.raises(ArityMismatch):
        NijenhuisAlgebraFD(2, ((), ()), LinearMap.identity(2))
    with pytest.raises(DimensionMismatch):
        NijenhuisAlgebraFD(2, fixture_projection().mult, LinearMap.identity(3))
