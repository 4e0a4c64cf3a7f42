"""Structure-constant algebras, induced operations, and the enveloping tools."""

from __future__ import annotations

import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from nijenhuis import cli
from nijenhuis.algebra import COORD_OPS, derived_op, operator_n, product
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
    check_nijenhuis_fd,
    check_relations_fd,
    default_names,
    enveloping_generators,
    evaluate_hom,
    induced_ns,
    truncated_ideal_membership,
)
from nijenhuis.linalg import DimensionMismatch, LinComb, Vector
from nijenhuis.relations import ndendriform_relation_set, ns_relation_set
from nijenhuis.words import WordError, letter_word, word, words_up_to_size

from conftest import (
    clear_envelope_memos,
    closure_rows,
    envelope_memos,
    ideal_candidates_strategy,
    identity_map,
    load_algebra,
    scaling_algebra,
)

E1, E2 = default_names(2)


def lc(text: str) -> LinComb:
    return LinComb.from_word(word(text))


def unit(i: int) -> tuple:
    return tuple(Fraction(1 if j == i else 0) for j in range(2))


def test_projection_fixture_passes():
    assert check_nijenhuis_fd(load_algebra("projection")).ok


@pytest.mark.parametrize("lam", [0, 1, 2, "1/2", -3])
def test_scaling_fixtures_pass(lam):
    assert check_nijenhuis_fd(scaling_algebra(lam)).ok


def test_swap_fixture_fails_with_exact_counterexample():
    report = check_nijenhuis_fd(load_algebra("swap"))
    assert not report.ok
    assert report.kind == "operator-identity"
    assert report.indices == (0, 0)
    assert report.lhs == (Fraction(0), Fraction(1))
    assert report.rhs == (Fraction(-1), Fraction(0))


def test_broken_associativity_detected():
    # perturb one structure constant of the componentwise product
    base = load_algebra("projection")
    mult = [[[c for c in base.mult[i][j]] for j in range(2)] for i in range(2)]
    mult[0][1][0] = Fraction(1)
    broken = NijenhuisAlgebraFD(2, tuple(tuple(tuple(r) for r in p) for p in mult), base.op)
    report = check_nijenhuis_fd(broken)
    assert not report.ok
    assert report.kind == "associativity"


def test_induced_ns_values_for_projection():
    m = induced_ns(load_algebra("projection"))
    assert m.prec[0][0] == unit(0)
    assert m.prec[1][1] == (Fraction(0), Fraction(0))
    assert m.succ[0][0] == unit(0)
    assert m.bullet[0][0] == (Fraction(-1), Fraction(0))
    assert m.bullet[1][1] == (Fraction(0), Fraction(0))


def test_induced_ns_requires_valid_input():
    with pytest.raises(InvalidInput):
        induced_ns(load_algebra("swap"))


def test_induced_ns_satisfies_both_relation_families():
    for alg in (load_algebra("projection"), scaling_algebra(2), scaling_algebra("1/3")):
        reports = check_relations_fd(induced_ns(alg), (ns_relation_set(), ndendriform_relation_set()))
        assert [r.ok for r in reports] == [True, True]


def test_relation_sweep_catches_perturbation():
    m = induced_ns(load_algebra("projection"))
    prec = [[[c for c in m.prec[i][j]] for j in range(2)] for i in range(2)]
    prec[0][0][1] = Fraction(1)
    broken = NSAlgebraFD(2, tuple(tuple(tuple(r) for r in p) for p in prec), m.succ, m.bullet)
    (report,) = check_relations_fd(broken, (ns_relation_set(),))
    assert not report.ok
    assert report.kind == "relation"


def test_relation_sweeps_evaluate_each_basis_triple_once(monkeypatch):
    # Six inner and 18 outer products per triple, for all the families at once.
    m = induced_ns(load_algebra("m2_left"))
    calls = []
    op_product = NSAlgebraFD.op_product

    def counted(self, op, u, v):
        calls.append(op)
        return op_product(self, op, u, v)

    monkeypatch.setattr(NSAlgebraFD, "op_product", counted)
    reports = check_relations_fd(m, (ns_relation_set(), ndendriform_relation_set()))
    assert [r.ok for r in reports] == [True, True]
    assert len(calls) <= 24 * m.dim**3 == 1536


def test_star_operation_in_fd_algebra():
    m = induced_ns(load_algebra("projection"))
    prec, succ, bullet = (m.op_product(op, unit(0), unit(0)) for op in COORD_OPS)
    # prec + succ + bullet = e1 + e1 - e1
    assert prec + succ + bullet == unit(0)


def test_enveloping_generator_count_and_values():
    m = induced_ns(load_algebra("projection"))
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
    m = induced_ns(load_algebra("projection"))
    with pytest.raises(ArityMismatch):
        enveloping_generators(m, default_names(3))


@pytest.mark.parametrize("names", [("x", "x"), ("e1", "2x"), ("", "e2")])
def test_generator_names_must_be_distinct_identifiers(names):
    alg = load_algebra("projection")
    x = LinComb.from_word(letter_word("x"))
    with pytest.raises(WordError):
        evaluate_hom(alg, identity_map(2), x, names)
    with pytest.raises(WordError):
        enveloping_generators(induced_ns(alg), names)
    with pytest.raises(WordError):
        check_morphism_kills_generators(induced_ns(alg), alg, identity_map(2), names)


def test_evaluate_hom_base_cases():
    alg = load_algebra("projection")
    f = identity_map(2)
    names = default_names(2)
    assert evaluate_hom(alg, f, lc("e1"), names) == unit(0)
    assert evaluate_hom(alg, f, lc("[e2]"), names) == (Fraction(0), Fraction(0))
    assert evaluate_hom(alg, f, lc("e1*[e1]"), names) == unit(0)
    assert evaluate_hom(alg, f, lc("[e1*e1]"), names) == unit(0)
    assert evaluate_hom(alg, f, lc("e1*e2"), names) == (Fraction(0), Fraction(0))
    combo = lc("e1").scale("1/2") - lc("[e1]").scale(3)
    assert evaluate_hom(alg, f, combo, names) == (Fraction(-5, 2), Fraction(0))


def test_evaluate_hom_is_multiplicative_and_operator_compatible():
    alg = load_algebra("projection")
    f = identity_map(2)
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
    alg = load_algebra("projection")
    f = identity_map(2)
    with pytest.raises(UnknownGenerator):
        evaluate_hom(alg, f, lc("q"), default_names(2))


def test_evaluate_hom_shape_checks():
    alg = load_algebra("projection")
    with pytest.raises(DimensionMismatch):
        evaluate_hom(alg, identity_map(3), lc("e1"), default_names(2))
    with pytest.raises(DimensionMismatch):
        evaluate_hom(alg, LinearMap([[1, 0, 0], [0, 1, 0]]), lc("e1"), default_names(2))


def test_morphism_check_passes_for_identity():
    alg = load_algebra("projection")
    m = induced_ns(alg)
    assert check_morphism_kills_generators(m, alg, identity_map(2)).ok


def test_morphism_check_detects_wrong_map():
    alg = load_algebra("projection")
    m = induced_ns(alg)
    wrong = LinearMap([[1, 1], [0, 1]])
    report = check_morphism_kills_generators(m, alg, wrong)
    assert not report.ok
    assert report.kind == "morphism"


def test_generators_die_under_evaluation():
    alg = load_algebra("projection")
    m = induced_ns(alg)
    f = identity_map(2)
    names = default_names(2)
    zero = (Fraction(0), Fraction(0))
    for g in enveloping_generators(m, names):
        assert evaluate_hom(alg, f, g, names) == zero
        assert evaluate_hom(alg, f, operator_n(g), names) == zero


def test_ideal_membership_detects_generators():
    m = induced_ns(load_algebra("projection"))
    gens = enveloping_generators(m)
    assert truncated_ideal_membership(gens, gens[0], 4) is Membership.MEMBER
    assert truncated_ideal_membership(gens, operator_n(gens[0]), 4) is Membership.MEMBER
    scaled = gens[2].scale("5/3") - gens[5]
    assert truncated_ideal_membership(gens, scaled, 4) is Membership.MEMBER


def test_ideal_membership_product_closure():
    m = induced_ns(load_algebra("projection"))
    gens = enveloping_generators(m)
    shifted = product(lc("e2"), gens[0])
    assert truncated_ideal_membership(gens, shifted, 5) is Membership.MEMBER


def test_ideal_membership_not_detected_for_letters():
    m = induced_ns(load_algebra("projection"))
    gens = enveloping_generators(m)
    assert truncated_ideal_membership(gens, lc("e1"), 4) is Membership.NOT_DETECTED
    assert truncated_ideal_membership(gens, lc("e2"), 4) is Membership.NOT_DETECTED


def test_ideal_membership_monotone_on_fixture_cases():
    m = induced_ns(load_algebra("projection"))
    gens = enveloping_generators(m)
    for candidate in (gens[0], operator_n(gens[3])):
        assert truncated_ideal_membership(gens, candidate, 4) is Membership.MEMBER
        assert truncated_ideal_membership(gens, candidate, 5) is Membership.MEMBER


def test_ideal_membership_closes_the_span():
    # Each is e1*e2 times a letter.  Queued as raw products, the closure
    # missed both at bound 4 and found them only at bound 5.
    gens = enveloping_generators(induced_ns(load_algebra("projection")))
    for text in ("e1*e2*e1", "e2*e1*e1"):
        assert truncated_ideal_membership(gens, lc(text), 4) is Membership.MEMBER


@pytest.mark.parametrize("bound, dimension", [(4, 92), (5, 396), (6, 1740)])
def test_ideal_closure_does_not_depend_on_generator_order(monkeypatch, bound, dimension):
    gens = list(enveloping_generators(induced_ns(load_algebra("projection"))))
    rows = closure_rows(monkeypatch, gens, bound)
    assert len(rows) == dimension
    orders = [gens[::-1]] + [random.Random(seed).sample(gens, len(gens)) for seed in range(3)]
    for order in orders:
        assert closure_rows(monkeypatch, order, bound) == rows


@given(data=st.data())
def test_ideal_membership_is_monotone_in_the_bound(data):
    gens = enveloping_generators(induced_ns(load_algebra("projection")))
    candidate = data.draw(ideal_candidates_strategy(words_up_to_size((E1, E2), 3), gens))
    bound = data.draw(st.sampled_from((4, 5)))
    if truncated_ideal_membership(gens, candidate, bound) is Membership.MEMBER:
        assert truncated_ideal_membership(gens, candidate, bound + 1) is Membership.MEMBER


def test_ideal_membership_zero_and_bound():
    m = induced_ns(load_algebra("projection"))
    gens = enveloping_generators(m)
    assert truncated_ideal_membership(gens, LinComb(), 3) is Membership.MEMBER
    with pytest.raises(BoundTooSmall):
        truncated_ideal_membership(gens, operator_n(gens[0]), 3)


def test_linear_map_shapes_and_application():
    f = LinearMap([[1, 2], [3, 4]])
    assert f.apply([1, 0]) == (Fraction(1), Fraction(3))
    assert f.column(1) == (Fraction(2), Fraction(4))
    with pytest.raises(DimensionMismatch):
        LinearMap([[1, 2], [3]])
    with pytest.raises(DimensionMismatch):
        f.apply([1, 2, 3])


def test_vector_inputs_are_coerced_or_rejected():
    # A Vector coerces its coordinates when it is built, and so does each
    # entry point given plain coordinates: a float, a bool or a malformed
    # string fails either way, and a wrong length is still a
    # DimensionMismatch.
    alg, f = scaling_algebra("3/2"), LinearMap([[1, "1/2"], [0, 1]])
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


def test_algebra_json_round_trips(tmp_path):
    m = induced_ns(load_algebra("projection"))
    path = tmp_path / "projection_ns.json"
    path.write_text(json.dumps(cli._ns_json(m)))
    assert cli._load_algebra(str(path)) == m


def test_tensor_shape_validation():
    with pytest.raises(ArityMismatch):
        NijenhuisAlgebraFD(2, ((), ()), identity_map(2))
    with pytest.raises(DimensionMismatch):
        NijenhuisAlgebraFD(2, load_algebra("projection").mult, identity_map(3))


MEMOS = envelope_memos()


@pytest.fixture
def cold_memos():
    clear_envelope_memos()


def diagonal(entry) -> NijenhuisAlgebraFD:
    """The componentwise product on two coordinates, with operator diag(``entry``, 3)."""
    return NijenhuisAlgebraFD(2, load_algebra("projection").mult, LinearMap([[entry, 0], [0, 3]]))


def split_diagonal(entry) -> NSAlgebraFD:
    """The split of :func:`diagonal`, built from its tensors with ``entry`` written in."""
    prec = [[[entry if i == j == k == 0 else 3 if i == j == k else 0 for k in range(2)] for j in range(2)] for i in range(2)]
    # The same numerals, negated in writing.
    bullet = [[[f"-{x}" if x else 0 for x in row] for row in plane] for plane in prec]
    return NSAlgebraFD(2, prec, prec, bullet)


def memo_counts() -> list[tuple[int, int, int]]:
    return [(i.hits, i.misses, i.currsize) for i in (memo.cache_info() for memo in MEMOS)]


def test_value_equal_algebras_share_one_memo_entry(cold_memos):
    # One numeral written three ways: the same value, so one entry per memo.
    algebras = [diagonal(entry) for entry in ("2/2", 1, "1")]
    splits = [split_diagonal(entry) for entry in ("2/2", 1, "1")]
    maps = [LinearMap([[entry, 0], [0, 1]]) for entry in ("2/2", 1, "1")]
    for objects in (algebras, splits, maps):
        assert len({hash(x) for x in objects}) == 1 and all(x == objects[0] for x in objects)
    for alg, split, f in zip(algebras, splits, maps):
        assert check_nijenhuis_fd(alg).ok
        assert induced_ns(alg) == split
        assert len(enveloping_generators(split)) == 12
        assert check_morphism_kills_generators(split, alg, f).ok
    # induced_ns checks its input once, on its one miss, so the check
    # memo meets the first algebra twice.
    assert memo_counts() == [(3, 1, 1), (2, 1, 1), (2, 1, 1), (2, 1, 1)]


def test_unequal_algebras_take_their_own_memo_entries(cold_memos):
    for entry in (1, 2, "1/2"):
        alg, split, f = diagonal(entry), split_diagonal(entry), LinearMap([[entry, 0], [0, 1]])
        check_nijenhuis_fd(alg)
        assert induced_ns(alg) == split
        enveloping_generators(split)
        check_morphism_kills_generators(split, diagonal(1), f)
    assert diagonal(1) != diagonal(2) and split_diagonal(1) != split_diagonal(2)
    assert [currsize for _, _, currsize in memo_counts()] == [3, 3, 3, 3]
    # Other names are another key for the generators, not for the morphism check.
    enveloping_generators(split_diagonal(1), ("x", "y"))
    check_morphism_kills_generators(split_diagonal(1), diagonal(1), LinearMap([[1, 0], [0, 1]]), ("x", "y"))
    assert [currsize for _, _, currsize in memo_counts()] == [3, 3, 4, 3]


def test_an_error_is_raised_on_every_call_and_never_cached(cold_memos):
    swap, m = load_algebra("swap"), induced_ns(load_algebra("projection"))
    before = memo_counts()
    for _ in range(2):
        with pytest.raises(InvalidInput):
            induced_ns(swap)
        with pytest.raises(ArityMismatch):
            enveloping_generators(m, ("x",))
        with pytest.raises(DimensionMismatch):
            check_morphism_kills_generators(m, load_algebra("projection"), identity_map(3))
    # The failing report of the swap algebra is a result, kept like any other.
    assert [currsize for _, _, currsize in memo_counts()] == [before[0][2] + 1, *(n for _, _, n in before[1:])]


def test_names_may_be_a_list():
    alg = load_algebra("projection")
    m = induced_ns(alg)
    assert enveloping_generators(m, [E1, E2]) == enveloping_generators(m, (E1, E2)) == enveloping_generators(m)
    assert check_morphism_kills_generators(m, alg, identity_map(2), [E1, E2]).ok
    with pytest.raises(ArityMismatch):
        check_morphism_kills_generators(m, alg, identity_map(2), [E1])
