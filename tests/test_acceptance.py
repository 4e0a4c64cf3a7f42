"""Acceptance suite: one test and one printed pass/fail line per criterion.

Every comparison is exact rational equality; there are no tolerances.
Run with ``pytest tests/test_acceptance.py -v`` (add ``-s`` to see the
per-criterion lines as they print).
"""

from __future__ import annotations

import functools
import random
import time
from fractions import Fraction

from nijenhuis.algebra import (
    OpSymbol,
    derived_op,
    first_nonassociative_triple,
    first_operator_identity_failure,
    operator_n,
    product,
)
from nijenhuis.cli import run_command
from nijenhuis.envelope import (
    Membership,
    check_ndendriform_axioms,
    check_nijenhuis_fd,
    check_ns_axioms,
    default_names,
    enveloping_generators,
    fixture_projection,
    fixture_scaling,
    fixture_swap,
    induced_ns,
    truncated_ideal_membership,
)
from nijenhuis.linalg import LinComb, rank
from nijenhuis.parser import eval_expr, parse_expr, print_canonical
from nijenhuis.relations import (
    evaluate_relation,
    ndendriform_relation_set,
    ns_relation_set,
    relation_matrix,
    relation_monomials,
    relation_sets_span_equal,
    relation_space_contains,
    solve_relation_space,
)
from nijenhuis.words import (
    generators,
    letter_word,
    size,
    words_up_to_size,
)

XY = generators("x", "y")
XYZ = generators("x", "y", "z")


def criterion(number: int, title: str):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper():
            start = time.perf_counter()
            try:
                fn()
            except BaseException:
                print(f"[criterion {number:02d}] FAIL {title}")
                raise
            elapsed = time.perf_counter() - start
            print(f"[criterion {number:02d}] PASS {title} ({elapsed:.2f}s)")

        return wrapper

    return decorate


@criterion(1, "relation space rederived from symbolic expansion")
def test_criterion_01_relation_space_rederived():
    monomials = relation_monomials()
    assert len(monomials) == 13
    matrix = relation_matrix()
    assert len(matrix) == 13 and all(len(row) == 18 for row in matrix)
    assert rank(matrix) == 13
    basis = solve_relation_space()
    assert len(basis) == 5
    assert relation_sets_span_equal(basis, ndendriform_relation_set())
    assert run_command(["solve-relspace", "--json"]) == 0


@criterion(2, "four-relation family sits strictly inside the solved space")
def test_criterion_02_four_family_containment():
    four = ns_relation_set()
    assert len(four) == 4
    for rel in four:
        assert relation_space_contains(rel)
    assert rank(r.to_coords() for r in four) == 4
    assert not relation_sets_span_equal(four, ndendriform_relation_set())


@criterion(3, "product associativity on all word triples up to size 3")
def test_criterion_03_associativity_sweep():
    elements = [LinComb.from_word(w) for w in words_up_to_size(XY, 3)]
    assert len(elements) == 30
    assert first_nonassociative_triple(elements) is None


@criterion(4, "operator identity on all word pairs up to size 3")
def test_criterion_04_operator_identity_sweep():
    elements = [LinComb.from_word(w) for w in words_up_to_size(XY, 3)]
    assert first_operator_identity_failure(elements) is None


@criterion(5, "both built-in relation families vanish on free generators")
def test_criterion_05_families_vanish():
    x, y, z = (LinComb.from_word(letter_word(s)) for s in XYZ)
    for rel in ns_relation_set() + ndendriform_relation_set():
        assert evaluate_relation(rel, x, y, z).is_zero()


@criterion(6, "product terms keep end kinds and add sizes; mixed junctions concatenate")
def test_criterion_06_product_structure_sweep():
    pool = words_up_to_size(XY, 3)
    for u in pool:
        # Whether a word starts, and ends, with a bracket factor.
        hu, tu = u.startswith("["), u.endswith("]")
        lu = LinComb.from_word(u)
        for v in pool:
            hv, tv = v.startswith("["), v.endswith("]")
            result = product(lu, LinComb.from_word(v))
            assert not result.is_zero()
            for term, _ in result:
                assert (term.startswith("["), term.endswith("]")) == (hu, tv)
                assert size(term) == size(u) + size(v)
            if tu != hv:
                items = result.items()
                assert len(items) == 1
                assert items[0][1] == Fraction(1)


@criterion(7, "sum operation is associative on word triples up to size 2")
def test_criterion_07_star_associativity():
    elements = [LinComb.from_word(w) for w in words_up_to_size(XY, 2)]

    def star(a: LinComb, b: LinComb) -> LinComb:
        return derived_op(OpSymbol.STAR, a, b)

    assert first_nonassociative_triple(elements, star) is None


@criterion(8, "structure-constant fixtures pass and fail exactly as expected")
def test_criterion_08_fixture_battery():
    assert check_nijenhuis_fd(fixture_projection()).ok
    for lam in (0, 1, 2, Fraction(1, 2)):
        assert check_nijenhuis_fd(fixture_scaling(lam)).ok
    report = check_nijenhuis_fd(fixture_swap())
    assert not report.ok
    assert report.kind == "operator-identity"
    assert report.indices == (0, 0)
    assert report.lhs == (Fraction(0), Fraction(1))
    assert report.rhs == (Fraction(-1), Fraction(0))
    split = induced_ns(fixture_projection())
    assert split.prec[0][0] == (Fraction(1), Fraction(0))
    assert split.prec[1][1] == (Fraction(0), Fraction(0))
    assert split.bullet[0][0] == (Fraction(-1), Fraction(0))
    assert check_ns_axioms(split).ok
    assert check_ndendriform_axioms(split).ok


@criterion(9, "enveloping generators die under evaluation and lie in the ideal")
def test_criterion_09_enveloping_pipeline():
    from nijenhuis.envelope import LinearMap, check_morphism_kills_generators

    algebra = fixture_projection()
    split = induced_ns(algebra)
    names = default_names(2)
    gens = enveloping_generators(split, names)
    assert len(gens) == 12
    assert check_morphism_kills_generators(split, algebra, LinearMap.identity(2), names).ok
    for g in gens:
        assert truncated_ideal_membership(gens, g, 4) is Membership.MEMBER
        assert truncated_ideal_membership(gens, operator_n(g), 4) is Membership.MEMBER
    bare = LinComb.from_word(letter_word(names[0]))
    assert truncated_ideal_membership(gens, bare, 4) is Membership.NOT_DETECTED


@criterion(10, "printing and parsing round trip on words and random combinations")
def test_criterion_10_parser_round_trip():
    declared = ("x", "y", "z")
    for word in words_up_to_size(XY, 4):
        value = LinComb.from_word(word)
        assert eval_expr(parse_expr(print_canonical(value)), declared) == value
    rng = random.Random(0)
    pool = words_up_to_size(XYZ, 4)
    for _ in range(100):
        terms = []
        for _ in range(rng.randint(1, 4)):
            coeff = Fraction(rng.randint(-8, 8), rng.randint(1, 6))
            terms.append((rng.choice(pool), coeff))
        value = LinComb(terms)
        printed = print_canonical(value)
        assert eval_expr(parse_expr(printed), declared) == value
        assert print_canonical(eval_expr(parse_expr(printed), declared)) == printed
