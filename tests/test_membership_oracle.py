"""A ``member`` verdict is checked on a second path: the counit.

The identity map sends each generator of the free algebra to the basis
vector of the same name, and :func:`evaluate_hom` extends it to the
Nijenhuis algebra morphism onto the algebra itself.  That morphism kills
every enveloping generator and respects both products and the operator,
so it kills the whole ideal: a candidate that the closure calls a member
must evaluate to zero.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest
from hypothesis import event, given, strategies as st

from nijenhuis.envelope import (
    LinearMap,
    Membership,
    NijenhuisAlgebraFD,
    default_names,
    enveloping_generators,
    evaluate_hom,
    induced_ns,
    truncated_ideal_membership,
)
from nijenhuis.words import words_up_to_size

from conftest import ideal_candidates_strategy

FIXTURES = Path(__file__).parent / "fixtures"
BOUNDS = (4, 5)
NAMES = default_names(2)
# Candidate words have size at most 3, as the enveloping generators do.
WORDS = words_up_to_size(NAMES, 3)


def load(name: str) -> NijenhuisAlgebraFD:
    return NijenhuisAlgebraFD.from_json_obj(json.loads((FIXTURES / name).read_text()))


ALGEBRAS = {name: load(name) for name in ("projection.json", "scaling_rational.json", "scaling2.json")}
GENERATORS = {name: enveloping_generators(induced_ns(alg), NAMES) for name, alg in ALGEBRAS.items()}


@pytest.mark.parametrize("fixture", sorted(ALGEBRAS))
@given(data=st.data())
def test_member_verdicts_vanish_under_the_counit(fixture, data):
    alg, gens = ALGEBRAS[fixture], GENERATORS[fixture]
    candidate = data.draw(ideal_candidates_strategy(WORDS, gens))
    for bound in BOUNDS:
        verdict = truncated_ideal_membership(gens, candidate, bound)
        event(f"bound {bound}: {verdict.value}")
        if verdict is Membership.MEMBER:
            assert not any(evaluate_hom(alg, LinearMap.identity(alg.dim), candidate, NAMES))
