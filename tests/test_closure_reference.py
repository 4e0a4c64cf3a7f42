"""The membership closure against a closure that multiplies by every word.

:func:`truncated_ideal_membership` multiplies each kept row, on either
side, by the letters and the single brackets ``[w]`` alone.  The
reference below keeps the older move set: the product with every word
that fits, on either side, and the operator.  Both keep the reduced rows
of one span, so the rows and the verdicts must agree.
"""

from __future__ import annotations

import random

import pytest

from nijenhuis.algebra import operator_n, product
from nijenhuis.envelope import (
    Membership,
    NSAlgebraFD,
    default_names,
    enveloping_generators,
    induced_ns,
    truncated_ideal_membership,
)
from nijenhuis.linalg import LinComb, RowSpace
from nijenhuis.words import canonical_key, size, words_up_to_size

from conftest import closure_rows, load_algebra

NAMES = default_names(2)


def load_generators(name: str) -> tuple[LinComb, ...]:
    alg = load_algebra(name)
    return enveloping_generators(alg if isinstance(alg, NSAlgebraFD) else induced_ns(alg), NAMES)


GENERATORS = {
    f"{name}.json": load_generators(name) for name in ("projection", "scaling_rational", "projection_ns")
}


def reference_closure(gens, bound: int) -> RowSpace:
    """The closure under the operator and the product with every word that fits, on either side."""
    space = RowSpace(key=lambda w: (size(w), canonical_key(w)))
    fresh = []

    def keep(element: LinComb) -> None:
        if element and space.add(element._terms):
            fresh.append(next(reversed(space.rows)))

    for g in gens:
        if g and max(map(size, g._terms)) <= bound:
            keep(g)
    while fresh:
        pivot = fresh.pop()
        room = bound - size(pivot)
        row = LinComb(space.rows[pivot].items())
        if room:
            keep(operator_n(row))
        for w in words_up_to_size(NAMES, room):
            m = LinComb.from_word(w)
            keep(product(m, row))
            keep(product(row, m))
    return space


@pytest.mark.parametrize("fixture", sorted(GENERATORS))
def test_letters_and_single_brackets_keep_the_rows_of_every_word(monkeypatch, fixture):
    gens = GENERATORS[fixture]
    for bound in range(1, 7):
        assert closure_rows(monkeypatch, gens, bound) == reference_closure(gens, bound).rows, bound


def coefficient(rng: random.Random) -> str:
    return f"{rng.choice((-3, -2, -1, 1, 2, 3))}/{rng.randint(1, 3)}"


def random_candidate(rng: random.Random, gens) -> LinComb:
    """Up to two words of size at most 3 and up to three generators, each
    perhaps multiplied by a letter or put under the operator, with small
    nonzero rational coefficients."""
    candidate = LinComb()
    words = rng.sample(words_up_to_size(NAMES, 3), rng.randint(0, 2))
    for w in words:
        candidate = candidate + LinComb.from_word(w).scale(coefficient(rng))
    for g in rng.sample(gens, rng.randint(0 if words else 1, 3)):
        letter = LinComb.from_word(rng.choice(NAMES))
        g = rng.choice([g, operator_n(g), product(letter, g), product(g, letter)])
        candidate = candidate + g.scale(coefficient(rng))
    return candidate


def test_verdicts_match_the_closure_by_every_word():
    verdicts = []
    for k, (fixture, gens) in enumerate(sorted(GENERATORS.items())):
        rng = random.Random(k)
        candidates = [random_candidate(rng, gens) for _ in range(70)]
        for bound in (4, 5):
            reference = reference_closure(gens, bound)
            for candidate in candidates:
                verdict = truncated_ideal_membership(gens, candidate, bound)
                assert (verdict is Membership.MEMBER) == (candidate._terms in reference), (fixture, bound, candidate)
                verdicts.append(verdict)
    assert len(verdicts) == 420
    assert 100 < verdicts.count(Membership.MEMBER) < 320
