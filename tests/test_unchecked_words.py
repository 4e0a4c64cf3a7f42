"""Words built by the unchecked constructors against the checked ones.

:meth:`BracketedWord._of` skips the type and alternation checks for the
words the free product builds, :meth:`Letters._of` skips the checks on
the runs it merges, and :meth:`Bracket._of` skips the type check for the
brackets the operator builds.  Every such word, run or bracket must be
one the checked constructor accepts, equal to it, with the same hash and
canonical key.
"""

from __future__ import annotations

import ast
from itertools import product as cartesian
from pathlib import Path

import pytest
from hypothesis import given

import nijenhuis
from nijenhuis import algebra
from nijenhuis.algebra import (
    first_nonassociative_triple,
    first_operator_identity_failure,
    operator_n,
    product_words,
)
from nijenhuis.linalg import LinComb
from nijenhuis.words import (
    AlternationViolation,
    Bracket,
    BracketedWord,
    EmptyInput,
    Letters,
    canonical_key,
    letter_word,
    make_word,
    generators,
    to_canonical,
    words_up_to_size,
)

from conftest import ALPHABET_XY, words_strategy

X, Y = ALPHABET_XY
POOL = words_up_to_size(ALPHABET_XY, 3)


def assert_matches_checked(w: BracketedWord) -> None:
    checked = make_word(w.factors)
    assert checked == w, to_canonical(w)
    assert hash(checked) == hash(w), to_canonical(w)
    assert canonical_key(checked) == canonical_key(w), to_canonical(w)


def test_product_words_up_to_size_three_pass_the_checked_constructor():
    assert len(POOL) ** 2 == 900
    for u in POOL:
        for v in POOL:
            for w in product_words(u, v)._terms:
                assert_matches_checked(w)


@given(words_strategy(max_size=4), words_strategy(max_size=4))
def test_product_words_at_size_four_pass_the_checked_constructor(u, v):
    for w in product_words(u, v)._terms:
        assert_matches_checked(w)


def test_operator_n_words_pass_the_checked_constructor():
    for u in POOL:
        for w in operator_n(LinComb.from_word(u))._terms:
            assert_matches_checked(w)


def test_public_constructor_keeps_every_check():
    run = Letters((X,))
    with pytest.raises(AlternationViolation):
        BracketedWord((run, Letters((Y,))))
    with pytest.raises(AlternationViolation):
        BracketedWord((Bracket(letter_word(X)), Bracket(letter_word(Y))))
    with pytest.raises(EmptyInput):
        BracketedWord(())
    with pytest.raises(TypeError):
        BracketedWord((run, "y"))
    with pytest.raises(TypeError):
        BracketedWord((letter_word(X),))


def test_unchecked_bracket_matches_the_checked_one():
    for w in POOL:
        unchecked, checked = Bracket._of(w), Bracket(w)
        assert unchecked == checked, to_canonical(w)
        assert hash(unchecked) == hash(checked), to_canonical(w)
        assert canonical_key(make_word((unchecked,))) == canonical_key(make_word((checked,)))


def test_unchecked_letters_match_the_checked_ones():
    for n in range(1, 5):
        for run in cartesian((X, Y), repeat=n):
            unchecked, checked = Letters._of(run), Letters(run)
            assert unchecked == checked and checked == unchecked, run
            assert hash(unchecked) == hash(checked), run
            assert canonical_key(make_word((unchecked,))) == canonical_key(make_word((checked,)))


def _callers_of(owner: str) -> set[str]:
    """Functions in the package source that call ``<owner>._of``."""
    found = set()
    for path in Path(nijenhuis.__file__).parent.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for fn in ast.walk(tree):
            if not isinstance(fn, ast.FunctionDef):
                continue
            for node in ast.walk(fn):
                if (
                    isinstance(node, ast.Attribute)
                    and node.attr == "_of"
                    and isinstance(node.value, ast.Name)
                    and node.value.id == owner
                ):
                    found.add(f"{path.stem}.{fn.name}")
    return found


def test_only_the_free_product_uses_the_unchecked_constructor():
    assert _callers_of("BracketedWord") == {
        "algebra.product_words",
        "algebra.operator_n",
    }


def test_only_the_operator_uses_the_unchecked_bracket():
    assert _callers_of("Bracket") == {"algebra.operator_n"}


def test_only_the_free_product_uses_the_unchecked_letters():
    assert _callers_of("Letters") == {"algebra.product_words"}


def test_the_product_cache_holds_only_bracket_junctions(monkeypatch):
    monkeypatch.setattr(algebra, "_PRODUCT_CACHE", {})
    elements = [LinComb.from_word(w) for w in POOL]
    assert first_nonassociative_triple(elements) is None
    assert first_operator_identity_failure(elements) is None
    assert algebra._PRODUCT_CACHE
    for last, first in algebra._PRODUCT_CACHE:
        assert type(last) is Bracket and type(first) is Bracket


def test_the_product_cache_size_of_a_cold_sweep(monkeypatch):
    # One entry per distinct pair of junction brackets the sweep meets.
    monkeypatch.setattr(algebra, "_PRODUCT_CACHE", {})
    pool = words_up_to_size(generators("a", "b", "c"), 3)
    assert first_operator_identity_failure([LinComb.from_word(w) for w in pool]) is None
    assert len(algebra._PRODUCT_CACHE) == 5184
