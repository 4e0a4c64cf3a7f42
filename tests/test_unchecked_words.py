"""Words built by the unchecked constructor against the checked one.

:meth:`BracketedWord._of` skips the type and alternation checks for the
words the free product builds.  Every such word must be one the checked
constructor accepts, equal to it, with the same hash and canonical key.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest
from hypothesis import given

import nijenhuis
from nijenhuis.algebra import operator_n, product_words
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


def _callers_of_unchecked_constructor() -> set[str]:
    """Functions in the package source that call ``BracketedWord._of``."""
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
                    and node.value.id == "BracketedWord"
                ):
                    found.add(f"{path.stem}.{fn.name}")
    return found


def test_only_the_free_product_uses_the_unchecked_constructor():
    assert _callers_of_unchecked_constructor() == {
        "algebra.product_words",
        "algebra.operator_n",
    }
