"""Words the free product builds unchecked against the checked constructor.

:func:`product_words` and :func:`operator_n` build the text of each
word they return by joining canonical texts, and wrap it with no check.
Every such text must be one that the checked constructor,
:func:`from_canonical`, and the reference grammar of :mod:`conftest`
both accept, and the word rebuilt through them must equal it, with the
same hash and canonical key.
"""

from __future__ import annotations

from itertools import product as cartesian

import pytest
from hypothesis import given

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
    BracketedWord,
    EmptyInput,
    WordError,
    canonical_key,
    from_canonical,
    letter_word,
    generators,
    to_canonical,
    words_up_to_size,
)

from conftest import ALPHABET_XY, ALPHABET_XYZ, parse_reference, reference_text, words_strategy

X, Y = ALPHABET_XY
POOL = words_up_to_size(ALPHABET_XY, 3)


def assert_matches_checked(w: BracketedWord) -> None:
    assert type(w) is BracketedWord, to_canonical(w)
    checked = from_canonical(reference_text(parse_reference(w)))
    assert checked == w, to_canonical(w)
    assert hash(checked) == hash(w), to_canonical(w)
    assert canonical_key(checked) == canonical_key(w), to_canonical(w)
    assert from_canonical(to_canonical(w)) == w, to_canonical(w)


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


@given(words_strategy(ALPHABET_XYZ, max_size=4), words_strategy(ALPHABET_XYZ, max_size=4))
def test_product_words_over_three_letters_pass_the_checked_constructor(u, v):
    for w in product_words(u, v)._terms:
        assert_matches_checked(w)


def test_operator_n_words_pass_the_checked_constructor():
    for u in POOL:
        for w in operator_n(LinComb.from_word(u))._terms:
            assert_matches_checked(w)


def test_public_constructor_keeps_every_check():
    with pytest.raises(AlternationViolation):
        BracketedWord("[x]*[y]")
    with pytest.raises(AlternationViolation):
        BracketedWord("x*[[x]*[y]]")
    for empty in ("", "[]", "x*[[]]"):
        with pytest.raises(EmptyInput):
            BracketedWord(empty)
    for bad in ("x**y", "x*", "[x", "x]", "2x", "x y"):
        with pytest.raises(WordError):
            BracketedWord(bad)
    for not_text in ((letter_word(X),), ["x"], None):
        with pytest.raises(TypeError):
            BracketedWord(not_text)
    assert type(BracketedWord("x*[y]")) is BracketedWord


def test_unchecked_bracket_matches_the_checked_one():
    # N wraps the text of each word in brackets.
    for w in POOL:
        (image,) = operator_n(LinComb.from_word(w))._terms
        checked = from_canonical(f"[{w}]")
        assert image == checked, to_canonical(w)
        assert hash(image) == hash(checked), to_canonical(w)
        assert canonical_key(image) == canonical_key(checked)


def test_unchecked_letters_match_the_checked_ones():
    # A letter junction joins the two runs' texts with a star.
    for n in range(1, 5):
        for run in cartesian((X, Y), repeat=n):
            for k in range(1, n):
                (merged,) = product_words(letter_word(*run[:k]), letter_word(*run[k:]))._terms
                checked = letter_word(*run)
                assert merged == checked and checked == merged, run
                assert hash(merged) == hash(checked), run
                assert canonical_key(merged) == canonical_key(checked)


def test_the_product_cache_holds_only_bracket_junctions(monkeypatch):
    monkeypatch.setattr(algebra, "_PRODUCT_CACHE", {})
    elements = [LinComb.from_word(w) for w in POOL]
    assert first_nonassociative_triple(elements) is None
    assert first_operator_identity_failure(elements) is None
    assert algebra._PRODUCT_CACHE
    for last, first in algebra._PRODUCT_CACHE:
        for end in (last, first):
            ((kind, _),) = parse_reference(end)
            assert kind == "B", end


def test_the_product_cache_size_of_a_cold_sweep(monkeypatch):
    # One entry per distinct pair of junction brackets the sweep meets.
    monkeypatch.setattr(algebra, "_PRODUCT_CACHE", {})
    pool = words_up_to_size(generators("a", "b", "c"), 3)
    assert first_operator_identity_failure([LinComb.from_word(w) for w in pool]) is None
    assert len(algebra._PRODUCT_CACHE) == 5184
