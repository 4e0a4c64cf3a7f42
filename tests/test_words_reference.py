"""Words read from their text against the reference tuple model.

The reference functions below walk the tuple model of
:mod:`conftest`, which a recursive-descent reading of the text builds,
and share no code with :mod:`nijenhuis.words`, which checks a text in
one scan and reads the letter count, the size, the depth and the
breadth off it.
"""

from __future__ import annotations

from itertools import product as cartesian

import pytest
from hypothesis import example, given, settings, strategies as st

from nijenhuis.algebra import operator_n, product_words
from nijenhuis.linalg import LinComb
from nijenhuis.words import (
    BracketedWord,
    WordError,
    breadth,
    canonical_key,
    depth,
    generators,
    letter_count,
    size,
    words_of_size,
    words_up_to_size,
)

from conftest import ALPHABET_XY, parse_reference, reference_text, reference_words, words_strategy


def ref_letter_count(w: tuple) -> int:
    return sum(len(body) if kind == "L" else ref_letter_count(body) for kind, body in w)


def ref_depth(w: tuple) -> int:
    return max(0 if kind == "L" else 1 + ref_depth(body) for kind, body in w)


def ref_size(w: tuple) -> int:
    return sum(len(body) if kind == "L" else 1 + ref_size(body) for kind, body in w)


def ref_key(w: tuple) -> tuple[int, int, str]:
    return ref_letter_count(w), ref_depth(w), reference_text(w)


MEASURES = (
    (letter_count, ref_letter_count),
    (depth, ref_depth),
    (size, ref_size),
    (breadth, len),
    (str, reference_text),
)


def fresh(w):
    """An equal word, its text rebuilt from the tuple model and checked anew."""
    return BracketedWord(reference_text(parse_reference(w)))


def check_measures(w, order=MEASURES) -> None:
    model = parse_reference(w)
    for measure, reference in order:
        assert measure(w) == reference(model), (measure.__name__, reference_text(model))
    assert canonical_key(w) == ref_key(model)
    assert BracketedWord(str(w)) == w


def test_measures_match_reference_up_to_size_five():
    pool = words_up_to_size(ALPHABET_XY, 5)
    assert len(pool) == 466
    for w in pool:
        check_measures(w)
        check_measures(fresh(w))


def test_measures_match_reference_on_product_terms():
    pool = words_up_to_size(ALPHABET_XY, 3)
    for u in pool:
        for w in operator_n(LinComb.from_word(u))._terms:
            check_measures(w)
        for v in pool:
            for w in product_words(u, v)._terms:
                check_measures(w)


@given(words_strategy(max_size=6), st.permutations(MEASURES))
def test_measures_match_reference_at_size_six(w, order):
    check_measures(fresh(w), order)


@given(words_strategy(generators("e1", "ab_2", "Z"), max_size=4))
def test_measures_match_reference_on_long_names(w):
    check_measures(fresh(w))


@pytest.mark.parametrize("alphabet", [ALPHABET_XY, generators("e1", "ab_2", "Z")])
def test_enumeration_matches_reference_up_to_size_five(alphabet):
    for n in range(1, 6 if len(alphabet) == 2 else 4):
        expected = sorted(reference_words(alphabet, n), key=ref_key)
        assert list(words_of_size(alphabet, n)) == [reference_text(w) for w in expected]


PIECES = ("x", "y", "ab_2", "*", "[", "]")
TEXT_PIECES = st.sampled_from(PIECES)


def verdict(read, text: str):
    try:
        return read(text)
    except WordError as exc:
        return type(exc)


def assert_same_verdict(text: str) -> None:
    model = verdict(parse_reference, text)
    word = verdict(BracketedWord, text)
    if isinstance(model, tuple):
        assert word == reference_text(model) == text
    else:
        assert word is model, text


def test_from_canonical_matches_the_grammar_on_all_short_texts():
    for n in range(6):
        for pieces in cartesian(PIECES, repeat=n):
            assert_same_verdict("".join(pieces))


@settings(max_examples=300)
@given(st.lists(TEXT_PIECES, max_size=14).map("".join))
@example("")
@example("[]")
@example("x*[y]*[ab_2]")
@example("[[x]*[y]]")
@example("[x]*y*[[]]")
@example("x*[y*[ab_2]]*x")
def test_from_canonical_matches_the_grammar(text):
    assert_same_verdict(text)


@settings(max_examples=300)
@given(words_strategy(max_size=5), st.integers(0, 40), TEXT_PIECES)
def test_from_canonical_matches_the_grammar_near_words(w, at, piece):
    # One piece put into a word: mostly a fault, sometimes another word.
    assert_same_verdict(w[:at] + piece + w[at:])
