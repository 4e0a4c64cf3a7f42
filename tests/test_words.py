"""Bracketed word construction, measures, ordering, and enumeration."""

from __future__ import annotations

import pytest
from hypothesis import given

from nijenhuis import words
from nijenhuis.words import (
    AlternationViolation,
    EmptyInput,
    MAX_NESTING,
    WordError,
    breadth,
    canonical_key,
    depth,
    generators,
    letter_count,
    letter_word,
    size,
    word,
    words_of_size,
    words_up_to_size,
)

from conftest import ALPHABET_XY, parse_reference, reference_text, words_strategy

X, Y = generators("x", "y")


def test_symbol_names_validated():
    assert generators("alpha_2") == ("alpha_2",)
    assert letter_word("alpha_2", "x", "alpha_2") == "alpha_2*x*alpha_2"
    for check in (generators, letter_word):
        with pytest.raises(EmptyInput):
            check("")
        for bad in ("2x", "a-b", "x*y", "[x]"):
            with pytest.raises(WordError, match="invalid generator name"):
                check("y", bad)


def test_generators_must_be_distinct():
    assert generators("x", "y") == (X, Y)
    with pytest.raises(WordError, match="duplicate generator names"):
        generators("x", "y", "x")


def test_empty_constructions_rejected():
    with pytest.raises(EmptyInput):
        letter_word()
    for empty in ("", "[]", "x*[y*[]]"):
        with pytest.raises(EmptyInput):
            word(empty)


def test_alternation_enforced():
    # Names joined by stars are one run, so only brackets can touch.
    assert breadth(word("x*y")) == 1
    for touching in ("[x]*[y]", "x*[[x]*[y]]*z", "[[x]]*[y]"):
        with pytest.raises(AlternationViolation):
            word(touching)
    # alternating sequences are fine
    w = word("x*[y]*z")
    assert breadth(w) == 3


def test_measures_on_nested_word():
    w = word("x*[y*[z]]*w")
    assert depth(w) == 2
    assert breadth(w) == 3
    assert letter_count(w) == 4
    assert size(w) == 6


def test_measures_on_single_factors():
    assert depth(letter_word(X, Y)) == 0
    assert depth(word("[x]")) == 1
    assert depth(word("[[x]]")) == 2
    assert breadth(word("[x]*y")) == 2
    assert breadth(word("[x*[y]]")) == 1
    assert size(word("[x*[y]]")) == 4


def test_standard_decomposition_round_trips():
    # the standard decomposition of a word is its factor sequence,
    # here read by the reference grammar of the tests
    w = word("[x]*y*[z*z]")
    factors = parse_reference(w)
    assert factors == (("B", (("L", ("x",)),)), ("L", ("y",)), ("B", (("L", ("z", "z")),)))
    assert word(reference_text(factors)) == w
    assert len(factors) == breadth(w)


@given(words_strategy())
def test_standard_decomposition_round_trips_everywhere(w):
    factors = parse_reference(w)
    assert word(reference_text(factors)) == w
    assert len(factors) == breadth(w)


def test_serialization_round_trip_examples():
    for text in ("x", "x*y", "[x]", "x*[y*[z]]*w", "[[x*y]]", "[x]*y*[z]"):
        assert str(word(text)) == text


@given(words_strategy())
def test_serialization_round_trip_everywhere(w):
    assert word(str(w)) == w


def test_from_canonical_rejects_malformed():
    for bad in ("", "*x", "x*", "[x", "x]", "[]", "x**y", "[x]*[y]", "x y"):
        with pytest.raises(WordError):
            word(bad)


def test_canonical_order_letter_count_first():
    # fewer letters first, regardless of structural complexity
    assert canonical_key(word("[[z]]")) < canonical_key(word("x*y"))
    assert canonical_key(word("x*y")) > canonical_key(word("[[z]]"))


def test_canonical_order_depth_second():
    assert canonical_key(word("x*y")) < canonical_key(word("[x]*y"))


def test_canonical_order_reflexive_and_antisymmetric():
    u, v = word("x*[y]"), word("[x]*y")
    assert canonical_key(u) == canonical_key(u)
    assert canonical_key(u) != canonical_key(v)
    assert (canonical_key(u) < canonical_key(v)) != (canonical_key(v) < canonical_key(u))


@given(words_strategy(), words_strategy(), words_strategy())
def test_canonical_order_is_total_and_transitive(a, b, c):
    ordered = sorted([a, b, c], key=canonical_key)
    assert canonical_key(ordered[0]) <= canonical_key(ordered[1])
    assert canonical_key(ordered[1]) <= canonical_key(ordered[2])
    assert canonical_key(ordered[0]) <= canonical_key(ordered[2])
    assert (canonical_key(a) == canonical_key(b)) == (a == b)


def test_enumeration_counts_over_two_letters():
    assert [len(words_of_size(ALPHABET_XY, n)) for n in (1, 2, 3, 4)] == [2, 6, 22, 86]
    assert len(words_up_to_size(ALPHABET_XY, 3)) == 30


def test_enumeration_is_canonical_and_exact():
    for n in (1, 2, 3):
        pool = words_of_size(ALPHABET_XY, n)
        assert all(size(w) == n for w in pool)
        assert list(pool) == sorted(pool, key=canonical_key)
        assert len(set(pool)) == len(pool)


def test_enumeration_size_one_and_two():
    assert [str(w) for w in words_of_size(ALPHABET_XY, 1)] == ["x", "y"]
    two = {str(w) for w in words_of_size(ALPHABET_XY, 2)}
    assert two == {"x*x", "x*y", "y*x", "y*y", "[x]", "[y]"}


def test_words_are_hashable_and_value_equal():
    a = word("x*[y]")
    b = word("".join(["x*", "[y]"]))
    assert a == b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1
    assert type(a) is str and a == "x*[y]"


def test_from_canonical_does_not_recurse(monkeypatch):
    # Far past the interpreter's recursion limit, so a parser that
    # recursed once per bracket would fail here.
    levels = 5000
    monkeypatch.setattr(words, "MAX_NESTING", levels)
    text = "[" * levels + "x" + "]" * levels
    w = word(text)
    assert w == text and (breadth(w), depth(w), size(w)) == (1, levels, levels + 1)
    with pytest.raises(WordError, match=f"nesting deeper than {levels} levels at position {levels}"):
        word("[" * (levels + 1) + "x" + "]" * (levels + 1))


def test_from_canonical_caps_nesting():
    at_cap = "[" * MAX_NESTING + "x" + "]" * MAX_NESTING
    assert depth(word(at_cap)) == MAX_NESTING
    assert str(word(at_cap)) == at_cap
    for levels in (MAX_NESTING + 1, 1200):
        with pytest.raises(WordError, match="nesting deeper than"):
            word("[" * levels + "x" + "]" * levels)
