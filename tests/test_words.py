"""Bracketed word construction, measures, ordering, and enumeration."""

from __future__ import annotations

import copy
import pickle

import pytest
from hypothesis import given

from nijenhuis import words
from nijenhuis.words import (
    AlternationViolation,
    Bracket,
    BracketedWord,
    EmptyInput,
    GeneratorSymbol,
    Letters,
    MAX_NESTING,
    WordError,
    breadth,
    canonical_key,
    depth,
    from_canonical,
    generators,
    letter_count,
    letter_word,
    make_word,
    size,
    to_canonical,
    words_of_size,
    words_up_to_size,
)

from conftest import ALPHABET_XY, words_strategy

X, Y, Z = generators("x", "y", "z")


def test_symbol_names_validated():
    assert GeneratorSymbol("alpha_2").name == "alpha_2"
    with pytest.raises(EmptyInput):
        GeneratorSymbol("")
    with pytest.raises(WordError):
        GeneratorSymbol("2x")
    with pytest.raises(WordError):
        GeneratorSymbol("a-b")


def test_generators_must_be_distinct():
    assert generators("x", "y") == (X, Y)
    with pytest.raises(WordError, match="duplicate generator names"):
        generators("x", "y", "x")


def test_empty_constructions_rejected():
    with pytest.raises(EmptyInput):
        Letters(())
    with pytest.raises(EmptyInput):
        make_word([])


def test_alternation_enforced():
    run = Letters((X,))
    with pytest.raises(AlternationViolation):
        make_word([run, Letters((Y,))])
    with pytest.raises(AlternationViolation):
        make_word([Bracket(letter_word(X)), Bracket(letter_word(Y))])
    # alternating sequences are fine
    w = make_word([run, Bracket(letter_word(Y)), Letters((Z,))])
    assert breadth(w) == 3


def test_measures_on_nested_word():
    w = from_canonical("x*[y*[z]]*w")
    assert depth(w) == 2
    assert breadth(w) == 3
    assert letter_count(w) == 4
    assert size(w) == 6
    assert (type(w.factors[0]), type(w.factors[-1])) == (Letters, Letters)


def test_measures_on_single_factors():
    assert depth(letter_word(X, Y)) == 0
    assert depth(from_canonical("[x]")) == 1
    assert depth(from_canonical("[[x]]")) == 2
    w = from_canonical("[x]*y")
    assert (type(w.factors[0]), type(w.factors[-1])) == (Bracket, Letters)
    assert size(from_canonical("[x*[y]]")) == 4


def test_standard_decomposition_round_trips():
    # the standard decomposition of a word is its factor sequence
    w = from_canonical("[x]*y*[z*z]")
    assert make_word(w.factors) == w
    assert len(w.factors) == breadth(w)


@given(words_strategy())
def test_standard_decomposition_round_trips_everywhere(w):
    assert make_word(w.factors) == w


def test_serialization_round_trip_examples():
    for text in ("x", "x*y", "[x]", "x*[y*[z]]*w", "[[x*y]]", "[x]*y*[z]"):
        assert to_canonical(from_canonical(text)) == text


@given(words_strategy())
def test_serialization_round_trip_everywhere(w):
    assert from_canonical(to_canonical(w)) == w


def test_from_canonical_rejects_malformed():
    for bad in ("", "*x", "x*", "[x", "x]", "[]", "x**y", "[x]*[y]", "x y"):
        with pytest.raises(WordError):
            from_canonical(bad)


def test_canonical_order_letter_count_first():
    # fewer letters first, regardless of structural complexity
    assert canonical_key(from_canonical("[[z]]")) < canonical_key(from_canonical("x*y"))
    assert canonical_key(from_canonical("x*y")) > canonical_key(from_canonical("[[z]]"))


def test_canonical_order_depth_second():
    assert canonical_key(from_canonical("x*y")) < canonical_key(from_canonical("[x]*y"))


def test_canonical_order_reflexive_and_antisymmetric():
    u, v = from_canonical("x*[y]"), from_canonical("[x]*y")
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
    assert [to_canonical(w) for w in words_of_size(ALPHABET_XY, 1)] == ["x", "y"]
    two = {to_canonical(w) for w in words_of_size(ALPHABET_XY, 2)}
    assert two == {"x*x", "x*y", "y*x", "y*y", "[x]", "[y]"}


def test_words_are_hashable_and_value_equal():
    a = from_canonical("x*[y]")
    b = make_word([Letters((X,)), Bracket(letter_word(Y))])
    assert a == b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1
    for copied in (copy.deepcopy(a), pickle.loads(pickle.dumps(a))):
        assert type(copied) is BracketedWord and copied == a
    assert repr(a) == "from_canonical('x*[y]')"


def test_from_canonical_does_not_recurse(monkeypatch):
    # Far past the interpreter's recursion limit, so a parser that
    # recursed once per bracket would fail here.
    levels = 5000
    monkeypatch.setattr(words, "MAX_NESTING", levels)
    w = from_canonical("[" * levels + "x" + "]" * levels)
    for _ in range(levels):
        (bracket,) = w.factors
        w = bracket.inner
    assert w == letter_word(X)
    with pytest.raises(WordError, match=f"nesting deeper than {levels} levels at position {levels}"):
        from_canonical("[" * (levels + 1) + "x" + "]" * (levels + 1))


def test_from_canonical_caps_nesting():
    at_cap = "[" * MAX_NESTING + "x" + "]" * MAX_NESTING
    assert depth(from_canonical(at_cap)) == MAX_NESTING
    assert to_canonical(from_canonical(at_cap)) == at_cap
    for levels in (MAX_NESTING + 1, 1200):
        with pytest.raises(WordError, match="nesting deeper than"):
            from_canonical("[" * levels + "x" + "]" * levels)
