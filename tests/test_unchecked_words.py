"""Words the free product builds unchecked against the checked constructor.

:func:`product`, the word product ``_product_terms`` and :func:`operator_n`
build the text of each word they return by joining canonical texts, with no
check.  Every such text must be an exact ``str`` that the checked
constructor, :func:`word`, and the reference grammar of :mod:`conftest`
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
    product,
)
from nijenhuis.linalg import LinComb
from nijenhuis.parser import eval_expr, parse_expr
from nijenhuis.relations import relation_monomials
from nijenhuis.words import (
    AlternationViolation,
    EmptyInput,
    WordError,
    canonical_key,
    generators,
    letter_word,
    word,
    words_of_size,
    words_up_to_size,
)

from conftest import ALPHABET_XY, ALPHABET_XYZ, parse_reference, reference_text, words_strategy

X, Y = ALPHABET_XY
POOL = words_up_to_size(ALPHABET_XY, 3)


def assert_matches_checked(w: str) -> None:
    assert type(w) is str, repr(w)
    checked = word(reference_text(parse_reference(w)))
    assert checked == w, w
    assert hash(checked) == hash(w), w
    assert canonical_key(checked) == canonical_key(w), w
    assert word(w) == w, w


def test_product_words_up_to_size_three_pass_the_checked_constructor():
    assert len(POOL) ** 2 == 900
    for u in POOL:
        for v in POOL:
            for w in algebra._product_terms(u, v):
                assert_matches_checked(w)


@given(words_strategy(max_size=4), words_strategy(max_size=4))
def test_product_words_at_size_four_pass_the_checked_constructor(u, v):
    for w in algebra._product_terms(u, v):
        assert_matches_checked(w)


@given(words_strategy(ALPHABET_XYZ, max_size=4), words_strategy(ALPHABET_XYZ, max_size=4))
def test_product_words_over_three_letters_pass_the_checked_constructor(u, v):
    for w in algebra._product_terms(u, v):
        assert_matches_checked(w)


def test_operator_n_words_pass_the_checked_constructor():
    for u in POOL:
        for w in operator_n(LinComb.from_word(u))._terms:
            assert_matches_checked(w)


class _Text(str):
    """A str subclass, to check that words come back as exact strings."""


def test_public_constructor_keeps_every_check():
    with pytest.raises(AlternationViolation):
        word("[x]*[y]")
    with pytest.raises(AlternationViolation):
        word("x*[[x]*[y]]")
    for empty in ("", "[]", "x*[[]]"):
        with pytest.raises(EmptyInput):
            word(empty)
    for bad in ("x**y", "x*", "[x", "x]", "2x", "x y"):
        with pytest.raises(WordError):
            word(bad)
        with pytest.raises(WordError):
            word(_Text(bad))
    for not_text in ((letter_word(X),), ["x"], None, b"x"):
        with pytest.raises(TypeError):
            word(not_text)
    assert type(word("x*[y]")) is str
    built = word(_Text("x*[y]"))
    assert type(built) is str and built == "x*[y]"
    assert type(letter_word(_Text("x"))) is str


def test_every_engine_word_is_an_exact_str():
    # Every way the package makes words gives exact strings that the
    # checked constructor accepts unchanged.
    xyz = generators("x", "y", "z")
    pool = words_up_to_size(xyz, 3)
    elements = [LinComb.from_word(w) for w in pool[:40]]
    half = LinComb.from_word(word("[x]"), "1/2") + LinComb.from_word(word("y"), "2/3")
    made = [*pool, *words_of_size(ALPHABET_XY, 4), letter_word(X), letter_word(X, Y, X), *relation_monomials()]
    for a in [*elements, half]:
        made.extend(operator_n(a)._terms)
        for b in [*elements, half]:
            made.extend(product(a, b)._terms)
    for u in pool[:40]:
        for v in pool[:40]:
            made.extend(algebra._product_terms(u, v))
    expr = parse_expr("3/2*prec(x*[y] - 2/3*y, [x]*y + 5/4*y) - 1/6*[x*y] + succ([x], [[y]]*z)")
    made.extend(eval_expr(expr, xyz)._terms)
    assert len(made) > 5000
    for w in made:
        assert type(w) is str, repr(w)
        assert word(w) == w, w


def test_unchecked_bracket_matches_the_checked_one():
    # N wraps the text of each word in brackets.
    for w in POOL:
        (image,) = operator_n(LinComb.from_word(w))._terms
        checked = word(f"[{w}]")
        assert image == checked, str(w)
        assert hash(image) == hash(checked), str(w)
        assert canonical_key(image) == canonical_key(checked)


def test_unchecked_letters_match_the_checked_ones():
    # A letter junction joins the two runs' texts with a star.
    for n in range(1, 5):
        for run in cartesian((X, Y), repeat=n):
            for k in range(1, n):
                (merged,) = algebra._product_terms(letter_word(*run[:k]), letter_word(*run[k:]))
                checked = letter_word(*run)
                assert merged == checked and checked == merged, run
                assert hash(merged) == hash(checked), run
                assert canonical_key(merged) == canonical_key(checked)


def test_the_product_cache_holds_only_bracket_junctions(monkeypatch):
    monkeypatch.setattr(algebra, "_PRODUCT_CACHE", {})
    assert first_nonassociative_triple(POOL) is None
    assert first_operator_identity_failure(POOL) is None
    assert algebra._PRODUCT_CACHE
    for last, first in algebra._PRODUCT_CACHE:
        for end in (last, first):
            ((kind, _),) = parse_reference(end)
            assert kind == "B", end


def test_the_product_cache_size_of_a_cold_sweep(monkeypatch):
    # One entry per distinct pair of junction brackets the sweep meets.
    monkeypatch.setattr(algebra, "_PRODUCT_CACHE", {})
    pool = words_up_to_size(generators("a", "b", "c"), 3)
    assert first_operator_identity_failure(pool) is None
    assert len(algebra._PRODUCT_CACHE) == 5184
