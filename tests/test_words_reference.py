"""Word measures read from the stored key against plain recursive walks.

The reference functions below walk a word's factors recursively and
share no code with :mod:`nijenhuis.words`, which reads every measure
from the key :func:`canonical_key` stores on each word.
"""

from __future__ import annotations

from hypothesis import given, strategies as st

from nijenhuis import algebra
from nijenhuis.algebra import product_words
from nijenhuis.words import (
    Bracket,
    Letters,
    canonical_key,
    depth,
    from_canonical,
    generators,
    letter_count,
    make_word,
    size,
    to_canonical,
    words_up_to_size,
)

from conftest import ALPHABET_XY, words_strategy


def ref_letter_count(w) -> int:
    return sum(len(f.run) if isinstance(f, Letters) else ref_letter_count(f.inner) for f in w.factors)


def ref_depth(w) -> int:
    return max(0 if isinstance(f, Letters) else 1 + ref_depth(f.inner) for f in w.factors)


def ref_size(w) -> int:
    return sum(len(f.run) if isinstance(f, Letters) else 1 + ref_size(f.inner) for f in w.factors)


def ref_text(w) -> str:
    return "*".join(
        "*".join(s.name for s in f.run) if isinstance(f, Letters) else "[" + ref_text(f.inner) + "]"
        for f in w.factors
    )


MEASURES = (
    (letter_count, ref_letter_count),
    (depth, ref_depth),
    (size, ref_size),
    (to_canonical, ref_text),
)


def fresh(w):
    """An equal word built from new objects, none of them holding a key."""
    return make_word(Letters(f.run) if isinstance(f, Letters) else Bracket(fresh(f.inner)) for f in w.factors)


def check_measures(w, order=MEASURES) -> None:
    for measure, reference in order:
        assert measure(w) == reference(w), (measure.__name__, ref_text(w))
    assert canonical_key(w) == (ref_letter_count(w), ref_depth(w), ref_text(w))
    assert from_canonical(to_canonical(w)) == w


def test_measures_match_reference_up_to_size_five():
    pool = words_up_to_size(ALPHABET_XY, 5)
    assert len(pool) == 466
    for w in pool:
        check_measures(w)
        check_measures(fresh(w))


def test_measures_match_reference_on_product_terms(monkeypatch):
    # An empty product cache makes every junction word new, so the
    # bracket factors wrap inner words that were built with no key.
    monkeypatch.setattr(algebra, "_PRODUCT_CACHE", {})
    pool = words_up_to_size(ALPHABET_XY, 3)
    unkeyed = 0
    for u in pool:
        for v in pool:
            # The term dict, not the sorted items, so no key is built first.
            for w in product_words(u, v)._terms:
                unkeyed += w._key is None
                check_measures(w)
    assert unkeyed > 0


@given(words_strategy(max_size=6), st.permutations(MEASURES))
def test_measures_match_reference_at_size_six(w, order):
    check_measures(fresh(w), order)


@given(words_strategy(generators("e1", "ab_2", "Z"), max_size=4))
def test_measures_match_reference_on_long_names(w):
    check_measures(fresh(w))
