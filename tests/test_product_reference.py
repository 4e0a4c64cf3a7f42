"""The cached word product against a plain reference of the junction rule.

The reference works on factor tuples, with no cache and no shared code
with :mod:`nijenhuis.algebra`.  A word is a tuple of factors; a factor
is ``("L", names)`` for a letter run or ``("B", word)`` for a bracket.
A product is a dict from such words to nonzero Fractions.
"""

from __future__ import annotations

from fractions import Fraction

from hypothesis import given

from nijenhuis import algebra, words
from nijenhuis.algebra import first_operator_identity_failure, product_words
from nijenhuis.linalg import LinComb
from nijenhuis.words import (
    Bracket,
    GeneratorSymbol,
    Letters,
    canonical_key,
    from_canonical,
    make_word,
    to_canonical,
    words_up_to_size,
)

from conftest import ALPHABET_XY, words_strategy


def as_tuple(word) -> tuple:
    return tuple(
        ("L", tuple(s.name for s in f.run)) if isinstance(f, Letters) else ("B", as_tuple(f.inner))
        for f in word.factors
    )


def from_tuple(word: tuple):
    """A word built from fresh objects through :func:`make_word`."""
    return make_word(
        Letters(tuple(GeneratorSymbol(n) for n in body)) if kind == "L" else Bracket(from_tuple(body))
        for kind, body in word
    )


def _add(total: dict, terms: dict, sign: int) -> None:
    for w, c in terms.items():
        total[w] = total.get(w, Fraction(0)) + sign * c
        if not total[w]:
            del total[w]


def _wrap(terms: dict) -> dict:
    return {(("B", w),): c for w, c in terms.items()}


def reference_product(u: tuple, v: tuple) -> dict:
    """Product of two words by the junction rule, computed from scratch."""
    last, first = u[-1], v[0]
    if last[0] == "L" and first[0] == "L":
        junction = {(("L", last[1] + first[1]),): Fraction(1)}
    elif last[0] != first[0]:
        junction = {(last, first): Fraction(1)}
    else:
        # [a] . [b] = [[a] . b] + [a . [b]] - [[a . b]]
        a, b = last[1], first[1]
        junction = {}
        _add(junction, _wrap(reference_product((last,), b)), 1)
        _add(junction, _wrap(reference_product(a, (first,))), 1)
        _add(junction, _wrap(_wrap(reference_product(a, b))), -1)
    return {u[:-1] + w + v[1:]: c for w, c in junction.items()}


def as_dict(value) -> dict:
    return {as_tuple(w): c for w, c in value}


POOL = words_up_to_size(ALPHABET_XY, 3)


def check_all_pairs_up_to_size_three() -> None:
    assert len(POOL) ** 2 == 900
    for u in POOL:
        for v in POOL:
            assert as_dict(product_words(u, v)) == reference_product(as_tuple(u), as_tuple(v)), (
                to_canonical(u),
                to_canonical(v),
            )


def test_product_matches_reference_on_all_pairs_up_to_size_three():
    check_all_pairs_up_to_size_three()


@given(words_strategy(max_size=4), words_strategy(max_size=4))
def test_product_matches_reference_at_size_four(u, v):
    assert as_dict(product_words(u, v)) == reference_product(as_tuple(u), as_tuple(v))


def test_product_matches_reference_with_the_word_tables_warm():
    # A sweep first fills the word table and the bracket-image map, so
    # the products below return words shared with it.
    assert first_operator_identity_failure([LinComb.from_word(w) for w in POOL]) is None
    assert words._WORDS and algebra._BRACKET_IMAGES
    check_all_pairs_up_to_size_three()
    for u in words_up_to_size(ALPHABET_XY, 4):
        for v in words_up_to_size(ALPHABET_XY, 2):
            assert as_dict(product_words(u, v)) == reference_product(as_tuple(u), as_tuple(v))
    for shared in list(words._WORDS.values()):
        parsed = from_canonical(to_canonical(shared))
        assert parsed is not shared
        assert parsed == shared and shared == parsed
        assert hash(parsed) == hash(shared)
        assert canonical_key(parsed) == canonical_key(shared)


def test_equal_words_built_apart_share_hash_and_key():
    for w in words_up_to_size(ALPHABET_XY, 4):
        parsed = from_canonical(to_canonical(w))
        built = from_tuple(as_tuple(w))
        assert parsed is not built
        assert parsed == built
        assert hash(parsed) == hash(built)
        assert canonical_key(parsed) == canonical_key(built)
