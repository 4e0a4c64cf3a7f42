"""The integer-numerator product and printing.

:func:`product` multiplies integer numerators over one common
denominator per operand and divides once per result term.  These tests
compare it with the bilinear extension, in ``Fraction`` arithmetic, of
``reference_product`` from ``test_product_reference.py``, the cache-free
product on the tuple model, which shares no code with
:mod:`nijenhuis.algebra`.  They also check that printed combinations
parse back to themselves.
"""

from __future__ import annotations

from fractions import Fraction

from hypothesis import given, strategies as st

from nijenhuis import algebra
from nijenhuis.algebra import product
from nijenhuis.linalg import LinComb
from nijenhuis.parser import eval_expr, parse_expr, print_canonical
from nijenhuis.words import canonical_key, canonical_sort, words_up_to_size

from conftest import ALPHABET_XY, parse_reference as as_tuple, words_strategy
from test_product_reference import reference_product

# Negative, integral given as a Fraction, small and large denominators.
COEFFICIENTS = st.one_of(
    st.integers(min_value=-7, max_value=7),
    st.builds(lambda n: Fraction(3 * n, 3), st.integers(min_value=-5, max_value=5)),
    st.builds(Fraction, st.integers(min_value=-9, max_value=9), st.integers(min_value=1, max_value=12)),
    st.builds(
        Fraction,
        st.integers(min_value=-(10**15), max_value=10**15),
        st.integers(min_value=10**9, max_value=10**12),
    ),
)


def combinations(max_terms: int = 6):
    pair = st.tuples(words_strategy(ALPHABET_XY, max_size=4), COEFFICIENTS)
    return st.builds(LinComb, st.lists(pair, max_size=max_terms))


def reference(a: LinComb, b: LinComb) -> dict:
    """The bilinear extension of the reference word product, in Fraction arithmetic, on the tuple model."""
    total: dict = {}
    for wu, cu in a._terms.items():
        for wv, cv in b._terms.items():
            for w, c in reference_product(as_tuple(wu), as_tuple(wv)).items():
                total[w] = total.get(w, Fraction(0)) + Fraction(cu) * Fraction(cv) * c
    return {w: c for w, c in total.items() if c}


def as_model(value: LinComb) -> dict:
    return {as_tuple(w): c for w, c in value._terms.items()}


def assert_canonical_scalars(value: LinComb) -> None:
    for c in value._terms.values():
        assert type(c) is int or (type(c) is Fraction and c.denominator != 1), value._terms


@given(combinations(), combinations())
def test_product_matches_the_fraction_reference(a, b):
    got = product(a, b)
    assert as_model(got) == reference(a, b)
    assert_canonical_scalars(got)


def test_product_of_integral_combinations_stays_integral():
    pool = words_up_to_size(ALPHABET_XY, 3)
    a = LinComb({w: k - 4 for k, w in enumerate(pool[:9])})
    b = LinComb({w: 2 * k + 1 for k, w in enumerate(pool[-7:])})
    got = product(a, b)
    assert all(type(c) is int for c in got._terms.values())
    assert as_model(got) == reference(a, b)


def test_product_terms_that_divide_exactly_are_ints():
    x, y = (LinComb.from_word(w) for w in words_up_to_size(ALPHABET_XY, 1))
    half = (x + y).scale(Fraction(1, 2))
    got = product(half, (x + y).scale(2))
    assert got == product(x + y, x + y)
    assert all(type(c) is int for c in got._terms.values())
    third = product(x.scale(Fraction(1, 3)) + y, x + y.scale(Fraction(2, 3)))
    assert as_model(third) == reference(x.scale(Fraction(1, 3)) + y, x + y.scale(Fraction(2, 3)))
    assert_canonical_scalars(third)



def test_the_one_word_path_and_the_kernel_match_the_reference(monkeypatch):
    # One word times one word takes product's own path; operands of any
    # other length go through the terms-times-terms kernel, once.
    kernel, calls = algebra._terms_times, []
    monkeypatch.setattr(algebra, "_terms_times", lambda ta, tb: calls.append(1) or kernel(ta, tb))
    pool = words_up_to_size(ALPHABET_XY, 3)
    # Integral, integral given as a Fraction, and rational.
    scales = (1, -2, Fraction(6, 3), Fraction(-3, 4), Fraction(5, 7))
    for u in pool[::5]:
        for v in pool[2::5]:
            for cu in scales:
                for cv in scales:
                    a, b = LinComb.from_word(u, cu), LinComb.from_word(v, cv)
                    for x, y, kernel_calls in ((a, b, 0), (a + b, b, 1), (a, a - b, 1), (LinComb(), b, 1)):
                        before = len(calls)
                        got = product(x, y)
                        assert len(calls) - before == kernel_calls
                        assert as_model(got) == reference(x, y), (x, y)
                        assert_canonical_scalars(got)

@given(combinations(max_terms=8))
def test_printing_then_parsing_gives_back_the_combination(a):
    text = print_canonical(a)
    assert eval_expr(parse_expr(text), ALPHABET_XY) == a
    assert print_canonical(eval_expr(parse_expr(text), ALPHABET_XY)) == text


@given(combinations(max_terms=8))
def test_printing_matches_the_plain_format(a):
    """Each term as sign, magnitude and word, read through Fraction's own str."""
    pieces = []
    for word, c in a.items():
        q = Fraction(c)
        body = word if abs(q) == 1 else f"{abs(q)}*{word}"
        if not pieces:
            pieces.append(body if q > 0 else f"-{body}")
        else:
            pieces.append(f"+ {body}" if q > 0 else f"- {body}")
    assert str(a) == (" ".join(pieces) or "0")


@given(st.lists(words_strategy(ALPHABET_XY, max_size=5), unique=True, max_size=30))
def test_canonical_sort_agrees_with_the_key(words):
    assert canonical_sort(words) == sorted(words, key=canonical_key)

