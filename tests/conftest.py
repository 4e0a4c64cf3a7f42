"""Shared strategies and helpers for the test suite."""

from __future__ import annotations

import re
from fractions import Fraction
from itertools import product as cartesian

import pytest
from hypothesis import HealthCheck, settings, strategies as st

from nijenhuis.algebra import command_scope
from nijenhuis.linalg import LinComb
from nijenhuis.words import (
    MAX_NESTING,
    AlternationViolation,
    EmptyInput,
    WordError,
    generators,
    words_up_to_size,
)

settings.register_profile(
    "package",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
    max_examples=60,
)
settings.load_profile("package")


@pytest.fixture(autouse=True)
def one_command_per_test():
    """Each test runs inside :func:`command_scope`, as each command of the CLI does."""
    with command_scope():
        yield


ALPHABET_XY = generators("x", "y")
ALPHABET_XYZ = generators("x", "y", "z")


def word_pool(alphabet=ALPHABET_XY, max_size: int = 4):
    return words_up_to_size(alphabet, max_size)


def words_strategy(alphabet=ALPHABET_XY, max_size: int = 4):
    return st.sampled_from(word_pool(alphabet, max_size))


def rationals_strategy(max_num: int = 6, max_den: int = 4):
    return st.builds(
        Fraction,
        st.integers(min_value=-max_num, max_value=max_num),
        st.integers(min_value=1, max_value=max_den),
    )


def nonzero_rationals_strategy(max_num: int = 6, max_den: int = 4):
    return rationals_strategy(max_num, max_den).filter(lambda q: q != 0)


def lincombs_strategy(alphabet=ALPHABET_XY, max_size: int = 4, max_terms: int = 4):
    pair = st.tuples(words_strategy(alphabet, max_size), rationals_strategy())
    return st.builds(LinComb, st.lists(pair, max_size=max_terms))


def ideal_candidates_strategy(words, ideal_generators):
    """A few of ``words`` plus a few of ``ideal_generators``, with rational
    coefficients, so that both membership verdicts come up."""
    free = st.lists(st.tuples(st.sampled_from(words), rationals_strategy()), max_size=3)
    picks = st.lists(st.tuples(st.sampled_from(ideal_generators), rationals_strategy()), max_size=3)

    def combine(free, picks):
        candidate = LinComb(free)
        for g, c in picks:
            candidate = candidate + g.scale(c)
        return candidate

    return st.builds(combine, free, picks)


# A reference model of words that shares no code with nijenhuis.words.
# A word is a tuple of factors; a factor is ("L", names) for a letter
# run or ("B", word) for a bracket.

NAME = re.compile(r"[A-Za-z][A-Za-z0-9_]*")


def parse_reference(text: str) -> tuple:
    """Read a word's text into the tuple model by recursive descent on

        word   := factor ('*' factor)*
        factor := NAME | '[' word ']'

    where names joined by ``*`` form one run and two brackets never
    follow one another.  The first fault met, left to right, raises
    :class:`EmptyInput` for an empty word (``""`` or ``[]``),
    :class:`AlternationViolation` for a bracket after a bracket, and
    :class:`WordError` for anything else, nesting past
    :data:`MAX_NESTING` included.
    """
    pos = 0

    def word(level: int) -> tuple:
        nonlocal pos
        if (text.startswith("]", pos) if level else pos == len(text)):
            raise EmptyInput("empty word")
        factors: list = []
        while True:
            if text.startswith("[", pos):
                if factors and factors[-1][0] == "B":
                    raise AlternationViolation("bracket after bracket")
                if level >= MAX_NESTING:
                    raise WordError("nested too deep")
                pos += 1
                inner = word(level + 1)
                if not text.startswith("]", pos):
                    raise WordError("unclosed bracket")
                pos += 1
                factors.append(("B", inner))
            else:
                m = NAME.match(text, pos)
                if not m:
                    raise WordError("expected a factor")
                pos = m.end()
                if factors and factors[-1][0] == "L":
                    factors[-1] = ("L", factors[-1][1] + (m.group(),))
                else:
                    factors.append(("L", (m.group(),)))
            if not text.startswith("*", pos):
                return tuple(factors)
            pos += 1

    found = word(0)
    if pos != len(text):
        raise WordError("trailing input")
    return found


def reference_text(word: tuple) -> str:
    return "*".join(
        "*".join(body) if kind == "L" else "[" + reference_text(body) + "]" for kind, body in word
    )


def reference_words(alphabet, n: int, after: str | None = None) -> list[tuple]:
    """Every tuple-model word of size ``n`` whose first factor's kind is not ``after``."""
    found = []
    for k in range(1, n + 1):
        heads = []
        if after != "L":
            heads += [("L", run) for run in cartesian(alphabet, repeat=k)]
        if after != "B" and k > 1:
            heads += [("B", inner) for inner in reference_words(alphabet, k - 1)]
        for head in heads:
            if k == n:
                found.append((head,))
            else:
                found += [(head, *rest) for rest in reference_words(alphabet, n - k, head[0])]
    return found
