"""Shared strategies and helpers for the test suite."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import HealthCheck, settings, strategies as st

from nijenhuis.algebra import command_scope
from nijenhuis.linalg import LinComb
from nijenhuis.words import generators, words_up_to_size

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
