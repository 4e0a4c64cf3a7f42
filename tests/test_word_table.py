"""The word table and the bracket-image map share words within a command.

Inside one command, every word the product or the operator returns that
equals an earlier one is that earlier object, until a table fills up
and starts again.  ``run_command`` empties both tables when the command
ends, however it ends.
"""

from __future__ import annotations

import pytest

from nijenhuis import algebra, words
from nijenhuis.algebra import first_nonassociative_triple, first_operator_identity_failure
from nijenhuis.cli import run_command
from nijenhuis.linalg import LinComb
from nijenhuis.words import BracketedWord, size, words_up_to_size

from conftest import ALPHABET_XY

POOL = words_up_to_size(ALPHABET_XY, 3)


def tables_are_empty() -> bool:
    return not words._WORDS and not algebra._BRACKET_IMAGES


def test_equal_words_of_one_sweep_are_one_object(monkeypatch):
    # The two sweeps build about 45,000 distinct words, more than a
    # table holds before it starts again.
    monkeypatch.setattr(words, "_WORDS_LIMIT", 10**6)
    monkeypatch.setattr(algebra, "_BRACKET_IMAGES_LIMIT", 10**6)
    monkeypatch.setattr(algebra, "_PRODUCT_CACHE", {})
    first_seen: dict[BracketedWord, BracketedWord] = {}
    returned = 0

    def recording(build):
        def wrapper(*args):
            nonlocal returned
            result = build(*args)
            for w in result._terms:
                returned += 1
                assert first_seen.setdefault(w, w) is w, str(w)
            return result

        return wrapper

    monkeypatch.setattr(algebra, "product_words", recording(algebra.product_words))
    monkeypatch.setattr(algebra, "operator_n", recording(algebra.operator_n))
    elements = [LinComb.from_word(w) for w in POOL]
    assert first_nonassociative_triple(elements) is None
    assert first_operator_identity_failure(elements) is None
    assert returned > 2 * len(first_seen)
    for w in first_seen:
        assert BracketedWord._of(tuple(list(w.factors))) is w


def test_full_tables_start_again(monkeypatch):
    limit = 100
    monkeypatch.setattr(words, "_WORDS_LIMIT", limit)
    monkeypatch.setattr(algebra, "_BRACKET_IMAGES_LIMIT", limit)
    monkeypatch.setattr(algebra, "_PRODUCT_CACHE", {})
    sizes = []
    inner = algebra.operator_n

    def watching(a):
        result = inner(a)
        sizes.append((len(words._WORDS), len(algebra._BRACKET_IMAGES)))
        return result

    monkeypatch.setattr(algebra, "operator_n", watching)
    elements = [LinComb.from_word(w) for w in POOL]
    assert first_nonassociative_triple(elements) is None
    assert first_operator_identity_failure(elements) is None
    most_words = max(w for w, _ in sizes)
    most_images = max(i for _, i in sizes)
    assert most_words == limit
    assert limit // 2 < most_images <= limit


def _fill_the_tables() -> None:
    algebra.operator_n(LinComb.from_word(POOL[-1]))
    algebra.product_words(POOL[-1], POOL[-1])
    assert not tables_are_empty()


def _break_the_product(monkeypatch) -> None:
    """Scale every word product by the left word's size, on a fresh cache."""
    exact = algebra.product_words
    monkeypatch.setattr(algebra, "_PRODUCT_CACHE", {})
    monkeypatch.setattr(algebra, "product_words", lambda u, v: exact(u, v).scale(size(u)))


def _fail_after_the_product(monkeypatch) -> None:
    exact = algebra.product

    def failing(a, b):
        exact(a, b)
        raise RuntimeError("not caught by the command line tool")

    monkeypatch.setattr(algebra, "product", failing)


@pytest.mark.parametrize(
    "argv, code, setup",
    [
        (["nijenhuis-check", "--max-size", "2"], 0, None),
        (["assoc-check", "--max-size", "2"], 1, _break_the_product),
        (["mul", "[x]", "[y]"], 2, lambda mp: mp.setenv("NF_MAX_TERMS", "2")),
        (["nijenhuis-check", "--max-size", "2"], RuntimeError, _fail_after_the_product),
    ],
    ids=["exit-0", "exit-1", "exit-2", "uncaught"],
)
def test_run_command_empties_the_tables(argv, code, setup, monkeypatch, capsys):
    if setup is not None:
        setup(monkeypatch)
    sizes_seen = []
    inner = algebra.product_words

    def watching(u, v):
        result = inner(u, v)
        sizes_seen.append((len(words._WORDS), len(algebra._BRACKET_IMAGES)))
        return result

    monkeypatch.setattr(algebra, "product_words", watching)
    _fill_the_tables()
    if code is RuntimeError:
        with pytest.raises(RuntimeError):
            run_command(argv)
    else:
        assert run_command(argv) == code
    capsys.readouterr()
    assert sizes_seen and max(sizes_seen)[0] > 0
    assert tables_are_empty()
    assert algebra._max_terms == algebra.MAX_TERMS
