"""Commands leave no word table behind, and the product cache stays bounded.

A word is its canonical text, so nothing needs to share equal words:
the only module containers that keep words after a command are the
product cache, which empties itself when it reaches its limit, and the
bounded memos that split words at their end brackets.
"""

from __future__ import annotations

import functools
import io
import sys
from contextlib import redirect_stdout

import pytest

from nijenhuis import algebra
from nijenhuis.cli import run_command
from nijenhuis.linalg import LinComb
from nijenhuis.words import BracketedWord, size

# Memos that may keep words, each with a bound.
BOUNDED_MEMOS = (algebra._split_last, algebra._split_first)

COMMANDS = (
    ["nijenhuis-check", "--alphabet", "a,b", "--max-size", "3"],
    ["assoc-check", "--max-size", "2"],
    ["mul", "[[x]*y]*[x]", "[y*[x]]"],
    ["eval", "prec([x]*y, [y]) + succ(x, [[y]])"],
    ["nijenhuis-check", "--max-size", "3"],
)


def holds_words(value) -> bool:
    if isinstance(value, dict):
        return any(holds_words(k) or holds_words(v) for k, v in value.items())
    if isinstance(value, (list, tuple, set, frozenset)):
        return any(holds_words(item) for item in value)
    if isinstance(value, LinComb):
        return bool(value._terms)
    return isinstance(value, BracketedWord)


def word_tables() -> list[str]:
    """Module-level containers of the package that hold words, by name."""
    found = []
    for name, module in sys.modules.items():
        if name == "nijenhuis" or name.startswith("nijenhuis."):
            for attr, value in vars(module).items():
                if not isinstance(value, type) and holds_words(value):
                    found.append(f"{name}.{attr}")
    return found


def run_quietly(argv) -> tuple[int, str]:
    out = io.StringIO()
    with redirect_stdout(out):
        code = run_command(argv)
    return code, out.getvalue()


def test_full_tables_start_again(monkeypatch):
    expected = [run_quietly(argv) for argv in COMMANDS]
    limit = 50
    monkeypatch.setattr(algebra, "_PRODUCT_CACHE", {})
    monkeypatch.setattr(algebra, "_PRODUCT_CACHE_LIMIT", limit)
    sizes = []
    inner = algebra.product_words

    def watching(u, v):
        result = inner(u, v)
        sizes.append(len(algebra._PRODUCT_CACHE))
        return result

    monkeypatch.setattr(algebra, "product_words", watching)
    for _ in range(3):
        assert [run_quietly(argv) for argv in COMMANDS] == expected
    assert max(sizes) == limit
    assert sizes.count(1) > 3


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
    # However a command ends, it leaves words only in the product cache
    # and the bounded memos, and the default term cap comes back.
    if setup is not None:
        setup(monkeypatch)
    if code is RuntimeError:
        with pytest.raises(RuntimeError):
            run_command(argv)
    else:
        assert run_command(argv) == code
    capsys.readouterr()
    assert algebra._PRODUCT_CACHE
    assert word_tables() == ["nijenhuis.algebra._PRODUCT_CACHE"]
    for memo in BOUNDED_MEMOS:
        assert isinstance(memo, functools._lru_cache_wrapper) and memo.cache_info().maxsize
    assert algebra._max_terms == algebra.MAX_TERMS

