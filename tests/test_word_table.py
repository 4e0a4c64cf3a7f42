"""Commands leave no word table behind, and the product cache stays bounded.

A word is its canonical text, so nothing needs to share equal words:
the only module containers that may grow while a command runs are the
product cache, which empties itself when it reaches its limit, and the
bounded memos: those that split words at their end brackets, the one
of :func:`nijenhuis.words.words_of_size`, which holds the words of each
size it has enumerated, and those of :mod:`nijenhuis.envelope`, whose
enveloping generators hold words.
A word is a plain ``str`` and cannot be told apart by its type, so a
table is found by growth: a module-level container of the package that
is longer after the commands than before them.
"""

from __future__ import annotations

import functools
import io
import sys
from contextlib import redirect_stdout

import pytest

from nijenhuis import algebra
from nijenhuis.cli import run_command
from nijenhuis.words import size, words_of_size

from conftest import envelope_memos

# Memos that may keep words, each with a bound.
BOUNDED_MEMOS = (algebra._split_last, algebra._split_first, words_of_size, *envelope_memos())
PRODUCT_CACHE = "nijenhuis.algebra._PRODUCT_CACHE"

COMMANDS = (
    ["nijenhuis-check", "--alphabet", "a,b", "--max-size", "3"],
    ["assoc-check", "--max-size", "2"],
    ["mul", "[[x]*y]*[x]", "[y*[x]]"],
    ["eval", "prec([x]*y, [y]) + succ(x, [[y]])"],
    ["nijenhuis-check", "--max-size", "3"],
)

# The same kinds of command over names no other test uses, so that a
# table keyed by words would meet words it has not seen.
FRESH_COMMANDS = (
    ["nijenhuis-check", "--alphabet", "tw1,tw2", "--max-size", "3"],
    ["assoc-check", "--alphabet", "tw3,tw4", "--max-size", "2"],
    ["mul", "--generators", "tw5,tw6", "[[tw5]*tw6]*[tw5]", "[tw6*[tw5]]"],
    ["eval", "--generators", "tw7,tw8", "prec([tw7]*tw8, [tw8]) + succ(tw7, [[tw8]])"],
)


def container_sizes() -> dict[str, int]:
    """The length of every module-level container of the package, by name."""
    found = {}
    for name, module in sys.modules.items():
        if name == "nijenhuis" or name.startswith("nijenhuis."):
            for attr, value in vars(module).items():
                if isinstance(value, (dict, list, set)) and not attr.startswith("__"):
                    found[f"{name}.{attr}"] = len(value)
    return found


def grown(before: dict[str, int]) -> list[str]:
    """The containers longer now than in ``before``, by name."""
    return sorted(name for name, n in container_sizes().items() if n > before.get(name, 0))


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
    inner = algebra._product_terms

    def watching(u, v):
        result = inner(u, v)
        sizes.append(len(algebra._PRODUCT_CACHE))
        return result

    monkeypatch.setattr(algebra, "_product_terms", watching)
    for _ in range(3):
        assert [run_quietly(argv) for argv in COMMANDS] == expected
    assert max(sizes) == limit
    assert sizes.count(1) > 3


def _break_the_junctions(monkeypatch) -> None:
    """Scale every junction product by the size of its left word, on a fresh cache."""
    exact = algebra._product_terms
    monkeypatch.setattr(algebra, "_PRODUCT_CACHE", {})
    monkeypatch.setattr(algebra, "_product_terms", lambda u, v: {w: size(u) * c for w, c in exact(u, v).items()})


def _fail_after_a_junction(monkeypatch) -> None:
    """Fail every junction product once the cache holds a junction."""
    exact = algebra._product_terms

    def failing(u, v):
        result = exact(u, v)
        if algebra._PRODUCT_CACHE:
            raise RuntimeError("not caught by the command line tool")
        return result

    monkeypatch.setattr(algebra, "_product_terms", failing)


@pytest.mark.parametrize(
    "argv, code, setup",
    [
        (["nijenhuis-check", "--max-size", "2"], 0, None),
        (["assoc-check", "--max-size", "2"], 1, _break_the_junctions),
        (["mul", "[x]", "[y]"], 2, lambda mp: mp.setenv("NF_MAX_TERMS", "2")),
        (["nijenhuis-check", "--max-size", "2"], RuntimeError, _fail_after_a_junction),
    ],
    ids=["exit-0", "exit-1", "exit-2", "uncaught"],
)
def test_run_command_empties_the_tables(argv, code, setup, monkeypatch, capsys):
    # However a command ends, it leaves words only in the product cache
    # and the bounded memos, and the default term cap comes back.
    if setup is not None:
        setup(monkeypatch)
    before = container_sizes()
    if code is RuntimeError:
        with pytest.raises(RuntimeError):
            run_command(argv)
    else:
        assert run_command(argv) == code
    capsys.readouterr()
    assert algebra._PRODUCT_CACHE
    assert set(grown(before)) <= {PRODUCT_CACHE}
    for memo in BOUNDED_MEMOS:
        assert isinstance(memo, functools._lru_cache_wrapper) and memo.cache_info().maxsize
    assert algebra._max_terms == algebra.MAX_TERMS


def test_commands_on_new_words_grow_only_the_product_cache(monkeypatch):
    monkeypatch.setattr(algebra, "_PRODUCT_CACHE", {})
    before = container_sizes()
    for argv in FRESH_COMMANDS:
        assert run_quietly(argv)[0] == 0
    assert grown(before) == [PRODUCT_CACHE]
