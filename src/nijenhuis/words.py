"""Bracketed words over a finite generator set.

A bracketed word is a nonempty alternating sequence of factors, where a
factor is either a run of generator letters or a bracket enclosing a
smaller bracketed word.  Words of this shape form the monomial basis of
the free Nijenhuis algebra built in :mod:`nijenhuis.algebra`; this module
only knows about their combinatorial structure: construction,
enumeration by size, the canonical text and the canonical sort key.

A word is its canonical text, held as a plain ``str``: letters joined
by ``*`` and brackets written ``[...]``.  Runs of letters are maximal
and brackets never touch, so each word has one text and each text one
word: equal words are equal strings, hashing and equality run in C, and
printing a word costs nothing.  The measures are read from the text,
since generator names are identifiers: every letter but the first
follows a ``*``, every bracket pair opens with a ``[``, and the depth is
the deepest count of open brackets.  A generator name is a plain
``str``, checked by :func:`generators` and :func:`letter_word`.

:func:`word` is the one checked constructor: it scans the text once and
rejects anything that is not the canonical text of a word.  It reads
single words only; it is not the expression parser.  :func:`letter_word`
checks each name of its run.  The enumeration and the free product (see
:mod:`nijenhuis.algebra`) build texts that are canonical by
construction, by concatenation alone, with nothing checked; the tests
compare those words with the checked constructor.
"""

from __future__ import annotations

import re
from functools import lru_cache
from itertools import product as _cartesian, repeat
from typing import Iterable

__all__ = [
    "WordError",
    "AlternationViolation",
    "EmptyInput",
    "word",
    "generators",
    "letter_word",
    "depth",
    "breadth",
    "size",
    "letter_count",
    "canonical_key",
    "canonical_sort",
    "MAX_NESTING",
    "words_of_size",
    "words_up_to_size",
]

_NAME = re.compile(r"[A-Za-z][A-Za-z0-9_]*")

#: Deepest bracket nesting accepted from text, by :func:`word` and by
#: the expression parser.  :func:`word` keeps a count of open brackets,
#: but the expression evaluator recurses once per level, so the cap keeps
#: every accepted input inside the interpreter's recursion limit.
MAX_NESTING = 100


class WordError(ValueError):
    """Base class for malformed word constructions."""


class AlternationViolation(WordError):
    """Two adjacent factors of the same kind."""


class EmptyInput(WordError):
    """An empty word, an empty letter run, or an empty generator name."""


def _check_name(name: str) -> None:
    if not name:
        raise EmptyInput("generator name is empty")
    if not _NAME.fullmatch(name):
        raise WordError(f"invalid generator name: {name!r}")


def generators(*names: str) -> tuple[str, ...]:
    """The given generator names, checked to be distinct identifiers."""
    if len(set(names)) != len(names):
        raise WordError(f"duplicate generator names in {', '.join(names)}")
    for name in names:
        _check_name(name)
    return names


def word(text: str) -> str:
    """The word whose canonical text is ``text``, checked, as an exact ``str``.

    Raises :class:`EmptyInput` for an empty word or bracket,
    :class:`AlternationViolation` for touching brackets, and
    :class:`WordError` for anything else that is not a word's text;
    ``TypeError`` when ``text`` is not a string.
    """
    if not isinstance(text, str):
        raise TypeError(f"a word is built from its text, not {text!r}")
    # The exact str of the same text, also for a str subclass.
    text = str.__str__(text)
    _check(text)
    return text


def _check(text: str) -> None:
    """Raise unless ``text`` is the canonical text of a word.

    One scan, left to right, that counts the open brackets instead of
    recursing; the first fault it meets decides the error.
    """
    if not text:
        raise EmptyInput("word is empty")
    level = pos = 0
    after_bracket = False
    while True:
        # A factor starts here: brackets opened, then a name.
        while text.startswith("[", pos):
            if after_bracket:
                raise AlternationViolation(f"adjacent brackets at position {pos}")
            if level >= MAX_NESTING:
                raise WordError(
                    f"bracket nesting deeper than {MAX_NESTING} levels at position {pos}"
                )
            level += 1
            pos += 1
            if text.startswith("]", pos):
                raise EmptyInput(f"empty brackets at position {pos - 1}")
        m = _NAME.match(text, pos)
        if not m:
            raise WordError(f"expected a letter or bracket at position {pos}")
        pos = m.end()
        after_bracket = False
        while text.startswith("]", pos):
            if not level:
                raise WordError(f"unmatched closing bracket at position {pos}")
            level -= 1
            pos += 1
            after_bracket = True
        if text.startswith("*", pos):
            pos += 1
        elif level:
            raise WordError(f"unclosed bracket at position {pos}")
        elif pos != len(text):
            raise WordError(f"trailing input at position {pos}: {text[pos:]!r}")
        else:
            return


_BRACKET_RUN = re.compile(r"\[+|\]+")


def _close(text: str, start: int) -> int:
    """Index of the ``]`` that closes the ``[`` at ``start``."""
    level = 0
    for m in _BRACKET_RUN.finditer(text, start):
        if text[m.start()] == "[":
            level += m.end() - m.start()
        else:
            level -= m.end() - m.start()
            if level <= 0:
                return m.end() - 1 + level


def letter_word(*names: str) -> str:
    """The word consisting of one run of the given letters."""
    if not names:
        raise EmptyInput("letter run is empty")
    for name in names:
        _check_name(name)
    return "*".join(names)


# Deletes all but the brackets from a word's text.
_BRACKETS_ONLY = str.maketrans(
    "", "", "*_0123456789abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"
)


def depth(w: str) -> int:
    """Maximal bracket nesting over the factors of ``w``."""
    return canonical_key(w)[1]


def breadth(w: str) -> int:
    """Number of factors of ``w``.

    The factors alternate in kind, so between two top-level brackets there
    is one letter run, and one more at each end that is not a bracket.
    """
    top = level = 0
    for c in w.translate(_BRACKETS_ONLY):
        if c == "[":
            top += not level
            level += 1
        else:
            level -= 1
    return 2 * top + 1 - w.startswith("[") - w.endswith("]")


def letter_count(w: str) -> int:
    """Total number of generator letters, at all nesting levels."""
    return w.count("*") + 1


def size(w: str) -> int:
    """The number of letters plus the number of bracket pairs."""
    return letter_count(w) + w.count("[")


@lru_cache(maxsize=1 << 12)
def _nesting(brackets: str) -> int:
    """Deepest nesting of a balanced string of brackets."""
    deepest = 0
    # Each pass deletes the innermost bracket pairs.
    while brackets:
        brackets = brackets.replace("[]", "")
        deepest += 1
    return deepest


def canonical_key(w: str) -> tuple[int, int, str]:
    """Sort key realizing the canonical order on words.

    Words compare first by total letter count, then by depth, then
    lexicographically on the canonical text.  The key is read from the
    text on each call: kept in a memo, it made the ``session`` benchmark
    no faster and its peak memory larger.  Only the depth of each
    bracket pattern is memoized, and there are few distinct patterns.
    """
    return letter_count(w), _nesting(w.translate(_BRACKETS_ONLY)), w


def canonical_sort(words: Iterable[str]) -> list[str]:
    """``words`` sorted by :func:`canonical_key`.

    One ``translate`` over the joined texts reads the bracket patterns
    of all the words, and the depth of each pattern comes from a memo,
    so no key function runs per word.
    """
    words = list(words)
    patterns = "\n".join(words).translate(_BRACKETS_ONLY).split("\n")
    # The star count orders words as the letter count does.
    ordered = sorted(zip(map(str.count, words, repeat("*")), map(_nesting, patterns), words))
    return [w for _, _, w in ordered]


@lru_cache(maxsize=None)
def words_of_size(alphabet: tuple[str, ...], n: int) -> tuple[str, ...]:
    """All words of exact size ``n`` over ``alphabet``, canonically ordered."""
    generators(*alphabet)
    if n <= 0:
        return ()
    found: list[str] = []

    def extend(prefix: str, prev_letters: bool | None, remaining: int) -> None:
        if remaining == 0:
            found.append(prefix)
            return
        head = prefix + "*" if prefix else ""
        if prev_letters is not True:
            for k in range(1, remaining + 1):
                for run in _cartesian(alphabet, repeat=k):
                    extend(head + "*".join(run), True, remaining - k)
        if prev_letters is not False:
            # A bracket factor of size k wraps an inner word of size k - 1.
            for k in range(2, remaining + 1):
                for inner in words_of_size(alphabet, k - 1):
                    extend(f"{head}[{inner}]", False, remaining - k)

    extend("", None, n)
    return tuple(canonical_sort(found))


def words_up_to_size(
    alphabet: tuple[str, ...], max_size: int
) -> tuple[str, ...]:
    """All words of size at most ``max_size``, canonically ordered."""
    pool: list[str] = []
    for n in range(1, max_size + 1):
        pool.extend(words_of_size(alphabet, n))
    return tuple(canonical_sort(pool))


def iter_symbols(w: str) -> list[str]:
    """Every generator name in ``w``, left to right."""
    return _NAME.findall(w)
