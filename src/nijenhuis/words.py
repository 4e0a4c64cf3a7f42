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
the deepest count of open brackets.  :func:`factors` is the one walk of
a word's letter runs and outer brackets, for the breadth, the product
and evaluation.  A generator name is a plain ``str``, checked by
:func:`generators` and :func:`letter_word`.

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
from itertools import repeat
from typing import Iterable

__all__ = [
    "UsageError",
    "WordError",
    "AlternationViolation",
    "EmptyInput",
    "word",
    "generators",
    "letter_word",
    "depth",
    "breadth",
    "factors",
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


class UsageError(ValueError):
    """Input the caller supplied is malformed: a usage error, exit code 2 in the CLI.

    Every input error the package raises derives from it, save
    :class:`~nijenhuis.envelope.InvalidInput`, which reports well-formed
    data that fails a check.  A plain ``ValueError`` is a bug.
    """


class WordError(UsageError):
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


def factors(w: str) -> list[str]:
    """The factors of ``w``, left to right: letter runs and outer brackets.

    ``"*".join(factors(w)) == w``.  Each piece of the text between stars
    is a name inside brackets; it joins the factor before it while a
    bracket is open there, or when both are letters.
    """
    if "[" not in w:
        return [w]
    found = []
    level = 0
    for piece in w.split("*"):
        if level or found and piece[0] != "[" and found[-1][-1] != "]":
            found[-1] += "*" + piece
        else:
            found.append(piece)
        level += piece.count("[") - piece.count("]")
    return found


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
    """Number of factors of ``w``."""
    return len(factors(w))


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
    so no key function runs per word: sorted by :func:`canonical_key`,
    eval and mul run 6-8% slower.
    """
    words = list(words)
    patterns = "\n".join(words).translate(_BRACKETS_ONLY).split("\n")
    # The star count orders words as the letter count does.
    ordered = sorted(zip(map(str.count, words, repeat("*")), map(_nesting, patterns), words))
    return [w for _, _, w in ordered]


# Bounded, so that a long-lived process keeps the words of the last 64
# (alphabet, size) pairs only; a call of size n reads the n - 1 smaller
# sizes of its alphabet.
@lru_cache(maxsize=64)
def words_of_size(alphabet: tuple[str, ...], n: int) -> tuple[str, ...]:
    """All words of exact size ``n`` over ``alphabet``, canonically ordered.

    A word is the product of its letters and brackets with no term at
    the junctions, so each is a shorter word extended by one factor: any
    letter, or a bracket ``[w]`` unless the last factor was a bracket.
    """
    generators(*alphabet)
    found: list[str] = []
    for k in range(n):
        # The words of size k, each followed by a last factor of size n - k.
        heads = [w + "*" for w in words_of_size(alphabet, k)] if k else [""]
        if k == n - 1:
            found += [head + letter for head in heads for letter in alphabet]
        else:
            inner = words_of_size(alphabet, n - k - 1)
            found += [f"{head}[{w}]" for head in heads if not head.endswith("]*") for w in inner]
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
