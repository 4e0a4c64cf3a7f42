"""Bracketed words over a finite generator set.

A bracketed word is a nonempty alternating sequence of factors, where a
factor is either a run of generator letters or a bracket enclosing a
smaller bracketed word.  Words of this shape form the monomial basis of
the free Nijenhuis algebra built in :mod:`nijenhuis.algebra`; this module
only knows about their combinatorial structure: construction,
enumeration by size, the canonical text and the canonical sort key.

A word is its canonical text: :class:`BracketedWord` is a ``str``
subclass whose value is exactly what :func:`to_canonical` returns,
letters joined by ``*`` and brackets written ``[...]``.  Runs of letters
are maximal and brackets never touch, so each word has one text and
each text one word: equal words are equal strings, hashing and equality
run in C, and printing a word costs nothing.  The measures are read from
the text, since generator names are identifiers: every letter but the
first follows a ``*``, every bracket pair opens with a ``[``, and the
depth is the deepest count of open brackets.  The factors are a view
parsed from the text when asked for.

The public constructors, ``BracketedWord(factors)``, :func:`make_word`,
:func:`letter_word` and :func:`from_canonical`, check every factor's
type and the alternation of kinds; the parser and the enumeration go
through them.  Only the factor view and the free product wrap text
unchecked, through ``_word``: the view wraps the text inside a bracket,
and the product joins canonical texts (see :mod:`nijenhuis.algebra`).
"""

from __future__ import annotations

import re
import string
from dataclasses import dataclass
from functools import lru_cache, partial
from itertools import product as _cartesian
from typing import Iterable, Iterator, Union

__all__ = [
    "WordError",
    "AlternationViolation",
    "EmptyInput",
    "GeneratorSymbol",
    "Letters",
    "Bracket",
    "Factor",
    "BracketedWord",
    "generators",
    "make_word",
    "letter_word",
    "depth",
    "breadth",
    "size",
    "letter_count",
    "to_canonical",
    "from_canonical",
    "canonical_key",
    "MAX_NESTING",
    "words_of_size",
    "words_up_to_size",
]

_NAME = re.compile(r"[A-Za-z][A-Za-z0-9_]*")

#: Deepest bracket nesting accepted from text, by :func:`from_canonical`
#: and by the expression parser.  :func:`from_canonical` keeps its own
#: stack, but the expression evaluator recurses once per level, so the
#: cap keeps every accepted input inside the interpreter's recursion
#: limit.
MAX_NESTING = 100


class WordError(ValueError):
    """Base class for malformed word constructions."""


class AlternationViolation(WordError):
    """Two adjacent factors of the same kind."""


class EmptyInput(WordError):
    """An empty run, an empty factor sequence, or an empty symbol name."""


@dataclass(frozen=True)
class GeneratorSymbol:
    """A named generator.  Names are nonempty identifiers."""

    name: str

    def __post_init__(self) -> None:
        if not self.name:
            raise EmptyInput("generator name is empty")
        if not _NAME.fullmatch(self.name):
            raise WordError(f"invalid generator name: {self.name!r}")

    def __str__(self) -> str:
        return self.name

    def __hash__(self) -> int:
        # The dataclass hash would build hash((name,)) on every call;
        # the string caches its own hash.
        return hash(self.name)


def generators(*names: str) -> tuple[GeneratorSymbol, ...]:
    """Convenience constructor for several distinct symbols at once."""
    if len(set(names)) != len(names):
        raise WordError(f"duplicate generator names in {', '.join(names)}")
    return tuple(GeneratorSymbol(n) for n in names)


@dataclass(frozen=True)
class Letters:
    """A factor holding a nonempty run of generator letters."""

    run: tuple[GeneratorSymbol, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "run", tuple(self.run))
        if not self.run:
            raise EmptyInput("letter run is empty")
        for sym in self.run:
            if not isinstance(sym, GeneratorSymbol):
                raise TypeError(f"not a generator symbol: {sym!r}")


@dataclass(frozen=True)
class Bracket:
    """A factor enclosing a smaller word."""

    inner: "BracketedWord"

    def __post_init__(self) -> None:
        if not isinstance(self.inner, BracketedWord):
            raise TypeError(f"bracket content must be a word: {self.inner!r}")


Factor = Union[Letters, Bracket]


class BracketedWord(str):
    """A nonempty sequence of factors with alternating kinds, held as its canonical text.

    Adjacent factors never share a kind: letter runs are maximal and
    brackets never touch.  The constructor enforces this, so every
    reachable instance is well formed.
    """

    __slots__ = ()

    def __new__(cls, factors: Iterable[Factor]) -> "BracketedWord":
        factors = tuple(factors)
        if not factors:
            raise EmptyInput("word has no factors")
        previous: type | None = None
        for f in factors:
            if not isinstance(f, (Letters, Bracket)):
                raise TypeError(f"not a factor: {f!r}")
            if type(f) is previous:
                raise AlternationViolation(
                    "adjacent factors of the same kind in " + "*".join(map(_factor_str, factors))
                )
            previous = type(f)
        return str.__new__(cls, "*".join(map(_factor_str, factors)))

    @property
    def factors(self) -> tuple[Factor, ...]:
        """The factors, parsed from the text on each access."""
        found: list[Factor] = []
        pos = 0
        while pos < len(self):
            if self[pos] == "[":
                end = _close(self, pos)
                found.append(Bracket(_word(self[pos + 1 : end])))
                pos = end + 2
            else:
                # A run ends at the bracket after it, or at the end.
                end = self.find("*[", pos)
                end = len(self) if end < 0 else end
                found.append(Letters(tuple(map(GeneratorSymbol, self[pos:end].split("*")))))
                pos = end + 1
        return tuple(found)

    def __repr__(self) -> str:
        return f"from_canonical({str(self)!r})"

    def __reduce__(self):
        return from_canonical, (str(self),)


#: The word whose text is ``text``, with nothing checked; only for text
#: known to be canonical.
_word = partial(str.__new__, BracketedWord)

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


def make_word(factors: Iterable[Factor]) -> BracketedWord:
    """Build a word from a factor sequence, validating alternation."""
    return BracketedWord(tuple(factors))


def letter_word(*syms: GeneratorSymbol) -> BracketedWord:
    """The word consisting of one run of the given letters."""
    return BracketedWord((Letters(syms),))


def depth(w: BracketedWord) -> int:
    """Maximal bracket nesting over the factors of ``w``."""
    return canonical_key(w)[1]


def breadth(w: BracketedWord) -> int:
    """Number of factors of ``w``."""
    return len(w.factors)


def letter_count(w: BracketedWord) -> int:
    """Total number of generator letters, at all nesting levels."""
    return w.count("*") + 1


def size(w: BracketedWord) -> int:
    """Letters plus bracket pairs."""
    return letter_count(w) + w.count("[")


def _factor_str(f: Factor) -> str:
    if isinstance(f, Letters):
        return "*".join(s.name for s in f.run)
    return "[" + f.inner + "]"


def to_canonical(w: BracketedWord) -> str:
    """Serialize: letters joined by ``*``, brackets as ``[...]``."""
    return str(w)


def from_canonical(text: str) -> BracketedWord:
    """Parse the exact output format of :func:`to_canonical`.

    This reads single words only; it is not the expression parser.
    Brackets nested more than :data:`MAX_NESTING` deep raise
    :class:`WordError`.  The parser keeps its own stack of open
    brackets, so it does not recurse.
    """
    # Each open bracket saves the factors read so far of the word around it.
    outer: list[list[Factor]] = []
    factors: list[Factor] = []
    run: list[GeneratorSymbol] = []
    pos = 0
    expect_item = True
    while True:
        if expect_item:
            if pos < len(text) and text[pos] == "[":
                if len(outer) >= MAX_NESTING:
                    raise WordError(
                        f"bracket nesting deeper than {MAX_NESTING} levels at position {pos}"
                    )
                if run:
                    factors.append(Letters(tuple(run)))
                    run = []
                outer.append(factors)
                factors = []
                pos += 1
                continue
            m = _NAME.match(text, pos)
            if not m:
                raise WordError(f"expected a letter or bracket at position {pos}")
            run.append(GeneratorSymbol(m.group()))
            pos = m.end()
            expect_item = False
        elif pos < len(text) and text[pos] == "*":
            pos += 1
            expect_item = True
        else:
            if run:
                factors.append(Letters(tuple(run)))
                run = []
            if not outer:
                break
            inner = BracketedWord(tuple(factors))
            if pos >= len(text) or text[pos] != "]":
                raise WordError(f"unclosed bracket at position {pos}")
            pos += 1
            factors = outer.pop()
            factors.append(Bracket(inner))
    if pos < len(text) and text[pos] == "]":
        raise WordError(f"unmatched closing bracket at position {pos}")
    word = BracketedWord(tuple(factors))
    if pos != len(text):
        raise WordError(f"trailing input at position {pos}: {text[pos:]!r}")
    return word


# Deletes all but the brackets from a word's text.
_BRACKETS_ONLY = str.maketrans("", "", "*_0123456789" + string.ascii_letters)


def canonical_key(w: BracketedWord) -> tuple[int, int, str]:
    """Sort key realizing the canonical order on words.

    Words compare first by total letter count, then by depth, then
    lexicographically on the canonical text.  The key is read from the
    text on each call: kept in a memo, it made the ``session`` benchmark
    no faster and its peak memory larger.
    """
    text = str(w)
    deepest = 0
    if "[" in text:
        # Each pass deletes the innermost bracket pairs.
        brackets = text.translate(_BRACKETS_ONLY)
        while brackets:
            brackets = brackets.replace("[]", "")
            deepest += 1
    return letter_count(text), deepest, text


@lru_cache(maxsize=None)
def words_of_size(alphabet: tuple[GeneratorSymbol, ...], n: int) -> tuple[BracketedWord, ...]:
    """All words of exact size ``n`` over ``alphabet``, canonically ordered."""
    if n <= 0:
        return ()
    found: list[BracketedWord] = []

    def extend(prefix: list[Factor], prev_letters: bool | None, remaining: int) -> None:
        if remaining == 0:
            found.append(BracketedWord(tuple(prefix)))
            return
        if prev_letters is not True:
            for k in range(1, remaining + 1):
                for run in _cartesian(alphabet, repeat=k):
                    prefix.append(Letters(run))
                    extend(prefix, True, remaining - k)
                    prefix.pop()
        if prev_letters is not False:
            # A bracket factor of size k wraps an inner word of size k - 1.
            for k in range(2, remaining + 1):
                for inner in words_of_size(alphabet, k - 1):
                    prefix.append(Bracket(inner))
                    extend(prefix, False, remaining - k)
                    prefix.pop()

    extend([], None, n)
    return tuple(sorted(found, key=canonical_key))


@lru_cache(maxsize=None)
def words_up_to_size(
    alphabet: tuple[GeneratorSymbol, ...], max_size: int
) -> tuple[BracketedWord, ...]:
    """All words of size at most ``max_size``, canonically ordered."""
    pool: list[BracketedWord] = []
    for n in range(1, max_size + 1):
        pool.extend(words_of_size(alphabet, n))
    return tuple(sorted(pool, key=canonical_key))


def iter_symbols(w: BracketedWord) -> Iterator[GeneratorSymbol]:
    """Every generator occurrence in ``w``, left to right."""
    return map(GeneratorSymbol, _NAME.findall(w))
