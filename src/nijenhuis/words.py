"""Bracketed words over a finite generator set.

A bracketed word is a nonempty alternating sequence of factors, where a
factor is either a run of generator letters or a bracket enclosing a
smaller bracketed word.  Words of this shape form the monomial basis of
the free Nijenhuis algebra built in :mod:`nijenhuis.algebra`; this module
only knows about their combinatorial structure: construction, concatenation,
enumeration by size, and the canonical text and sort key that each word
stores, built from its inner words' keys, from which its measures are read.

The public constructors check every factor's type and the alternation
of kinds; the parser, :func:`from_canonical`, :func:`make_word` and the
enumeration all go through them.  Three private constructors skip those
checks, for the free product alone.  ``BracketedWord._of`` wraps a factor
tuple: the product only concatenates two words at a mixed junction,
merges the two runs at a letter junction, reattaches untouched outer
factors around a bracket junction's words, or builds a word of one
bracket factor, and none of these can put two factors of one kind side
by side.  ``Letters._of`` wraps the merged run of a letter junction, a
concatenation of two nonempty runs of symbols.  ``Bracket._of`` wraps a
word in a bracket factor, which needs no check beyond the inner word
being one.

``BracketedWord._of`` shares the words it builds.  A module table maps
each factor tuple it was given to the word it built from it, and an
equal tuple later gets that same word back, so the product's equal
words are one object and the dict lookups and comparisons on them end at
the identity test.  The table holds only words the product has built
since it was last emptied.  :func:`nijenhuis.algebra.command_scope`
empties it when each command of the command line tool ends, so a
long-lived process holds at most one command's words, and the table
empties itself when it reaches ``_WORDS_LIMIT`` words, so a command that
builds millions of distinct words, such as a large associativity sweep,
holds a bounded number of them; words built on the two sides of such a
flush are no longer shared.  Sharing cannot change a result: words are
immutable, equality and hashing stay structural, and a word built
anywhere else, by the checked constructors or before the table was
emptied, still compares equal to the shared one.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from enum import IntEnum
from functools import lru_cache
from itertools import product as _cartesian
from typing import Iterable, Iterator, Union

__all__ = [
    "WordError",
    "AlternationViolation",
    "EmptyInput",
    "BracketAdjacency",
    "GeneratorSymbol",
    "Letters",
    "Bracket",
    "Factor",
    "BracketedWord",
    "EndKind",
    "generators",
    "make_word",
    "letter_word",
    "depth",
    "breadth",
    "size",
    "letter_count",
    "head_tail",
    "concat_words",
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
#: stack, but :func:`canonical_key` and the expression evaluator recurse
#: once per level, so the cap keeps every accepted input inside the
#: interpreter's recursion limit.
MAX_NESTING = 100


class WordError(ValueError):
    """Base class for malformed word constructions."""


class AlternationViolation(WordError):
    """Two adjacent factors of the same kind."""


class EmptyInput(WordError):
    """An empty run, an empty factor sequence, or an empty symbol name."""


class BracketAdjacency(WordError):
    """Concatenation would place two bracket factors side by side."""


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


def generators(*names: str) -> tuple[GeneratorSymbol, ...]:
    """Convenience constructor for several distinct symbols at once."""
    if len(set(names)) != len(names):
        raise WordError(f"duplicate generator names in {', '.join(names)}")
    return tuple(GeneratorSymbol(n) for n in names)


@dataclass(frozen=True, slots=True, eq=False)
class Letters:
    """A factor holding a nonempty run of generator letters."""

    run: tuple[GeneratorSymbol, ...]
    _hash: int = field(init=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "run", tuple(self.run))
        if not self.run:
            raise EmptyInput("letter run is empty")
        for sym in self.run:
            if not isinstance(sym, GeneratorSymbol):
                raise TypeError(f"not a generator symbol: {sym!r}")
        object.__setattr__(self, "_hash", hash((Letters, self.run)))

    @classmethod
    def _of(cls, run: tuple[GeneratorSymbol, ...]) -> "Letters":
        """Wrap a nonempty tuple of symbols unchecked; only ``product_words`` uses this."""
        self = object.__new__(cls)
        _set_run(self, run)
        _set_letters_hash(self, hash((Letters, run)))
        return self

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if type(other) is not Letters:
            return NotImplemented
        return self._hash == other._hash and self.run == other.run


@dataclass(frozen=True, slots=True, eq=False)
class Bracket:
    """A factor enclosing a smaller word."""

    inner: "BracketedWord"
    _hash: int = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if not isinstance(self.inner, BracketedWord):
            raise TypeError(f"bracket content must be a word: {self.inner!r}")
        object.__setattr__(self, "_hash", hash((Bracket, self.inner._hash)))

    @classmethod
    def _of(cls, inner: "BracketedWord") -> "Bracket":
        """Wrap a word without the type check; only ``operator_n`` uses this."""
        self = object.__new__(cls)
        _set_inner(self, inner)
        _set_bracket_hash(self, hash((Bracket, inner._hash)))
        return self

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if type(other) is not Bracket:
            return NotImplemented
        return self._hash == other._hash and self.inner == other.inner


Factor = Union[Letters, Bracket]


@dataclass(frozen=True, slots=True, eq=False)
class BracketedWord:
    """A nonempty sequence of factors with alternating kinds.

    Adjacent factors never share a kind: letter runs are maximal and
    brackets never touch.  The constructor enforces this, so every
    reachable instance is well formed.  The hash is computed once from
    the factors' stored hashes; the canonical sort key is stored on
    first use by :func:`canonical_key`.
    """

    factors: tuple[Factor, ...]
    _hash: int = field(init=False, repr=False)
    _key: tuple[int, int, str] | None = field(init=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "factors", tuple(self.factors))
        if not self.factors:
            raise EmptyInput("word has no factors")
        previous: type | None = None
        for f in self.factors:
            if not isinstance(f, (Letters, Bracket)):
                raise TypeError(f"not a factor: {f!r}")
            if type(f) is previous:
                raise AlternationViolation(
                    "adjacent factors of the same kind in "
                    + "*".join(_factor_str(g) for g in self.factors)
                )
            previous = type(f)
        object.__setattr__(self, "_hash", hash(tuple(f._hash for f in self.factors)))
        object.__setattr__(self, "_key", None)

    @classmethod
    def _of(cls, factors: tuple[Factor, ...]) -> "BracketedWord":
        """The word of a factor tuple the caller knows to alternate; nothing is checked.

        Only the free product uses this, for words whose alternation
        follows from how they were built; every other word goes through
        the checked constructor.  A tuple equal to one seen since the
        word table was last emptied gets the word built then.
        """
        self = _WORDS.get(factors)
        if self is None:
            self = object.__new__(cls)
            _set_factors(self, factors)
            _set_hash(self, hash(tuple([f._hash for f in factors])))
            _set_key(self, None)
            if len(_WORDS) >= _WORDS_LIMIT:
                _WORDS.clear()
            _WORDS[factors] = self
        return self

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if type(other) is not BracketedWord:
            return NotImplemented
        return self._hash == other._hash and self.factors == other.factors

    def __str__(self) -> str:
        return to_canonical(self)


# Slot descriptors write past the frozen dataclass's ``__setattr__``.
_set_run = Letters.run.__set__
_set_letters_hash = Letters._hash.__set__
_set_inner = Bracket.inner.__set__
_set_bracket_hash = Bracket._hash.__set__
_set_factors = BracketedWord.factors.__set__
_set_hash = BracketedWord._hash.__set__
_set_key = BracketedWord._key.__set__

#: The words ``BracketedWord._of`` has built, by factor tuple; see the
#: module docstring for when it is emptied.
_WORDS: dict[tuple[Factor, ...], BracketedWord] = {}
# Emptying the table when it is full bounds the words one command holds:
# kept for the whole command, the words of ``assoc-check --alphabet x,y,z
# --max-size 3`` took its peak memory from 60 to 158 MB.  The limit is
# small so that most shared words still die young: held longer, they
# reach the garbage collector's oldest generation, and with a limit of
# 32768 its extra full collections made ``assoc-check --max-size 4``
# 20-40% slower than with no sharing at all.
_WORDS_LIMIT = 4096


class EndKind(IntEnum):
    """Kind of a word's first or last factor."""

    GENERATOR = 0
    BRACKET = 1


def make_word(factors: Iterable[Factor]) -> BracketedWord:
    """Build a word from a factor sequence, validating alternation."""
    return BracketedWord(tuple(factors))


def letter_word(*syms: GeneratorSymbol) -> BracketedWord:
    """The word consisting of one run of the given letters."""
    return BracketedWord((Letters(syms),))


def _kind(f: Factor) -> EndKind:
    return EndKind.GENERATOR if isinstance(f, Letters) else EndKind.BRACKET


def depth(w: BracketedWord) -> int:
    """Maximal bracket nesting over the factors of ``w``."""
    return canonical_key(w)[1]


def breadth(w: BracketedWord) -> int:
    """Number of factors of ``w``."""
    return len(w.factors)


def letter_count(w: BracketedWord) -> int:
    """Total number of generator letters, at all nesting levels."""
    return canonical_key(w)[0]


def size(w: BracketedWord) -> int:
    """Letters plus bracket pairs; names are identifiers, so each ``[`` opens a pair."""
    letters, _, text = canonical_key(w)
    return letters + text.count("[")


def head_tail(w: BracketedWord) -> tuple[EndKind, EndKind]:
    """Kinds of the first and last factor."""
    return _kind(w.factors[0]), _kind(w.factors[-1])


def concat_words(u: BracketedWord, v: BracketedWord) -> BracketedWord:
    """Concatenate two words, merging a letter-letter junction.

    Raises :class:`BracketAdjacency` when both junction factors are
    brackets; that juxtaposition is not a basis word.
    """
    last, first = u.factors[-1], v.factors[0]
    if isinstance(last, Letters) and isinstance(first, Letters):
        merged = Letters(last.run + first.run)
        return BracketedWord(u.factors[:-1] + (merged,) + v.factors[1:])
    if isinstance(last, Bracket) and isinstance(first, Bracket):
        raise BracketAdjacency(f"cannot concatenate {u} with {v}")
    return BracketedWord(u.factors + v.factors)


def _factor_str(f: Factor) -> str:
    if isinstance(f, Letters):
        return "*".join(s.name for s in f.run)
    return "[" + canonical_key(f.inner)[2] + "]"


def to_canonical(w: BracketedWord) -> str:
    """Serialize: letters joined by ``*``, brackets as ``[...]``."""
    return canonical_key(w)[2]


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


def canonical_key(w: BracketedWord) -> tuple[int, int, str]:
    """Sort key realizing the canonical order on words.

    Words compare first by total letter count, then by depth, then
    lexicographically on the canonical serialization.  The key is built
    from the keys stored on the inner words and stored on ``w``, so each
    word object is walked once.
    """
    key = w._key
    if key is None:
        letters = deepest = 0
        for f in w.factors:
            if isinstance(f, Letters):
                letters += len(f.run)
            else:
                inner_letters, inner_depth, _ = canonical_key(f.inner)
                letters += inner_letters
                deepest = max(deepest, inner_depth + 1)
        key = (letters, deepest, "*".join(_factor_str(f) for f in w.factors))
        object.__setattr__(w, "_key", key)
    return key


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
    """Yield every generator occurrence in ``w``, left to right, outside in."""
    for f in w.factors:
        if isinstance(f, Letters):
            yield from f.run
        else:
            yield from iter_symbols(f.inner)
