"""The shared sweep routines find the first failure, and only a failure.

The free product passes both sweeps everywhere, so each routine is also
run on a product known to fail, and its answer is checked against a
plain triple or double loop over the same elements.  With no ``mul``
the sweeps take basis words and work on term dicts; with an explicit
``mul`` they run the generic loop on whatever elements they are given.
The two must agree on the exact product, under a faulted junction
product, and on where the term cap stops them.  Reversal, read on the
tuple model of :mod:`conftest`, checks the product apart from both
loops: it must turn each product around, and the asymmetric faults
must break that.
"""

from __future__ import annotations

import json

import pytest

from nijenhuis import algebra
from nijenhuis.algebra import (
    OpSymbol,
    TooManyTerms,
    command_scope,
    derived_op,
    first_nonassociative_triple,
    first_operator_identity_failure,
    operator_n,
    product,
)
from nijenhuis.cli import run_command
from nijenhuis.linalg import LinComb
from nijenhuis.words import generators, letter_word, size, words_up_to_size

from conftest import ALPHABET_XY, parse_reference, reference_text

X, _ = ALPHABET_XY
WORDS = words_up_to_size(ALPHABET_XY, 2)
ELEMENTS = [LinComb.from_word(w) for w in WORDS]

# The word sets on which the word path must agree with the generic loop.
DIFFERENTIAL = pytest.mark.parametrize(
    "alphabet, max_size",
    [(ALPHABET_XY, 3), (generators("a"), 4), (generators("a", "b", "c"), 2)],
    ids=["x,y-3", "a-4", "a,b,c-2"],
)


def prec(a: LinComb, b: LinComb) -> LinComb:
    return derived_op(OpSymbol.PREC, a, b)


def first_nonassociative_reference(elements, mul):
    n = len(elements)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                a, b, c = elements[i], elements[j], elements[k]
                lhs, rhs = mul(mul(a, b), c), mul(a, mul(b, c))
                if lhs != rhs:
                    return (i, j, k), lhs, rhs
    return None


def first_identity_failure_reference(elements, mul):
    op = operator_n
    for i, a in enumerate(elements):
        for j, b in enumerate(elements):
            lhs = mul(op(a), op(b))
            rhs = op(mul(op(a), b)) + op(mul(a, op(b))) - op(op(mul(a, b)))
            if lhs != rhs:
                return (i, j), lhs, rhs
    return None


def _found(report):
    return report.indices, report.lhs, report.rhs


def _lincomb_json(a: LinComb) -> dict:
    return {"terms": [{"coeff": str(c), "word": w} for w, c in a]}


def test_prec_is_not_associative():
    failure = first_nonassociative_triple(ELEMENTS, prec)
    assert failure is not None and not failure.ok
    assert failure.kind == "associativity"
    assert _found(failure) == first_nonassociative_reference(ELEMENTS, prec)
    assert failure.describe().startswith(f"associativity fails at {failure.indices}: lhs=")


def test_the_product_is_associative():
    assert first_nonassociative_triple(WORDS) is None
    assert first_nonassociative_triple(ELEMENTS, product) is None
    assert first_nonassociative_reference(ELEMENTS, product) is None


def test_the_identity_fails_for_a_product_ending_in_x():
    # With a . b = a b x the left side ends in the letter x and the
    # right side is one bracket.
    x = LinComb.from_word(letter_word(X))

    def ending_in_x(a, b):
        return product(product(a, b), x)

    failure = first_operator_identity_failure(ELEMENTS, ending_in_x)
    assert failure is not None and not failure.ok
    assert failure.kind == "operator-identity"
    assert _found(failure) == first_identity_failure_reference(ELEMENTS, ending_in_x)


def test_the_identity_holds_for_a_scaled_product():
    # Both sides are linear in the product, so 2 (a b) passes too.
    def doubled(a, b):
        return product(a, b).scale(2)

    assert first_operator_identity_failure(ELEMENTS, doubled) is None
    assert first_identity_failure_reference(ELEMENTS, doubled) is None


def _double_deep_junctions(monkeypatch) -> None:
    """Double every junction product whose operands hold three brackets or more, on a fresh cache."""
    exact = algebra._product_terms
    monkeypatch.setattr(algebra, "_PRODUCT_CACHE", {})

    def doubled(u, v):
        terms = exact(u, v)
        return {w: 2 * c for w, c in terms.items()} if (u + v).count("[") >= 3 else terms

    monkeypatch.setattr(algebra, "_product_terms", doubled)


def _generic_reports(words):
    elements = [LinComb.from_word(w) for w in words]
    return (
        first_nonassociative_triple(elements, product),
        first_operator_identity_failure(elements, product, operator_n),
    )


@DIFFERENTIAL
def test_the_word_path_agrees_with_the_generic_loop(alphabet, max_size):
    words = words_up_to_size(alphabet, max_size)
    reports = (first_nonassociative_triple(words), first_operator_identity_failure(words))
    assert reports == (None, None)
    assert _generic_reports(words) == reports


@DIFFERENTIAL
def test_the_word_path_agrees_with_the_generic_loop_on_faulted_junctions(alphabet, max_size, monkeypatch):
    _double_deep_junctions(monkeypatch)
    words = words_up_to_size(alphabet, max_size)
    reports = (first_nonassociative_triple(words), first_operator_identity_failure(words))
    # Equal reports: the same kind, indices and sides.
    assert reports == _generic_reports(words)
    if alphabet == ALPHABET_XY:
        assert [r.indices for r in reports] == [(2, 2, 4), (0, 2)]


def _collapse_deep_junctions(monkeypatch) -> None:
    """Turn every junction product whose operands hold three brackets or more into its first word, on a fresh cache."""
    exact = algebra._product_terms
    monkeypatch.setattr(algebra, "_PRODUCT_CACHE", {})

    def collapsed(u, v):
        terms = exact(u, v)
        return {next(iter(terms)): 1} if (u + v).count("[") >= 3 else terms

    monkeypatch.setattr(algebra, "_product_terms", collapsed)


@DIFFERENTIAL
def test_the_word_path_agrees_with_the_generic_loop_on_one_word_junctions(alphabet, max_size, monkeypatch):
    # A side of one word with coefficient 1 is held as its text, so one
    # read from a junction must be turned into text as well, or equal
    # sides would compare unequal.
    _collapse_deep_junctions(monkeypatch)
    words = words_up_to_size(alphabet, max_size)
    reports = (first_nonassociative_triple(words), first_operator_identity_failure(words))
    assert reports == _generic_reports(words)


def _drop_suffixes_after_two_brackets(monkeypatch) -> None:
    """Drop the suffix of every junction product whose left word holds a bracket before its last one, on a fresh cache."""
    exact = algebra._product_terms
    monkeypatch.setattr(algebra, "_PRODUCT_CACHE", {})

    def dropped(u, v):
        if u[-1] == "]" and v[0] == "[" and "[" in algebra._split_last(u)[0]:
            return exact(u, algebra._split_first(v)[0])
        return exact(u, v)

    monkeypatch.setattr(algebra, "_product_terms", dropped)


@DIFFERENTIAL
def test_the_word_path_agrees_with_the_generic_loop_when_long_left_words_drop_suffixes(
    alphabet, max_size, monkeypatch
):
    # Only a product whose left word has two top-level brackets meets this
    # fault.  Over {x, y} to size 3 neither a pair of words nor a triple
    # of single brackets reaches one, so a sweep of those alone would
    # pass; the full sweep fails, where the generic loop does.
    _drop_suffixes_after_two_brackets(monkeypatch)
    words = words_up_to_size(alphabet, max_size)
    reports = (first_nonassociative_triple(words), first_operator_identity_failure(words))
    assert reports == _generic_reports(words)
    triple = reports[0].indices if reports[0] else None
    assert triple == {ALPHABET_XY: (2, 18, 12), generators("a"): (1, 7, 6)}.get(alphabet)


def _flip_the_junction_rule(monkeypatch) -> None:
    """Add ``[[u . v]]`` where the junction rule subtracts it, on a fresh cache; nothing else changes."""
    exact = algebra._junction
    monkeypatch.setattr(algebra, "_PRODUCT_CACHE", {})

    def flipped(key, left, right, inner):
        return exact(key, left, right, {w: -c for w, c in inner.items()})

    monkeypatch.setattr(algebra, "_junction", flipped)


@DIFFERENTIAL
def test_the_word_path_checks_the_junction_rule_against_its_own_sum(alphabet, max_size, monkeypatch):
    # The left side is the junction memo, built by the rule; the right
    # side is summed apart from it, so a faulted rule must show.
    _flip_the_junction_rule(monkeypatch)
    words = words_up_to_size(alphabet, max_size)
    report = first_operator_identity_failure(words)
    assert report is not None and report.indices == (0, 0)
    assert report == _generic_reports(words)[1]


def test_nijenhuis_check_compares_a_warm_junction_and_keeps_it(monkeypatch, capsys):
    # One wrong entry for ([x], [y]) in a fresh cache: the sweep reads it
    # as the left side at that pair, and never rebuilds it.
    planted = {"[[x]*y]": 1}
    monkeypatch.setattr(algebra, "_PRODUCT_CACHE", {("[x]", "[y]"): planted})
    assert run_command(["nijenhuis-check", "--max-size", "2"]) == 1
    assert capsys.readouterr().out == "operator identity fails at (x, y)\n"
    assert run_command(["nijenhuis-check", "--json", "--max-size", "2"]) == 1
    out = json.loads(capsys.readouterr().out)
    assert out["pair"] == ["x", "y"] and out["lhs"] == _lincomb_json(LinComb(planted))
    assert algebra._PRODUCT_CACHE[("[x]", "[y]")] is planted


# Over {x, y} to size 3 the first product over caps 1 and 2 has 3 terms.
# assoc-check then stops on 11 terms up to cap 10 and passes from 11;
# nijenhuis-check stops on 5 terms at caps 3 and 4, on 13 up to cap 12,
# and passes from 13.  Over {a, b, c} to size 2, the benchmark's
# assoc-check shape, the first product over cap 1 has 3 terms.
@pytest.mark.parametrize("cap", [1, 2, 3, 4, 5, 11, 13])
@pytest.mark.parametrize("sweep", [first_nonassociative_triple, first_operator_identity_failure])
def test_the_word_path_stops_at_the_term_cap_where_the_generic_loop_does(sweep, cap):
    # Both check the same products in the same order, so the first one
    # over the cap, and its message, are the same.
    for words in (words_up_to_size(ALPHABET_XY, 3), words_up_to_size(generators("a", "b", "c"), 2)):
        elements = [LinComb.from_word(w) for w in words]
        outcomes = []
        for args in ((words,), (elements, product)):
            with command_scope(cap):
                try:
                    outcomes.append(sweep(*args))
                except TooManyTerms as exc:
                    outcomes.append(str(exc))
        assert outcomes[0] == outcomes[1]
    if cap == 1 and sweep is first_nonassociative_triple:
        assert outcomes[0] == "a product has 3 terms, more than the cap of 1"


def _break_the_junctions(monkeypatch) -> None:
    """Scale every junction product by the size of its left word, on a fresh cache."""
    exact = algebra._product_terms
    monkeypatch.setattr(algebra, "_PRODUCT_CACHE", {})
    monkeypatch.setattr(algebra, "_product_terms", lambda u, v: {w: size(u) * c for w, c in exact(u, v).items()})


def test_assoc_check_reports_the_first_failing_triple(monkeypatch, capsys):
    _break_the_junctions(monkeypatch)
    indices, lhs, rhs = first_nonassociative_reference(ELEMENTS, product)
    triple = [WORDS[i] for i in indices]
    assert run_command(["assoc-check", "--max-size", "2"]) == 1
    assert capsys.readouterr().out == f"associativity fails at ({', '.join(triple)})\n"
    assert run_command(["assoc-check", "--json", "--max-size", "2"]) == 1
    out = json.loads(capsys.readouterr().out)
    assert out == {"ok": False, "triple": triple, "lhs": _lincomb_json(lhs), "rhs": _lincomb_json(rhs)}


def test_nijenhuis_check_reports_the_first_failing_pair(monkeypatch, capsys):
    _break_the_junctions(monkeypatch)
    indices, lhs, rhs = first_identity_failure_reference(ELEMENTS, product)
    pair = [WORDS[i] for i in indices]
    assert run_command(["nijenhuis-check", "--max-size", "2"]) == 1
    assert capsys.readouterr().out == f"operator identity fails at ({', '.join(pair)})\n"
    assert run_command(["nijenhuis-check", "--json", "--max-size", "2"]) == 1
    out = json.loads(capsys.readouterr().out)
    assert out == {"ok": False, "pair": pair, "lhs": _lincomb_json(lhs), "rhs": _lincomb_json(rhs)}


def reverse(w: tuple) -> tuple:
    """The reversal of a tuple-model word: its factors, each run's letters, and inside each bracket."""
    return tuple((kind, body[::-1] if kind == "L" else reverse(body)) for kind, body in reversed(w))


def broken_reversals() -> int:
    """How many pairs, u of size at most 5 and v at most 3 over {x, y}, have rev(u . v) != rev(v) . rev(u)."""
    left, right = words_up_to_size(ALPHABET_XY, 5), words_up_to_size(ALPHABET_XY, 3)
    reversals: dict[str, str] = {}

    def rev(a: LinComb) -> LinComb:
        for w in a._terms:
            if w not in reversals:
                reversals[w] = reference_text(reverse(parse_reference(w)))
        return LinComb((reversals[w], c) for w, c in a)

    single = {w: LinComb.from_word(w) for w in left}
    return sum(
        rev(product(single[u], single[v])) != product(rev(single[v]), rev(single[u])) for u in left for v in right
    )


@pytest.mark.parametrize(
    "fault, broken",
    [
        (None, False),
        (_drop_suffixes_after_two_brackets, True),
        (_collapse_deep_junctions, True),
        # Doubling hangs on the bracket count alone, which reversal keeps,
        # so the symmetry misses it; the sweeps above catch it.
        (_double_deep_junctions, False),
    ],
    ids=["exact", "dropped-suffixes", "collapsed", "doubled"],
)
def test_reversal_turns_each_product_around(fault, broken, monkeypatch):
    if fault:
        fault(monkeypatch)
    assert bool(broken_reversals()) is broken
