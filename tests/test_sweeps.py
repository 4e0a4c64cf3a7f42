"""The shared sweep routines find the first failure, and only a failure.

The free product passes both sweeps everywhere, so each routine is also
run on a product known to fail, and its answer is checked against a
plain triple or double loop over the same elements.
"""

from __future__ import annotations

import json

from nijenhuis import algebra
from nijenhuis.algebra import (
    OpSymbol,
    derived_op,
    first_nonassociative_triple,
    first_operator_identity_failure,
    operator_n,
    product,
)
from nijenhuis.cli import run_command
from nijenhuis.linalg import LinComb
from nijenhuis.words import letter_word, size, words_up_to_size

from conftest import ALPHABET_XY

X, _ = ALPHABET_XY
ELEMENTS = [LinComb.from_word(w) for w in words_up_to_size(ALPHABET_XY, 2)]


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


def first_identity_failure_reference(elements):
    mul, op = algebra.product, operator_n
    for i, a in enumerate(elements):
        for j, b in enumerate(elements):
            lhs = mul(op(a), op(b))
            rhs = op(mul(op(a), b)) + op(mul(a, op(b))) - op(op(mul(a, b)))
            if lhs != rhs:
                return (i, j), lhs, rhs
    return None


def _found(report):
    return report.indices, report.lhs, report.rhs


def test_prec_is_not_associative():
    failure = first_nonassociative_triple(ELEMENTS, prec)
    assert failure is not None and not failure.ok
    assert failure.kind == "associativity"
    assert _found(failure) == first_nonassociative_reference(ELEMENTS, prec)
    assert failure.describe().startswith(f"associativity fails at {failure.indices}: lhs=")


def test_the_product_is_associative():
    assert first_nonassociative_triple(ELEMENTS) is None
    assert first_nonassociative_reference(ELEMENTS, product) is None


def test_the_identity_fails_for_a_product_ending_in_x(monkeypatch):
    # The sweep reads the module-level product.  With a . b = a b x the
    # left side ends in the letter x and the right side is one bracket.
    exact, x = algebra.product, LinComb.from_word(letter_word(X))
    monkeypatch.setattr(algebra, "product", lambda a, b: exact(exact(a, b), x))
    failure = first_operator_identity_failure(ELEMENTS)
    assert failure is not None and not failure.ok
    assert failure.kind == "operator-identity"
    assert _found(failure) == first_identity_failure_reference(ELEMENTS)


def test_the_identity_holds_for_a_scaled_product(monkeypatch):
    # Both sides are linear in the product, so 2 (a b) passes too.
    exact = algebra.product
    monkeypatch.setattr(algebra, "product", lambda a, b: exact(a, b).scale(2))
    assert first_operator_identity_failure(ELEMENTS) is None
    assert first_identity_failure_reference(ELEMENTS) is None


def _break_the_product(monkeypatch) -> None:
    """Scale every product by the size of the left operand's largest word, on a fresh cache."""
    exact = algebra.product
    monkeypatch.setattr(algebra, "_PRODUCT_CACHE", {})

    def scaled(a, b):
        return exact(a, b).scale(max(map(size, a._terms), default=0))

    monkeypatch.setattr(algebra, "product", scaled)


def test_assoc_check_reports_the_first_failing_triple(monkeypatch, capsys):
    _break_the_product(monkeypatch)
    assert run_command(["assoc-check", "--max-size", "2"]) == 1
    assert capsys.readouterr().out == "associativity fails at (x, x, x)\n"
    assert run_command(["assoc-check", "--json", "--max-size", "2"]) == 1
    out = json.loads(capsys.readouterr().out)
    assert out["ok"] is False and out["triple"] == ["x", "x", "x"]
    assert out["lhs"] != out["rhs"]


def test_nijenhuis_check_reports_the_first_failing_pair(monkeypatch, capsys):
    _break_the_product(monkeypatch)
    assert run_command(["nijenhuis-check", "--max-size", "2"]) == 1
    assert capsys.readouterr().out == "operator identity fails at (x, x)\n"
    assert run_command(["nijenhuis-check", "--json", "--max-size", "2"]) == 1
    out = json.loads(capsys.readouterr().out)
    assert out["ok"] is False and out["pair"] == ["x", "x"]
    assert out["lhs"] != out["rhs"]
