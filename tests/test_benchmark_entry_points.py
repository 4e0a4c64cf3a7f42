"""The names the benchmark worker (``perfbench/worker.py``) imports from the program.

The worker runs every op through :func:`nijenhuis.cli.run_command`, and
checks that printed ``eval``/``mul`` output parses and evaluates back to
the same text with :func:`parse_expr`, :func:`eval_expr` and
:func:`print_canonical`.  Removing or renaming one of them breaks the
benchmark, so they are pinned here, together with that round trip.  A
text that raises a :class:`ValueError` on the way is a failed round
trip.
"""

from __future__ import annotations

import contextlib
import io

import pytest

from nijenhuis.algebra import MAX_TERMS, TooManyTerms, command_scope
from nijenhuis.cli import run_command
from nijenhuis.parser import ParseError, UnknownIdentifier, eval_expr, parse_expr, print_canonical


@pytest.mark.parametrize(
    "left, right",
    [("[x]", "[y]"), ("-3*y", "x"), ("1/2*x + [y]", "x*[y] - 2/3*prec(x, y)")],
)
def test_printed_mul_round_trips(left, right):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = run_command(["mul", "--generators", "x,y", "--", left, right])
    assert rc == 0
    text = out.getvalue().rstrip("\n")
    assert text and text != "0"
    assert print_canonical(eval_expr(parse_expr(text), ["x", "y"])) == text


def test_printed_eval_round_trips():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = run_command(["eval", "--generators", "x,y", "--", "[prec(x, y)] - 1/2*star(x, [y])"])
    assert rc == 0
    text = out.getvalue().rstrip("\n")
    assert text == "1/2*[[x*y]] - 1/2*[[x]*y] + [x*[y]] - 1/2*x*[[y]]"
    assert print_canonical(eval_expr(parse_expr(text), ["x", "y"])) == text


@pytest.mark.parametrize(
    "text, cap, error, at_parse",
    [
        ("x + (", MAX_TERMS, ParseError, True),
        ("x*q", MAX_TERMS, UnknownIdentifier, False),
        ("[x]*[y]", 2, TooManyTerms, False),
    ],
)
def test_failed_round_trips_raise_value_errors(text, cap, error, at_parse):
    assert issubclass(error, ValueError)
    with command_scope(cap):
        if at_parse:
            with pytest.raises(error):
                parse_expr(text)
        else:
            expr = parse_expr(text)
            with pytest.raises(error):
                eval_expr(expr, ["x", "y"])
