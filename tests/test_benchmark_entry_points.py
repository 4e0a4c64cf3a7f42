"""The names the benchmark worker (``perfbench/worker.py``) imports from the program.

The worker runs every op through :func:`nijenhuis.cli.run_command`, and
checks that printed ``eval``/``mul`` output parses and evaluates back to
the same text with :func:`parse_expr`, :func:`eval_expr` and
:func:`print_canonical`.  Removing or renaming one of them breaks the
benchmark, so they are pinned here, together with that round trip.
"""

from __future__ import annotations

import contextlib
import io

import pytest

from nijenhuis.cli import run_command
from nijenhuis.parser import eval_expr, parse_expr, print_canonical


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
