"""The direct argv reader agrees with the full parser wherever it reads.

:func:`nijenhuis.cli._read_args` returns ``None`` wherever the full
parser must decide; everywhere else it must build the namespace the
full parser builds.  The argv drawn here mix every command's exact
options with ``--opt=value``, abbreviations, values that start with
``-`` or hold a space, empty strings, negative numbers, one or two
``--``, surplus or missing positionals and bad integers.  ``argparse``
reads ``--`` differently across Python versions, so this test runs on
each version the project supports.
"""

from __future__ import annotations

import contextlib
import io

from hypothesis import event, example, given, settings, strategies as st

from nijenhuis import cli
from nijenhuis.cli import build_parser

COMMANDS = sorted(cli._COMMANDS)
FLAGS = sorted({flags[0] for _, _, arguments in cli._COMMANDS.values() for flags, _ in arguments if flags[0][0] == "-"})
VALUES = ("x", "x,y", "e1", "3", "0", "-1", "", " 2", "9" * 5000, "abc", "x y", "-x + y", "a=b", "[x]*y")
ODD_TOKENS = ("--", "-h", "--help", "--js", "--gen", "--max", "--bo", "-x", "-", "--bogus", "--json=1")

values = st.sampled_from(VALUES)
int_values = st.sampled_from(("3", "0", " 2", "+4", "٣", "-1", "abc", "1.5", "", "9" * 5000))
flags = st.sampled_from([*FLAGS, "--json"])
tokens = st.one_of(
    values,
    flags,
    st.sampled_from(ODD_TOKENS),
    st.builds(lambda flag, value: f"{flag}={value}", flags, values),
    st.sampled_from(COMMANDS),
)


@st.composite
def near_commands(draw) -> list[str]:
    """A command with about its own positionals and options, in any order, and maybe ``--``."""
    name = draw(st.sampled_from(COMMANDS))
    arguments = cli._COMMANDS[name][2]
    own = {flags[0]: kwargs for flags, kwargs in arguments if flags[0][0] == "-"}
    count = len(arguments) - len(own)
    size = draw(st.sampled_from([count, count, count + 1, max(count - 1, 0)]))
    units = [[value] for value in draw(st.lists(values, min_size=size, max_size=size))]
    chosen = draw(st.lists(st.sampled_from([*own, "--json"]), max_size=3))
    chosen += draw(st.lists(st.sampled_from([*FLAGS, *ODD_TOKENS]), max_size=1))
    for flag in chosen:
        if flag == "--json" or flag in ODD_TOKENS:
            units.append([flag])
            continue
        value = draw(int_values if own.get(flag, {}).get("type") is int else values)
        units.append([f"{flag}={value}"] if draw(st.booleans()) else [flag, value])
    argv = [token for unit in draw(st.permutations(units)) for token in unit]
    for _ in range(draw(st.sampled_from([0, 0, 1, 2]))):
        argv.insert(draw(st.integers(0, len(argv))), "--")
    return [name, *argv]


argvs = st.one_of(
    near_commands(),
    st.builds(
        lambda head, rest: [head, *rest],
        st.one_of(st.sampled_from(COMMANDS), st.sampled_from(["mu", "-h", "--", ""])),
        st.lists(tokens, max_size=7),
    ),
)


def full_parse(argv: list[str]) -> dict | None:
    """``vars()`` of the full parser's namespace, or ``None`` where it exits."""
    sink = io.StringIO()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            return vars(build_parser().parse_args(argv))
    except SystemExit:
        return None


@settings(max_examples=1000)
@given(argvs)
@example(["ns-check", "--"])
@example(["eval", "--", "--"])
@example(["eval", "--", "-x"])
@example(["mul", "--gen", "x,y", "x", "y"])
@example(["mul", "x", "--", "y"])
@example(["ideal-member", "f", "e1", "--bound=3"])
@example(["eval", "--generators=--", "x"])
def test_the_reader_builds_what_the_full_parser_builds_or_defers(argv):
    read = cli._read_args(argv)
    full = full_parse(argv)
    event("read" if read is not None else "deferred, parsed" if full is not None else "deferred, refused")
    if full is None:
        assert read is None
    elif read is not None:
        assert vars(read) == full
