"""The golden output of the CLI, replayed in one process.

``fixtures/cli_golden_commands.txt`` lists the commands and
``fixtures/cli_golden.txt`` holds their standard output, with a line
``exit N`` after each command that exits with a nonzero status ``N``.
The CI workflow replays the same list with the installed program, one
process per command, under two hash seeds; this test replays it in one
process, so a changed byte fails the tier-1 suite too.  It replays the
list twice, first on empty memos and then on the memos the first pass
filled (see :mod:`nijenhuis.envelope`), and both passes must print the
golden file.
"""

from __future__ import annotations

import contextlib
import difflib
import io
import shlex
from pathlib import Path

from nijenhuis.cli import run_command

from conftest import clear_envelope_memos

FIXTURES = Path(__file__).parent / "fixtures"


def golden_commands() -> list[list[str]]:
    """The argv of each listed command, with ``$fixtures`` made this directory."""
    commands = []
    for line in (FIXTURES / "cli_golden_commands.txt").read_text(encoding="utf-8").splitlines():
        if not line or line.startswith("#"):
            continue
        # The shell expands nothing else, so it and shlex split alike.
        assert not set("\\`'") & set(line) and "$" not in line.replace("$fixtures/", ""), line
        commands.append([arg.replace("$fixtures", str(FIXTURES)) for arg in shlex.split(line)])
    return commands


def replay() -> str:
    """The standard output of the listed commands, run in this process."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        for argv in golden_commands():
            status = run_command(argv)
            if status:
                print(f"exit {status}")
    return out.getvalue()


def test_cli_output_matches_the_golden_file():
    expected = (FIXTURES / "cli_golden.txt").read_text(encoding="utf-8")
    clear_envelope_memos()
    for name in ("replayed", "replayed again"):
        diff = "".join(
            difflib.unified_diff(
                expected.splitlines(keepends=True),
                replay().splitlines(keepends=True),
                "cli_golden.txt",
                name,
            )
        )
        assert not diff, diff
