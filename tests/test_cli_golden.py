"""The golden output of the CLI, replayed in one process.

``fixtures/cli_golden_commands.txt`` lists the commands and
``fixtures/cli_golden.txt`` holds their standard output, with a line
``exit N`` after each command that exits with a nonzero status ``N``.
The CI workflow replays the same list with the installed program, one
process per command, under two hash seeds; this test replays it in one
process, so a changed byte fails the tier-1 suite too.
"""

from __future__ import annotations

import contextlib
import difflib
import io
import shlex
from pathlib import Path

from nijenhuis.cli import run_command

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


def test_cli_output_matches_the_golden_file():
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        for argv in golden_commands():
            status = run_command(argv)
            if status:
                print(f"exit {status}")
    expected = (FIXTURES / "cli_golden.txt").read_text(encoding="utf-8")
    diff = "".join(
        difflib.unified_diff(
            expected.splitlines(keepends=True),
            out.getvalue().splitlines(keepends=True),
            "cli_golden.txt",
            "replayed",
        )
    )
    assert not diff, diff
