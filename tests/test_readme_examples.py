"""Every ``$ nijenhuis ...`` example of README.md, run from the repository root.

The lines shown under an example are its expected stdout: an exact
match, or a prefix match when the shown output ends in ``...``.  An
example shown without output only has to run without a usage error.
Each example's test id is its command, so an edit elsewhere in the
README renames no test.
"""

from __future__ import annotations

import shlex
from pathlib import Path

import pytest

from nijenhuis.cli import run_command

ROOT = Path(__file__).resolve().parents[1]
PROMPT = "$ nijenhuis "


def readme_examples() -> list[tuple[str, list[str]]]:
    lines = (ROOT / "README.md").read_text(encoding="utf-8").splitlines()
    examples = []
    for lineno, line in enumerate(lines, start=1):
        if not line.startswith(PROMPT):
            continue
        shown = []
        for following in lines[lineno:]:
            if not following or following.startswith(("$", "```")):
                break
            shown.append(following)
        examples.append((line[len(PROMPT):], shown))
    return examples


EXAMPLES = readme_examples()


def test_readme_has_examples():
    assert len(EXAMPLES) >= 10


@pytest.mark.parametrize("command, shown", EXAMPLES, ids=[command for command, _ in EXAMPLES])
def test_readme_example(command, shown, capsys, monkeypatch):
    monkeypatch.chdir(ROOT)
    monkeypatch.delenv("NF_MAX_SIZE", raising=False)
    monkeypatch.delenv("NF_MAX_TERMS", raising=False)
    code = run_command(shlex.split(command))
    out = capsys.readouterr().out.splitlines()
    assert code != 2, command
    if shown and shown[-1] == "...":
        assert out[: len(shown) - 1] == shown[:-1]
    elif shown:
        assert out == shown
