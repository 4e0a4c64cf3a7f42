"""What a fresh process loads, and what the package still exports.

``parser``, ``relations`` and ``envelope`` load on first use, so the
word sweeps run on ``words``, ``linalg`` and ``algebra`` alone, and a
command read without the full parser never loads ``argparse``.  The
sweeps load neither ``fractions`` nor ``signal`` either, and
``ns-check``, ``ndend-check`` and ``fd-check`` on a split algebra load
neither ``fractions`` nor ``decimal``.  Each
test here starts its own interpreter, since the test process has long
since loaded every module.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

import nijenhuis

SRC = str(Path(nijenhuis.__file__).resolve().parent.parent)

# Every name the package exports, by the module that defines it.
EXPORTS = {
    "algebra": (
        "COORD_OPS", "CheckReport", "OpSymbol", "TooManyTerms", "derived_op",
        "first_nonassociative_triple", "first_operator_identity_failure", "operator_n", "product",
    ),
    "envelope": (
        "ArityMismatch", "BoundTooSmall", "InvalidInput", "LinearMap", "Membership", "NSAlgebraFD",
        "NijenhuisAlgebraFD", "UnknownGenerator", "check_morphism_kills_generators",
        "check_nijenhuis_fd", "check_relations_fd", "default_names", "enveloping_generators",
        "evaluate_hom", "induced_ns", "truncated_ideal_membership",
    ),
    "linalg": ("DimensionMismatch", "LinComb", "RowSpace", "rational"),
    "parser": (
        "EvalError", "ParseError", "UnknownIdentifier", "eval_expr", "parse_expr",
        "print_canonical",
    ),
    "relations": (
        "ndendriform_relation_set", "ns_relation_set", "relation_matrix",
        "relation_monomials", "relation_sets_span_equal", "solve_relation_space",
    ),
    "words": (
        "AlternationViolation", "EmptyInput", "WordError", "breadth", "canonical_key",
        "canonical_sort", "depth", "generators", "letter_count", "letter_word", "size", "word",
        "words_of_size", "words_up_to_size",
    ),
}

# Defines ran(): which of the three lazy modules have run their code.
RAN = """
import json
import sys

import nijenhuis.cli

# What the import system puts in a module's namespace before its code runs.
SPEC_ONLY = {"__name__", "__doc__", "__package__", "__loader__", "__spec__", "__file__", "__cached__"}


def ran():
    # object.__getattribute__ reads the namespace without loading the module.
    return [
        name
        for name in ("parser", "relations", "envelope")
        if not set(object.__getattribute__(sys.modules["nijenhuis." + name], "__dict__")) <= SPEC_ONLY
    ]
"""

# Runs both sweeps, then one eval, then ``--help``, and prints on its
# last line which of the three lazy modules had run its code, which of
# the argument parser's modules had loaded, and after the sweeps which
# of four other modules had loaded.
STARTUP = RAN + """
def parsing():
    return [name for name in ("argparse", "gettext", "locale") if name in sys.modules]


codes = [
    nijenhuis.cli.run_command(["assoc-check", "--max-size", "2"]),
    nijenhuis.cli.run_command(["nijenhuis-check", "--max-size", "2"]),
]
after_sweeps = {
    "codes": codes,
    "ran": ran(),
    "parsing": parsing(),
    "loaded": [name for name in ("dataclasses", "fractions", "decimal", "signal") if name in sys.modules],
}
code = nijenhuis.cli.run_command(["eval", "x*[y]"])
after_eval = {"code": code, "ran": ran(), "parsing": parsing()}
code = nijenhuis.cli.run_command(["--help"])
after_help = {"code": code, "argparse": "argparse" in sys.modules}
print(json.dumps({"after_sweeps": after_sweeps, "after_eval": after_eval, "after_help": after_help}))
"""

# A sweep that stops at a usage error, then the same report.
FAILING_SWEEP = RAN + """
code = nijenhuis.cli.run_command(["assoc-check", "--alphabet", "2x"])
print(json.dumps({"code": code, "ran": ran(), "dataclasses": "dataclasses" in sys.modules}))
"""

# Runs the command given as JSON in argv[1], then reports which of the
# modules named in argv[2:] were loaded.
COMMAND = """
import json
import sys

import nijenhuis.cli

code = nijenhuis.cli.run_command(json.loads(sys.argv[1]))
print(json.dumps({"code": code, "loaded": sorted(set(sys.argv[2:]) & set(sys.modules))}))
"""

# Reads the exports given as JSON in argv[1] from the package and prints
# what differs from the defining modules.
EXPORTED = """
import importlib
import json
import sys

import nijenhuis

exports = json.loads(sys.argv[1])
listed = set(dir(nijenhuis))
star = {}
exec("from nijenhuis import *", star)
try:
    nijenhuis.no_such_name
    unknown = None
except AttributeError as exc:
    unknown = str(exc)
print(json.dumps({
    "not_in_dir": [n for names in exports.values() for n in names if n not in listed],
    "not_the_same": [
        n
        for module, names in exports.items()
        for n in names
        if getattr(nijenhuis, n) is not getattr(importlib.import_module("nijenhuis." + module), n)
    ],
    "star": sorted(n for n in star if n != "__builtins__"),
    "unknown": unknown,
}))
"""


def fresh_python(*argv: str, **env: str) -> subprocess.CompletedProcess:
    """``python argv...`` in a new interpreter that imports this package, with ``env`` added."""
    base = {k: v for k, v in os.environ.items() if k not in ("NF_MAX_SIZE", "NF_MAX_TERMS")}
    return subprocess.run(
        [sys.executable, *argv],
        capture_output=True,
        text=True,
        env={**base, "PYTHONPATH": SRC, **env},
        timeout=120,
    )


def last_json_line(result: subprocess.CompletedProcess) -> dict:
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout.splitlines()[-1])


def test_sweeps_run_without_the_lazy_modules():
    seen = last_json_line(fresh_python("-c", STARTUP))
    # The sweeps meet only integers, and run_command sets no signal handler.
    assert seen["after_sweeps"] == {"codes": [0, 0], "ran": [], "parsing": [], "loaded": []}
    assert seen["after_eval"] == {"code": 0, "ran": ["parser"], "parsing": []}
    # Only the full parser prints help, and only it loads argparse.
    assert seen["after_help"] == {"code": 0, "argparse": True}


def test_a_usage_error_loads_no_lazy_module():
    result = fresh_python("-c", FAILING_SWEEP)
    assert last_json_line(result) == {"code": 2, "ran": [], "dataclasses": False}
    assert result.stderr == "error: invalid generator name: '2x'\n"


def test_the_finite_dimensional_commands_load_no_dataclasses():
    projection = str(Path(__file__).parent / "fixtures" / "projection.json")
    for argv, code in (
        (["fd-check", projection], 0),
        (["ideal-member", projection, "e1", "--bound", "3"], 1),
    ):
        seen = last_json_line(fresh_python("-c", COMMAND, json.dumps(argv), "dataclasses", "inspect"))
        assert seen == {"code": code, "loaded": []}, argv


def test_the_relation_checks_load_no_fractions():
    # A relation is a Vector of 18 ints here, and no scalar is divided.
    split = str(Path(__file__).parent / "fixtures" / "projection_ns.json")
    for argv in (["ns-check"], ["ndend-check"], ["fd-check", split]):
        seen = last_json_line(fresh_python("-c", COMMAND, json.dumps(argv), "fractions", "decimal"))
        assert seen == {"code": 0, "loaded": []}, argv


def test_every_export_is_the_defining_modules_object():
    seen = last_json_line(fresh_python("-c", EXPORTED, json.dumps(EXPORTS)))
    assert seen["not_in_dir"] == []
    assert seen["not_the_same"] == []
    assert seen["star"] == sorted([*EXPORTS, *(n for names in EXPORTS.values() for n in names)])
    assert seen["unknown"] == "module 'nijenhuis' has no attribute 'no_such_name'"


def test_sweep_errors_before_the_lazy_modules_load():
    """Sweep errors print the same message and exit 2 from the console entry point."""
    cases = [
        ({}, ("assoc-check", "--alphabet", "2x"), "error: invalid generator name: '2x'\n"),
        ({}, ("nijenhuis-check", "--max-size", "0"), "error: --max-size must be at least 1, got 0\n"),
        (
            {"NF_MAX_TERMS": "1"},
            ("nijenhuis-check", "--alphabet", "a", "--max-size", "2"),
            "error: a product has 3 terms, more than the cap of 1; NF_MAX_TERMS sets the cap\n",
        ),
    ]
    for env, argv, err in cases:
        result = fresh_python("-m", "nijenhuis", *argv, **env)
        assert (result.returncode, result.stdout, result.stderr) == (2, "", err), argv


@pytest.mark.skipif(not hasattr(signal, "SIGPIPE"), reason="the platform has no SIGPIPE")
def test_a_closed_stdout_ends_the_run_by_sigpipe():
    """``nijenhuis eval "x*[y]" | head -0``: no ``error:`` line and no exit code 2."""
    read_end, write_end = os.pipe()
    # Closed before the child starts, so its first write finds no reader.
    os.close(read_end)
    try:
        result = subprocess.run(
            [sys.executable, "-m", "nijenhuis", "eval", "x*[y]"],
            stdout=write_end,
            stderr=subprocess.PIPE,
            text=True,
            env={**os.environ, "PYTHONPATH": SRC},
            timeout=120,
        )
    finally:
        os.close(write_end)
    assert "error:" not in result.stderr
    assert result.returncode == -signal.SIGPIPE
