"""Generated command lines end in a documented exit code.

``ideal-member`` and ``eval-hom`` run in-process on argv built from a
small grammar: valid and corrupted expressions, bounds from -1 to 5,
generator lists with repeated, malformed or too few names, and map
files with shape and type faults.  ``mul`` and ``eval`` run on the same
expressions and generator lists, with ``NF_MAX_TERMS`` unset or from 1
to 3, and ``ns-check`` and ``ndend-check`` on the generator lists.
``assoc-check`` and ``nijenhuis-check`` run on alphabets with repeated,
malformed or empty names, or commas alone, at sizes from -1 to 3, with
``NF_MAX_TERMS`` unset or from 1 to 3.  ``fd-check``, ``induce-ns`` and
``env-generators`` run on algebra files of either kind with shape, type
and numeral faults, missing keys, or text that is not JSON, and
``morphism-check`` on two such files and a map file, each with
``NF_MAX_TERMS`` unset or from 1 to 3, on cold memos and again on memos
filled with no cap: both runs give the same exit code and output.
``solve-relspace`` runs with stray tokens after it and ``NF_MAX_TERMS``
unset or from 1 to 3.  Every run must end in exit code 0, 1 or 2 with
no exception escaping; a usage error (2) must say why on stderr, with an
``error:`` line or the usage text.  Bounds stay at 5 or below, sizes at
3 and dimensions at 3, so each example is small.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import event, given, settings, strategies as st

from nijenhuis.cli import run_command

from conftest import clear_envelope_memos

FIXTURES = Path(__file__).parent / "fixtures"
ALGEBRAS = ("projection.json", "projection_ns.json", "scaling_rational.json", "scaling2.json", "swap.json")

EXPRESSIONS = (
    "e1",
    "e1*e2",
    "e1 - e1*[e1]",
    "[e1]*e2 - 1/2*e2",
    "prec(e1, [e2]) + succ(e2, e1)",
    "P(e1*e2)",
    "[[e1]*e2*e1]*[e2]",
    "a*[b]",
    "0",
)


def overwrite(text: str, at: int, junk: str) -> str:
    return text[:at] + junk + text[at + len(junk) :]


expressions = st.one_of(
    st.sampled_from(EXPRESSIONS),
    st.builds(overwrite, st.sampled_from(EXPRESSIONS), st.integers(0, 16), st.text("[]()*+-/, e12abP0", max_size=3)),
)
generator_options = st.one_of(
    st.sampled_from([[], ["--generators", "e1,e2"], ["--generators", "a,b"]]),
    st.lists(st.sampled_from(["e1", "e2", "a", "b", "2x", "", " e1", "x-y"]), max_size=3).map(
        lambda names: ["--generators", ",".join(names)]
    ),
)
flags = st.lists(st.sampled_from(["--json"]), max_size=1)

entries = st.one_of(
    st.integers(-3, 3),
    st.sampled_from(["1/2", "-2/3", "1/0", "x", "", "1.5", "9" * 40]),
    st.booleans(),
    st.none(),
    st.floats(-2, 2, width=16),
    st.just([1]),
)
matrices = st.one_of(st.lists(st.lists(entries, max_size=3), max_size=3), entries)
names = st.one_of(
    st.lists(st.sampled_from(["e1", "e2", "a", "b", "2x", ""]), max_size=3),
    st.sampled_from(["e1e2", None, 3]),
)
maps = st.one_of(
    st.just({"names": ["e1", "e2"], "matrix": [["1", "1"], ["0", "1"]]}),
    st.fixed_dictionaries({"names": names, "matrix": matrices}),
    st.fixed_dictionaries({"matrix": matrices}),
    st.fixed_dictionaries({"names": names}),
    st.sampled_from([[1, 2], "text", None]),
).map(json.dumps)
map_texts = st.one_of(maps, st.sampled_from(['{"names": [', ""]))


def run(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run_command(argv)
    return code, out.getvalue(), err.getvalue()


def check_documented(argv: list[str]) -> tuple[int, str, str]:
    code, out, err = run(argv)
    event(f"exit {code}")
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in err, argv
    if code == 2:
        assert err.startswith("error:") or "usage:" in err, (argv, err)
    else:
        assert out or err.startswith("error:"), argv
    return code, out, err


def with_expression(argv: list[str], expr: str, separate: bool) -> list[str]:
    """``argv`` with ``expr`` last, after ``--`` when ``separate``."""
    return [*argv, "--", expr] if separate else [*argv, expr]


@settings(max_examples=120)
@given(
    st.sampled_from(ALGEBRAS),
    expressions,
    st.integers(-1, 5),
    generator_options,
    flags,
    st.booleans(),
)
def test_ideal_member_ends_in_a_documented_exit_code(algebra, expr, bound, generators, json_flag, separate):
    argv = ["ideal-member", *json_flag, str(FIXTURES / algebra), "--bound", str(bound), *generators]
    check_documented(with_expression(argv, expr, separate))


@pytest.fixture(scope="module")
def map_path(tmp_path_factory) -> Path:
    return tmp_path_factory.mktemp("fuzz") / "map.json"


@settings(max_examples=120)
@given(data=st.data())
def test_eval_hom_ends_in_a_documented_exit_code(map_path, data):
    map_path.write_text(data.draw(map_texts), encoding="utf-8")
    algebra = data.draw(st.sampled_from(ALGEBRAS))
    argv = ["eval-hom", *data.draw(flags), str(FIXTURES / algebra), str(map_path)]
    check_documented(with_expression(argv, data.draw(expressions), data.draw(st.booleans())))


@contextlib.contextmanager
def capped(cap: str | None):
    """``NF_MAX_TERMS`` at ``cap``, or unset, and ``NF_MAX_SIZE`` unset."""
    with mock.patch.dict(os.environ):
        os.environ.pop("NF_MAX_SIZE", None)
        os.environ.pop("NF_MAX_TERMS", None)
        if cap is not None:
            os.environ["NF_MAX_TERMS"] = cap
        yield


def run_capped(argv: list[str], cap: str | None) -> tuple[int, str, str]:
    """``check_documented(argv)`` under :func:`capped`."""
    with capped(cap):
        return check_documented(argv)


def check_warm_as_cold(argv: list[str], cap: str | None) -> None:
    """``run_capped(argv, cap)`` on cold memos, then again after a run with no cap filled them."""
    clear_envelope_memos()
    cold = run_capped(argv, cap)
    clear_envelope_memos()
    run_capped(argv, None)
    assert run_capped(argv, cap) == cold, (argv, cap)


caps = st.none() | st.sampled_from(["1", "2", "3"])


@settings(max_examples=120)
@given(data=st.data())
def test_mul_and_eval_end_in_a_documented_exit_code(data):
    command = data.draw(st.sampled_from(["mul", "eval"]))
    argv = [command, *data.draw(flags), *data.draw(generator_options)]
    separate = data.draw(st.booleans())
    operands = [data.draw(expressions) for _ in range(2 if command == "mul" else 1)]
    if separate:
        argv.append("--")
    run_capped([*argv, *operands], data.draw(caps))


@settings(max_examples=60)
@given(st.sampled_from(["ns-check", "ndend-check"]), flags, generator_options)
def test_the_relation_checks_end_in_a_documented_exit_code(command, json_flag, generators):
    check_documented([command, *json_flag, *generators])


LETTERS = ("a", "b", "x")
BAD_NAMES = ("", " a", "2x", "x-y", "b c")


@settings(max_examples=120)
@given(data=st.data())
def test_the_sweeps_end_in_a_documented_exit_code(data):
    command = data.draw(st.sampled_from(["assoc-check", "nijenhuis-check"]))
    max_size = data.draw(st.integers(-1, 3))
    # Two letters at size 3 make 27,000 triples, so assoc-check takes one name there.
    most = 1 if command == "assoc-check" and max_size == 3 else 3
    alphabet = data.draw(
        st.lists(st.sampled_from(LETTERS), min_size=1, max_size=most).map(",".join)
        | st.lists(st.sampled_from(LETTERS + BAD_NAMES), max_size=most).map(",".join)
        | st.sampled_from([",", ",,", " , "])
    )
    argv = [command, *data.draw(flags), "--alphabet", alphabet, "--max-size", str(max_size)]
    run_capped(argv, data.draw(caps))


# The tensors of each kind of algebra file, by rank.
ALGEBRA_FIELDS = ({"mult": 3, "op": 2}, {"prec": 3, "succ": 3, "bullet": 3})
numerals = st.one_of(st.integers(-2, 2), st.sampled_from(["0", "1", "-1", "1/2", "-3/4", "2/4"]))


def cube(dim: int, rank: int, values) -> st.SearchStrategy:
    """Nested lists of ``values``, ``dim`` long at each of ``rank`` levels."""
    for _ in range(rank):
        values = st.lists(values, min_size=dim, max_size=dim)
    return values


@st.composite
def algebra_texts(draw) -> str:
    fields = draw(st.sampled_from(ALGEBRA_FIELDS))
    dim = draw(st.integers(0, 3))
    # Well-formed numerals, or any entry: a type or numeral fault.
    values = draw(st.sampled_from([numerals, numerals, numerals | entries]))
    obj: dict = {}
    # Each key is missing one time in twenty; a tensor has the file's shape or any shape.
    if draw(st.integers(0, 19)):
        obj["dim"] = draw(st.sampled_from([dim] * 5 + [dim + 1, -1, "2", None, 1.0, True]))
    for name, rank in fields.items():
        kind = draw(st.integers(0, 19))
        if kind:
            obj[name] = draw(cube(dim, rank, values) if kind > 2 else matrices)
    return json.dumps(obj)


algebra_files = algebra_texts() | st.sampled_from(['{"mult": [', "", "[1, 2]", "null", '{"op": [["1"]]}'])


@pytest.fixture(scope="module")
def algebra_path(tmp_path_factory) -> Path:
    return tmp_path_factory.mktemp("fuzz") / "algebra.json"


@settings(max_examples=150)
@given(data=st.data())
def test_the_algebra_file_commands_end_in_a_documented_exit_code(algebra_path, data):
    algebra_path.write_text(data.draw(algebra_files), encoding="utf-8")
    command = data.draw(st.sampled_from(["fd-check", "induce-ns"]))
    check_warm_as_cold([command, *data.draw(flags), str(algebra_path)], data.draw(caps))


def algebra_file(data, path: Path) -> str:
    """A committed algebra file, or ``path`` holding a generated one."""
    path.write_text(data.draw(algebra_files), encoding="utf-8")
    return data.draw(st.sampled_from([str(path), *(str(FIXTURES / name) for name in ALGEBRAS)]))


@settings(max_examples=100)
@given(data=st.data())
def test_env_generators_ends_in_a_documented_exit_code(algebra_path, data):
    source = algebra_file(data, algebra_path)
    argv = ["env-generators", *data.draw(flags), source, *data.draw(generator_options)]
    check_warm_as_cold(argv, data.draw(caps))


@pytest.fixture(scope="module")
def target_path(tmp_path_factory) -> Path:
    return tmp_path_factory.mktemp("fuzz") / "target.json"


MAPS = ("identity_map.json", "shear_map.json")


@settings(max_examples=100)
@given(data=st.data())
def test_morphism_check_ends_in_a_documented_exit_code(algebra_path, target_path, map_path, data):
    source, target = algebra_file(data, algebra_path), algebra_file(data, target_path)
    map_path.write_text(data.draw(map_texts), encoding="utf-8")
    mapfile = data.draw(st.sampled_from([str(map_path), *(str(FIXTURES / name) for name in MAPS)]))
    check_warm_as_cold(["morphism-check", *data.draw(flags), source, target, mapfile], data.draw(caps))


@settings(max_examples=40)
@given(st.lists(st.sampled_from(["--json", "x", "--bound", "3", "-1", "--", "--jso", "-h"]), max_size=3), caps)
def test_solve_relspace_ends_in_a_documented_exit_code(tokens, cap):
    run_capped(["solve-relspace", *tokens], cap)
