"""Command line behavior: outputs, JSON mode, and exit codes."""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

import pytest

from nijenhuis import algebra, cli, relations
from nijenhuis.algebra import CheckReport
from nijenhuis.cli import build_parser, run_command
from nijenhuis.envelope import (
    LinearMap,
    NijenhuisAlgebraFD,
    enveloping_generators,
    fixture_projection,
    fixture_scaling,
    fixture_swap,
    induced_ns,
)
from nijenhuis.linalg import LinComb
from nijenhuis.parser import eval_expr, parse_expr, print_canonical
from nijenhuis.relations import RelVector, ndendriform_relation_set, solve_relation_space
from nijenhuis.words import MAX_NESTING, word

FIXTURES = Path(__file__).parent / "fixtures"


def run(capsys, *argv):
    code = run_command(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_mul_plain(capsys):
    code, out, _ = run(capsys, "mul", "[x]", "[y]")
    assert code == 0
    assert out.strip() == "-[[x*y]] + [[x]*y] + [x*[y]]"


def test_mul_json_matches_library(capsys):
    code, out, _ = run(capsys, "mul", "--json", "x*[y]", "z")
    assert code == 0
    data = json.loads(out)
    assert data == {"terms": [{"coeff": "1", "word": "x*[y]*z"}]}


def test_eval_and_mul_build_only_the_form_asked_for(capsys, monkeypatch):
    def refuse(*args):
        raise AssertionError("built an output form that is not printed")

    monkeypatch.setattr(cli, "_lincomb_json", refuse)
    assert run(capsys, "eval", "x*[y] - 1/2*y")[:2] == (0, "-1/2*y + x*[y]\n")
    assert run(capsys, "mul", "[x]", "y")[:2] == (0, "[x]*y\n")
    monkeypatch.undo()
    monkeypatch.setattr(LinComb, "__str__", refuse)
    assert json.loads(run(capsys, "eval", "--json", "2*x")[1]) == {
        "terms": [{"coeff": "2", "word": "x"}]
    }
    assert run(capsys, "mul", "--json", "x", "y")[0] == 0


def test_eval_respects_generator_declaration(capsys):
    code, out, _ = run(capsys, "eval", "a*b", "--generators", "a,b")
    assert code == 0
    assert out.strip() == "a*b"
    code, _, err = run(capsys, "eval", "a*b")
    assert code == 2
    assert "unknown generator" in err


def test_eval_json_round_trip(capsys):
    code, out, _ = run(capsys, "eval", "--json", "star(x,y)")
    assert code == 0
    data = json.loads(out)
    words = [t["word"] for t in data["terms"]]
    assert words == ["[x*y]", "[x]*y", "x*[y]"]
    assert [t["coeff"] for t in data["terms"]] == ["-1", "1", "1"]


def test_assoc_check_passes(capsys):
    code, out, _ = run(capsys, "assoc-check", "--max-size", "2")
    assert code == 0
    assert "associativity holds" in out


def test_assoc_check_json(capsys):
    code, out, _ = run(capsys, "assoc-check", "--max-size", "2", "--json", "--alphabet", "x")
    assert code == 0
    data = json.loads(out)
    assert data["ok"] is True
    assert data["words"] == 3


def test_nijenhuis_check_passes(capsys):
    code, out, _ = run(capsys, "nijenhuis-check", "--max-size", "2")
    assert code == 0
    assert "operator identity holds" in out


@pytest.mark.parametrize(
    "argv, line",
    [
        (("assoc-check", "--max-size", "2"), "associativity holds on all 8^3 word triples up to size 2"),
        (("assoc-check", "--alphabet", "a,b,c", "--max-size", "1"), "associativity holds on all 3^3 word triples up to size 1"),
        (("nijenhuis-check", "--max-size", "2"), "operator identity holds on all 8^2 word pairs up to size 2"),
        (("nijenhuis-check", "--max-size", "3"), "operator identity holds on all 30^2 word pairs up to size 3"),
    ],
)
def test_sweep_success_lines(capsys, argv, line):
    assert run(capsys, *argv) == (0, line + "\n", "")


@pytest.mark.parametrize(
    "command, sweep, what, label",
    [
        ("assoc-check", "first_nonassociative_triple", "associativity", "triple"),
        ("nijenhuis-check", "first_operator_identity_failure", "operator identity", "pair"),
    ],
)
def test_sweep_failure_reports_the_failing_words(capsys, monkeypatch, command, sweep, what, label):
    # The handlers look their sweep up when called, so rebinding it reaches them.
    x, y = LinComb.from_word(word("x")), LinComb.from_word(word("y"))
    report = CheckReport(False, what, (0, 1), x, y.scale(2))
    monkeypatch.setattr(cli, sweep, lambda elements: report)
    assert run(capsys, command, "--max-size", "1") == (1, f"{what} fails at (x, y)\n", "")
    code, out, _ = run(capsys, command, "--max-size", "1", "--json")
    assert code == 1
    assert json.loads(out) == {
        "ok": False,
        label: ["x", "y"],
        "lhs": {"terms": [{"coeff": "1", "word": "x"}]},
        "rhs": {"terms": [{"coeff": "2", "word": "y"}]},
    }


def test_max_size_env_cap(capsys, monkeypatch):
    monkeypatch.setenv("NF_MAX_SIZE", "1")
    code, out, err = run(capsys, "assoc-check", "--max-size", "3")
    assert code == 0
    assert "up to size 1" in out
    assert "caps the sweep" in err
    monkeypatch.setenv("NF_MAX_SIZE", "banana")
    code, _, err = run(capsys, "assoc-check", "--max-size", "1")
    assert code == 0
    assert "ignoring" in err
    for ignored in ("0", "-5"):
        monkeypatch.setenv("NF_MAX_SIZE", ignored)
        code, out, err = run(capsys, "assoc-check", "--max-size", "2")
        assert code == 0
        assert "up to size 2" in out
        assert err == f"warning: ignoring non-positive NF_MAX_SIZE='{ignored}'\n"


def test_sweeps_reject_nonpositive_max_size(capsys):
    for command in ("assoc-check", "nijenhuis-check"):
        for bound in ("0", "-2"):
            code, out, err = run(capsys, command, "--max-size", bound)
            assert code == 2
            assert out == ""
            assert "--max-size must be at least 1" in err


@pytest.mark.parametrize("bound", ["0", "-5"])
def test_ideal_member_rejects_nonpositive_bound(capsys, bound):
    code, out, err = run(capsys, "ideal-member", str(FIXTURES / "projection.json"), "0", "--bound", bound)
    assert code == 2
    assert out == ""
    assert err == f"error: --bound must be at least 1, got {bound}\n"


def test_max_size_env_caps_ideal_member(capsys, monkeypatch):
    monkeypatch.setenv("NF_MAX_SIZE", "2")
    code, out, err = run(
        capsys, "ideal-member", str(FIXTURES / "projection_ns.json"), "e1", "--bound", "6"
    )
    assert code == 1
    assert out.strip() == "not-detected (bound 2)"
    assert "caps the sweep at size 2" in err
    # the capped bound is then too small for a larger candidate
    code, _, err = run(
        capsys, "ideal-member", str(FIXTURES / "projection_ns.json"), "[e1*[e1]]", "--bound", "6"
    )
    assert code == 2
    assert "bound 2" in err


def test_eval_deep_nesting_is_usage_error(capsys):
    levels = 1200
    for opening, closing in (("[", "]"), ("(", ")"), ("P(", ")")):
        code, out, err = run(
            capsys, "eval", "--generators", "x", opening * levels + "x" + closing * levels
        )
        assert code == 2
        assert out == ""
        assert "nesting deeper than" in err


def test_eval_accepts_nesting_up_to_the_cap(capsys):
    levels = MAX_NESTING
    code, out, _ = run(capsys, "eval", "--generators", "x", "[" * levels + "x" + "]" * levels)
    assert code == 0
    assert out.strip() == "[" * levels + "x" + "]" * levels


def prec_nest(levels: int) -> str:
    expr = "y + x"
    for _ in range(levels):
        expr = f"prec({expr}, y + x)"
    return expr


def test_eval_of_a_deep_prec_nest_stops_at_the_term_cap(capsys, monkeypatch):
    # The term count grows about tenfold per level: 12,608 terms at five
    # levels, 115,584 at six, which is over the default cap of 100,000.
    monkeypatch.delenv("NF_MAX_TERMS", raising=False)
    start = time.perf_counter()
    code, out, err = run(capsys, "eval", "--generators", "x,y", prec_nest(8))
    assert time.perf_counter() - start < 20
    assert code == 2
    assert out == ""
    assert err == "error: a product has 115584 terms, more than the cap of 100000; NF_MAX_TERMS sets the cap\n"
    assert algebra._max_terms == algebra.MAX_TERMS


def test_term_cap_env(capsys, monkeypatch):
    # [x] [y] has three terms.
    monkeypatch.setenv("NF_MAX_TERMS", "2")
    code, out, err = run(capsys, "mul", "[x]", "[y]")
    assert code == 2 and out == ""
    assert "more than the cap of 2" in err
    assert algebra._max_terms == algebra.MAX_TERMS
    monkeypatch.setenv("NF_MAX_TERMS", "3")
    code, out, _ = run(capsys, "mul", "[x]", "[y]")
    assert code == 0 and out.strip() == "-[[x*y]] + [[x]*y] + [x*[y]]"
    for ignored in ("0", "-5"):
        monkeypatch.setenv("NF_MAX_TERMS", ignored)
        code, _, err = run(capsys, "mul", "[x]", "[y]")
        assert code == 0
        assert err == f"warning: ignoring non-positive NF_MAX_TERMS='{ignored}'\n"
    monkeypatch.setenv("NF_MAX_TERMS", "banana")
    code, _, err = run(capsys, "mul", "[x]", "[y]")
    assert code == 0
    assert "ignoring non-integer NF_MAX_TERMS" in err


def test_relation_checks_pass(capsys):
    code, out, _ = run(capsys, "ns-check")
    assert code == 0 and "all 4" in out
    code, out, _ = run(capsys, "ndend-check")
    assert code == 0 and "all 5" in out
    code, out, _ = run(capsys, "ndend-check", "--json", "--generators", "a,b,c")
    assert code == 0 and json.loads(out)["ok"] is True


def test_relation_check_reports_the_first_failure(capsys, monkeypatch):
    bad = (*ndendriform_relation_set()[:1], RelVector.unit_left(0, 1), RelVector.unit_right(2, 2))
    monkeypatch.setattr(relations, "ns_relation_set", lambda: bad)
    code, out, _ = run(capsys, "ns-check")
    assert (code, out) == (1, "four-family relation 2 fails: residue [x*[y]]*z\n")
    code, out, _ = run(capsys, "ns-check", "--json")
    assert code == 1
    assert json.loads(out) == {"ok": False, "relation": 1, "residue": {"terms": [{"coeff": "1", "word": "[x*[y]]*z"}]}}


def test_relation_checks_need_three_generators(capsys):
    code, _, err = run(capsys, "ns-check", "--generators", "x,y")
    assert code == 2
    assert "three generator names" in err


def test_solve_relspace_json(capsys):
    code, out, _ = run(capsys, "solve-relspace", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["dimension"] == 5
    assert data["matches_five_family"] is True
    assert data["contains_four_family"] is True
    assert len(data["basis"]) == 5
    # output vectors agree with the library solver
    from nijenhuis.relations import RelVector

    parsed = [RelVector.from_json_obj(v) for v in data["basis"]]
    assert tuple(parsed) == solve_relation_space()


def test_env_generators_output(capsys):
    code, out, _ = run(capsys, "env-generators", str(FIXTURES / "projection_ns.json"))
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 12
    assert lines[0] == "(0,0) prec: e1 - e1*[e1]"
    code, out, _ = run(
        capsys, "env-generators", "--json", str(FIXTURES / "projection_ns.json")
    )
    data = json.loads(out)
    assert data["count"] == 12
    assert data["generators"][2]["op"] == "bullet"


def test_env_generators_label_order_in_dimension_three(capsys, tmp_path):
    # Componentwise product on three coordinates; the operator keeps the first.
    alg = NijenhuisAlgebraFD(
        3,
        [[[1 if i == j == k else 0 for k in range(3)] for j in range(3)] for i in range(3)],
        LinearMap.from_rows([[1, 0, 0], [0, 0, 0], [0, 0, 0]]),
    )
    path = tmp_path / "dim3.json"
    path.write_text(json.dumps(alg.to_json_obj()))
    labels = [(i, j, op) for i in range(3) for j in range(3) for op in ("prec", "succ", "bullet")]
    gens = enveloping_generators(induced_ns(alg))
    code, out, _ = run(capsys, "env-generators", str(path))
    assert code == 0
    assert out.splitlines() == [
        f"({i},{j}) {op}: {print_canonical(g)}" for (i, j, op), g in zip(labels, gens)
    ]
    code, out, _ = run(capsys, "env-generators", "--json", str(path))
    data = json.loads(out)
    assert data["count"] == 27
    assert [(g["i"], g["j"], g["op"]) for g in data["generators"]] == labels


def test_fd_check_pass_and_fail(capsys):
    code, out, _ = run(capsys, "fd-check", str(FIXTURES / "projection.json"))
    assert code == 0 and "pass" in out
    code, out, _ = run(capsys, "fd-check", str(FIXTURES / "scaling2.json"))
    assert code == 0
    code, out, _ = run(capsys, "fd-check", str(FIXTURES / "swap.json"))
    assert code == 1
    assert "operator-identity fails at (0, 0)" in out


def test_fd_check_json_failure_details(capsys):
    code, out, _ = run(capsys, "fd-check", "--json", str(FIXTURES / "swap.json"))
    assert code == 1
    data = json.loads(out)
    assert data["ok"] is False
    assert data["kind"] == "operator-identity"
    assert data["indices"] == [0, 0]
    assert data["lhs"] == ["0", "1"]
    assert data["rhs"] == ["-1", "0"]


def test_fd_check_ns_file(capsys):
    code, out, _ = run(capsys, "fd-check", str(FIXTURES / "projection_ns.json"))
    assert code == 0
    assert "four-family pass" in out and "five-family pass" in out


def test_induce_ns_round_trips(capsys):
    code, out, _ = run(capsys, "induce-ns", str(FIXTURES / "projection.json"))
    assert code == 0
    from nijenhuis.envelope import NSAlgebraFD

    parsed = NSAlgebraFD.from_json_obj(json.loads(out))
    assert parsed == induced_ns(fixture_projection())


def test_induce_ns_prints_the_same_text_plain_and_json(capsys):
    path = str(FIXTURES / "scaling_rational.json")
    plain = run(capsys, "induce-ns", path)
    assert plain == run(capsys, "induce-ns", "--json", path)
    assert plain[0] == 0 and plain[1] == json.dumps(json.loads(plain[1]), indent=2) + "\n"


_NS_FILE = str(FIXTURES / "projection_ns.json")


@pytest.mark.parametrize(
    "argv",
    [
        ("induce-ns", _NS_FILE),
        ("eval-hom", _NS_FILE, str(FIXTURES / "identity_map.json"), "e1"),
        ("morphism-check", str(FIXTURES / "projection.json"), _NS_FILE, str(FIXTURES / "identity_map.json")),
    ],
    ids=["induce-ns", "eval-hom", "morphism-check-target"],
)
def test_commands_that_need_an_operator_algebra_reject_a_split_file(capsys, argv):
    for flags in ([], ["--json"]):
        assert run(capsys, argv[0], *flags, *argv[1:]) == (
            2,
            "",
            f"error: {_NS_FILE}: expected an operator algebra file\n",
        )


def test_induce_ns_rejects_invalid_algebra(capsys):
    code, _, err = run(capsys, "induce-ns", str(FIXTURES / "swap.json"))
    assert code == 1
    assert "not valid" in err


def test_eval_hom(capsys):
    code, out, _ = run(
        capsys,
        "eval-hom",
        str(FIXTURES / "projection.json"),
        str(FIXTURES / "identity_map.json"),
        "e1*[e1]",
    )
    assert code == 0
    assert out.strip() == "1, 0"
    code, out, _ = run(
        capsys,
        "eval-hom",
        "--json",
        str(FIXTURES / "projection.json"),
        str(FIXTURES / "identity_map.json"),
        "e1 - e1*[e1]",
    )
    assert json.loads(out) == {"vector": ["0", "0"]}


def test_morphism_check(capsys):
    code, out, _ = run(
        capsys,
        "morphism-check",
        str(FIXTURES / "projection_ns.json"),
        str(FIXTURES / "projection.json"),
        str(FIXTURES / "identity_map.json"),
    )
    assert code == 0
    assert "pass" in out


def test_morphism_check_bad_map(capsys, tmp_path):
    bad = tmp_path / "bad_map.json"
    bad.write_text(json.dumps({"names": ["e1", "e2"], "matrix": [["1", "1"], ["0", "1"]]}))
    code, out, _ = run(
        capsys,
        "morphism-check",
        str(FIXTURES / "projection_ns.json"),
        str(FIXTURES / "projection.json"),
        str(bad),
    )
    assert code == 1
    assert "fails" in out


@pytest.mark.parametrize("names", ["ab", ["e1", 2], {"e1": 0, "e2": 1}, None])
def test_map_names_must_be_a_list_of_strings(capsys, tmp_path, names):
    # A string of names was once read letter by letter, as names a and b.
    bad = tmp_path / "string_names.json"
    bad.write_text(json.dumps({"names": names, "matrix": [["1", "0"], ["0", "1"]]}))
    for argv in (
        ("eval-hom", str(FIXTURES / "projection.json"), str(bad), "a"),
        ("morphism-check", str(FIXTURES / "projection_ns.json"), str(FIXTURES / "projection.json"), str(bad)),
    ):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err.startswith("error:") and "names must be a JSON list of strings" in err


def test_ideal_member_verdicts(capsys):
    code, out, _ = run(
        capsys,
        "ideal-member",
        str(FIXTURES / "projection_ns.json"),
        "e1 - e1*[e1]",
        "--bound",
        "4",
    )
    assert code == 0
    assert out.strip().startswith("member")
    code, out, _ = run(
        capsys,
        "ideal-member",
        "--json",
        str(FIXTURES / "projection_ns.json"),
        "e1",
        "--bound",
        "4",
    )
    assert code == 1
    assert json.loads(out)["verdict"] == "not-detected"


def test_ideal_member_accepts_operator_algebra_file(capsys):
    code, out, _ = run(
        capsys,
        "ideal-member",
        str(FIXTURES / "projection.json"),
        "P(e1) - e1*[e1]",
        "--bound",
        "4",
    )
    # P(e1) = [e1] and the first generator ties e1*[e1] to e1, so this
    # differs from a kernel element; just confirm the command runs
    assert code in (0, 1)
    assert out.strip()


def test_ideal_member_bound_too_small(capsys):
    code, _, err = run(
        capsys,
        "ideal-member",
        str(FIXTURES / "projection_ns.json"),
        "[e1*[e1]]",
        "--bound",
        "3",
    )
    assert code == 2
    assert "bound" in err


def test_parse_error_exit_code(capsys):
    code, _, err = run(capsys, "eval", "x +")
    assert code == 2
    assert "error:" in err


def test_missing_file_exit_code(capsys):
    code, _, err = run(capsys, "fd-check", "no_such_file.json")
    assert code == 2


def test_malformed_json_exit_code(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run(capsys, "fd-check", str(bad))
    assert code == 2
    wrong = tmp_path / "wrong.json"
    wrong.write_text(json.dumps({"dim": 2}))
    code, _, err = run(capsys, "fd-check", str(wrong))
    assert code == 2
    # Neither a fractional nor a boolean dimension or entry is truncated
    # or read as a number.
    good = json.loads((FIXTURES / "projection.json").read_text())
    good_ns = json.loads((FIXTURES / "projection_ns.json").read_text())
    for name, obj, reason in (
        ("dim_fraction", {**good, "dim": 2.7}, "dim must be a JSON integer"),
        ("dim_bool", {**good, "dim": True}, "dim must be a JSON integer"),
        ("dim_string", {**good, "dim": "2"}, "dim must be a JSON integer"),
        ("ns_dim_bool", {**good_ns, "dim": True}, "dim must be a JSON integer"),
        ("tensor_bool", {**good, "mult": [[[True, 0], [0, 0]], [[0, 0], [0, 1]]]}, "not a rational"),
        ("matrix_bool", {**good, "op": [[True, 0], [0, False]]}, "not a rational"),
        ("ns_tensor_bool", {**good_ns, "bullet": [[[True, 0], [0, 0]], [[0, 0], [0, 0]]]}, "not a rational"),
    ):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(obj))
        code, out, err = run(capsys, "fd-check", str(path))
        assert (code, out) == (2, ""), name
        assert err.startswith("error:") and "malformed algebra file" in err and reason in err, name


def test_zero_denominator_is_a_malformed_file(capsys, tmp_path):
    # Fraction("1/0") raises ZeroDivisionError, which once escaped as a
    # traceback with exit code 1.
    algebra_obj = json.loads((FIXTURES / "projection.json").read_text())
    algebra_obj["op"][1][1] = "1/0"
    ns_obj = json.loads((FIXTURES / "projection_ns.json").read_text())
    ns_obj["succ"][0][1][0] = "-3/0"
    map_obj = {"names": ["e1", "e2"], "matrix": [["1", "0"], ["1/0", "1"]]}
    paths = {}
    for name, obj in (("algebra", algebra_obj), ("ns", ns_obj), ("map", map_obj)):
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps(obj))
    good, good_ns, good_map = (
        str(FIXTURES / f) for f in ("projection.json", "projection_ns.json", "identity_map.json")
    )
    for argv, kind in (
        (("fd-check", paths["algebra"]), "algebra"),
        (("fd-check", paths["ns"]), "algebra"),
        (("induce-ns", paths["algebra"]), "algebra"),
        (("env-generators", paths["algebra"]), "algebra"),
        (("ideal-member", paths["ns"], "e1", "--bound", "3"), "algebra"),
        (("eval-hom", paths["algebra"], good_map, "e1"), "algebra"),
        (("eval-hom", good, paths["map"], "e1"), "map"),
        (("morphism-check", good_ns, paths["algebra"], good_map), "algebra"),
        (("morphism-check", good_ns, good, paths["map"]), "map"),
    ):
        code, out, err = run(capsys, *map(str, argv))
        assert (code, out) == (2, ""), argv
        assert err.startswith("error:") and f"malformed {kind} file" in err, argv
        assert "zero denominator" in err and "Traceback" not in err, argv


def test_deeply_nested_json_is_a_usage_error(capsys, tmp_path):
    # json.load raises RecursionError on deep nesting, which once escaped
    # as a traceback with exit code 1.
    deep = "[" * 100_000 + "]" * 100_000
    algebra_path = tmp_path / "deep_algebra.json"
    algebra_path.write_text(deep)
    map_path = tmp_path / "deep_map.json"
    map_path.write_text('{"names": ["e1", "e2"], "matrix": ' + deep + "}")
    good, good_ns = str(FIXTURES / "projection.json"), str(FIXTURES / "projection_ns.json")
    for argv in (
        ("fd-check", str(algebra_path)),
        ("induce-ns", str(algebra_path)),
        ("eval-hom", good, str(map_path), "e1"),
        ("morphism-check", good_ns, good, str(map_path)),
    ):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert err.startswith("error:") and "nested too deeply" in err, argv
        assert "Traceback" not in err, argv


def test_usage_errors(capsys):
    assert run(capsys, "bogus-command")[0] == 2
    assert run(capsys, "mul", "x")[0] == 2
    assert run(capsys, "--help")[0] == 0
    assert run(capsys, "ideal-member", str(FIXTURES / "projection_ns.json"), "e1")[0] == 2


def test_seed_flag_rejected(capsys):
    # every subcommand is exhaustive, so there is no seed to set
    code, _, err = run(capsys, "assoc-check", "--max-size", "1", "--seed", "7")
    assert code == 2
    assert "--seed" in err


def test_duplicate_generators_rejected(capsys):
    code, out, err = run(capsys, "ns-check", "--generators", "x,y,y")
    assert code == 2 and out == ""
    assert err.startswith("error:") and "duplicate generator names" in err


def test_duplicate_alphabet_rejected(capsys):
    code, out, err = run(capsys, "assoc-check", "--alphabet", "x,x", "--max-size", "1")
    assert code == 2 and out == ""
    assert err.startswith("error:") and "duplicate generator names" in err


def test_duplicate_map_names_rejected(capsys, tmp_path):
    dup = tmp_path / "dup_map.json"
    dup.write_text(json.dumps({"names": ["e1", "e1"], "matrix": [["1", "0"], ["0", "1"]]}))
    for argv in (
        ("eval-hom", str(FIXTURES / "projection.json"), str(dup), "e1"),
        ("morphism-check", str(FIXTURES / "projection_ns.json"), str(FIXTURES / "projection.json"), str(dup)),
    ):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err.startswith("error:") and "duplicate generator names" in err


def test_parser_is_built_once():
    assert build_parser() is build_parser()


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["--help"],
        ["bogus-command"],
        ["bogus-command", "--help"],
        ["mul", "--help"],
        ["ideal-member", "-h"],
        ["solve-relspace", "--help"],
        ["mul", "x"],
        ["mul", "x", "y", "z"],
        ["mul", "x", "y", "--bogus"],
        ["eval", "--generators"],
        ["assoc-check", "--max-size", "abc"],
        ["ideal-member", "file.json", "e1"],
        ["nijenhuis-check", "--help", "--max-size", "abc"],
    ],
)
def test_help_and_usage_errors_print_what_the_full_parser_prints(capsys, argv):
    code, out, err = run(capsys, *argv)
    with pytest.raises(SystemExit) as stop:
        build_parser().parse_args(argv)
    full = capsys.readouterr()
    assert (out, err) == (full.out, full.err)
    assert code == (0 if stop.value.code == 0 else 2)


def test_a_known_command_is_parsed_by_its_own_parser_alone():
    for name in ("mul", "ideal-member", "solve-relspace"):
        assert build_parser(name).format_usage() == f"usage: nijenhuis [-h] {{{name}}} ...\n"
    assert build_parser().format_usage().count(",") == 12
    args = cli._parse_args(["mul", "--json", "x", "--generators", "x,y", "y"])
    assert (args.command, args.left, args.right, args.generators, args.json) == ("mul", "x", "y", "x,y", True)
    assert args.handler is cli._cmd_mul
