"""Command line interface.

Exit codes: 0 for success or a passing check, 1 for a failing check or
an undetected membership, 2 for usage, syntax, or malformed input
errors.  The environment variable ``NF_MAX_SIZE``, when set to a
positive integer, caps the ``--max-size`` of the sweep subcommands and
the ``--bound`` of ``ideal-member``.  ``NF_MAX_TERMS``, when set to a
positive integer, replaces the default cap of 100000 terms on any one
product a command computes; a product over the cap ends the command
with exit code 2.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from typing import Sequence

from .algebra import (
    MAX_TERMS,
    CheckReport,
    TooManyTerms,
    command_scope,
    first_nonassociative_triple,
    first_operator_identity_failure,
    product,
)
from .envelope import (
    ArityMismatch,
    BoundTooSmall,
    InvalidInput,
    LinearMap,
    Membership,
    NSAlgebraFD,
    NijenhuisAlgebraFD,
    UnknownGenerator,
    check_morphism_kills_generators,
    check_ndendriform_axioms,
    check_nijenhuis_fd,
    check_ns_axioms,
    default_names,
    enveloping_generators,
    evaluate_hom,
    induced_ns,
    truncated_ideal_membership,
)
from .linalg import DimensionMismatch, LinComb, format_rational
from .parser import EvalError, ParseError, eval_expr, parse_expr, print_canonical
from .relations import (
    evaluate_relation,
    ndendriform_relation_set,
    ns_relation_set,
    relation_sets_span_equal,
    solve_relation_space,
)
from .words import (
    WordError,
    generators,
    letter_word,
    words_up_to_size,
)

__all__ = ["run_command", "main"]

_OP_NAMES = ("prec", "succ", "bullet")
_EXPR_HELP = "an expression; write '--' before one that starts with '-', after all options"


class _UsageError(ValueError):
    pass


def _split_names(raw: str) -> tuple[str, ...]:
    parts = [p.strip() for p in raw.split(",") if p.strip()]
    if not parts:
        raise _UsageError(f"no generator names in {raw!r}")
    return generators(*parts)


def _env_cap(name: str) -> int | None:
    raw = os.environ.get(name)
    if raw is None:
        return None
    try:
        value = int(raw)
    except ValueError:
        print(f"warning: ignoring non-integer {name}={raw!r}", file=sys.stderr)
        return None
    return value if value >= 1 else None


def _effective_size(requested: int) -> int:
    cap = _env_cap("NF_MAX_SIZE")
    if cap is not None and cap < requested:
        print(
            f"note: NF_MAX_SIZE caps the sweep at size {cap}",
            file=sys.stderr,
        )
        return cap
    return requested


def _checked_size(option: str, requested: int) -> int:
    if requested < 1:
        raise _UsageError(f"{option} must be at least 1, got {requested}")
    return _effective_size(requested)


def _lincomb_json(a: LinComb) -> dict:
    return {
        "terms": [
            {"coeff": format_rational(c), "word": str(w)} for w, c in a
        ]
    }


def _emit(args: argparse.Namespace, obj: dict, plain: str) -> None:
    if args.json:
        print(json.dumps(obj, indent=2))
    else:
        print(plain)


def _emit_lincomb(args: argparse.Namespace, value: LinComb) -> None:
    """Print ``value`` in the one form asked for; the other is never built."""
    if args.json:
        print(json.dumps(_lincomb_json(value), indent=2))
    else:
        print(print_canonical(value))


def _parse_element(text: str, names: Sequence[str]) -> LinComb:
    return eval_expr(parse_expr(text), names)


def _load_json(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as handle:
        try:
            data = json.load(handle)
        except RecursionError:
            raise _UsageError(f"{path}: JSON nested too deeply") from None
    if not isinstance(data, dict):
        raise _UsageError(f"{path}: expected a JSON object")
    return data


def _load_map(path: str) -> tuple[tuple[str, ...], LinearMap]:
    obj = _load_json(path)
    try:
        names = obj["names"]
        if not (isinstance(names, list) and all(isinstance(n, str) for n in names)):
            raise TypeError(f"names must be a JSON list of strings, got {names!r}")
        names = generators(*names)
        matrix = LinearMap.from_json_obj(obj["matrix"])
    except (KeyError, ValueError, TypeError) as exc:
        raise _UsageError(f"{path}: malformed map file: {exc}") from exc
    return names, matrix


def _load_algebra(path: str) -> NijenhuisAlgebraFD | NSAlgebraFD:
    obj = _load_json(path)
    try:
        if "mult" in obj:
            return NijenhuisAlgebraFD.from_json_obj(obj)
        if "prec" in obj:
            return NSAlgebraFD.from_json_obj(obj)
    except (KeyError, ValueError, TypeError) as exc:
        raise _UsageError(f"{path}: malformed algebra file: {exc}") from exc
    raise _UsageError(f"{path}: neither an operator algebra nor a split-operation algebra")


def _as_ns(alg: NijenhuisAlgebraFD | NSAlgebraFD) -> NSAlgebraFD:
    if isinstance(alg, NSAlgebraFD):
        return alg
    return induced_ns(alg)


def _report_json(report) -> dict:
    out: dict = {"ok": report.ok}
    if not report.ok:
        out["kind"] = report.kind
        out["indices"] = list(report.indices)
        if report.lhs is not None:
            out["lhs"] = [format_rational(x) for x in report.lhs]
        if report.rhs is not None:
            out["rhs"] = [format_rational(x) for x in report.rhs]
    return out


def _cmd_mul(args: argparse.Namespace) -> int:
    names = _split_names(args.generators)
    value = product(_parse_element(args.left, names), _parse_element(args.right, names))
    _emit_lincomb(args, value)
    return 0


def _cmd_eval(args: argparse.Namespace) -> int:
    names = _split_names(args.generators)
    _emit_lincomb(args, _parse_element(args.expr, names))
    return 0


def _sweep_elements(args: argparse.Namespace) -> tuple[int, list[LinComb]]:
    alphabet = _split_names(args.alphabet)
    bound = _checked_size("--max-size", args.max_size)
    return bound, [LinComb.from_word(w) for w in words_up_to_size(alphabet, bound)]


def _emit_sweep_failure(
    args: argparse.Namespace, what: str, label: str, elements: list[LinComb], failure: CheckReport
) -> None:
    case = [print_canonical(elements[i]) for i in failure.indices]
    _emit(
        args,
        {
            "ok": False,
            label: case,
            "lhs": _lincomb_json(failure.lhs),
            "rhs": _lincomb_json(failure.rhs),
        },
        f"{what} fails at ({', '.join(case)})",
    )


def _cmd_assoc_check(args: argparse.Namespace) -> int:
    bound, elements = _sweep_elements(args)
    failure = first_nonassociative_triple(elements)
    if failure is not None:
        _emit_sweep_failure(args, "associativity", "triple", elements, failure)
        return 1
    _emit(
        args,
        {"ok": True, "words": len(elements), "max_size": bound},
        f"associativity holds on all {len(elements)}^3 word triples up to size {bound}",
    )
    return 0


def _cmd_nijenhuis_check(args: argparse.Namespace) -> int:
    bound, elements = _sweep_elements(args)
    failure = first_operator_identity_failure(elements)
    if failure is not None:
        _emit_sweep_failure(args, "operator identity", "pair", elements, failure)
        return 1
    _emit(
        args,
        {"ok": True, "words": len(elements), "max_size": bound},
        f"operator identity holds on all {len(elements)}^2 word pairs up to size {bound}",
    )
    return 0


def _relation_sweep(args: argparse.Namespace, rels, label: str) -> int:
    names = _split_names(args.generators)
    if len(names) < 3:
        raise _UsageError("relation checks need at least three generator names")
    x, y, z = (LinComb.from_word(letter_word(s)) for s in names[:3])
    for k, rel in enumerate(rels):
        residue = evaluate_relation(rel, x, y, z)
        if not residue.is_zero():
            _emit(
                args,
                {"ok": False, "relation": k, "residue": _lincomb_json(residue)},
                f"{label} relation {k + 1} fails: residue {print_canonical(residue)}",
            )
            return 1
    _emit(
        args,
        {"ok": True, "relations": len(rels)},
        f"all {len(rels)} {label} relations hold on free generators",
    )
    return 0


def _cmd_ns_check(args: argparse.Namespace) -> int:
    return _relation_sweep(args, ns_relation_set(), "four-family")


def _cmd_ndend_check(args: argparse.Namespace) -> int:
    return _relation_sweep(args, ndendriform_relation_set(), "five-family")


def _cmd_solve_relspace(args: argparse.Namespace) -> int:
    basis = solve_relation_space()
    matches = relation_sets_span_equal(basis, ndendriform_relation_set())
    contains_four = relation_sets_span_equal(basis, (*basis, *ns_relation_set()))
    obj = {
        "dimension": len(basis),
        "basis": [v.to_json_obj() for v in basis],
        "matches_five_family": matches,
        "contains_four_family": contains_four,
    }
    lines = [f"relation space dimension: {len(basis)}"]
    for k, v in enumerate(basis):
        lines.append(f"v{k + 1} left={v.to_json_obj()['left']} right={v.to_json_obj()['right']}")
    lines.append(f"spans the five-relation family: {matches}")
    lines.append(f"contains the four-relation family: {contains_four}")
    _emit(args, obj, "\n".join(lines))
    return 0 if (matches and contains_four) else 1


def _names_for_dim(args: argparse.Namespace, dim: int) -> tuple[str, ...]:
    if args.generators is None:
        return default_names(dim)
    names = _split_names(args.generators)
    if len(names) != dim:
        raise _UsageError(f"need exactly {dim} generator names, got {len(names)}")
    return names


def _cmd_env_generators(args: argparse.Namespace) -> int:
    ns_alg = _as_ns(_load_algebra(args.file))
    names = _names_for_dim(args, ns_alg.dim)
    gens = enveloping_generators(ns_alg, names)
    records = []
    lines = []
    idx = 0
    for i in range(ns_alg.dim):
        for j in range(ns_alg.dim):
            for op in _OP_NAMES:
                element = gens[idx]
                records.append(
                    {"i": i, "j": j, "op": op, "element": _lincomb_json(element)}
                )
                lines.append(f"({i},{j}) {op}: {print_canonical(element)}")
                idx += 1
    _emit(args, {"count": len(gens), "generators": records}, "\n".join(lines))
    return 0


def _cmd_fd_check(args: argparse.Namespace) -> int:
    alg = _load_algebra(args.file)
    if isinstance(alg, NijenhuisAlgebraFD):
        report = check_nijenhuis_fd(alg)
        _emit(
            args,
            {"type": "operator-algebra", **_report_json(report)},
            f"operator algebra: {report.describe()}",
        )
        return 0 if report.ok else 1
    ns_report = check_ns_axioms(alg)
    nd_report = check_ndendriform_axioms(alg)
    ok = ns_report.ok and nd_report.ok
    _emit(
        args,
        {
            "type": "split-operations",
            "four_family": _report_json(ns_report),
            "five_family": _report_json(nd_report),
        },
        "split operations: "
        f"four-family {ns_report.describe()}; five-family {nd_report.describe()}",
    )
    return 0 if ok else 1


def _cmd_induce_ns(args: argparse.Namespace) -> int:
    alg = _load_algebra(args.file)
    if not isinstance(alg, NijenhuisAlgebraFD):
        raise _UsageError(f"{args.file}: expected an operator algebra file")
    ns_alg = induced_ns(alg)
    obj = ns_alg.to_json_obj()
    _emit(args, obj, json.dumps(obj, indent=2))
    return 0


def _cmd_eval_hom(args: argparse.Namespace) -> int:
    alg = _load_algebra(args.file)
    if not isinstance(alg, NijenhuisAlgebraFD):
        raise _UsageError(f"{args.file}: expected an operator algebra file")
    names, matrix = _load_map(args.mapfile)
    element = _parse_element(args.expr, names)
    image = evaluate_hom(alg, matrix, element, names)
    _emit(
        args,
        {"vector": [format_rational(x) for x in image]},
        ", ".join(format_rational(x) for x in image),
    )
    return 0


def _cmd_ideal_member(args: argparse.Namespace) -> int:
    bound = _checked_size("--bound", args.bound)
    ns_alg = _as_ns(_load_algebra(args.file))
    names = _names_for_dim(args, ns_alg.dim)
    gens = enveloping_generators(ns_alg, names)
    candidate = _parse_element(args.expr, names)
    verdict = truncated_ideal_membership(gens, candidate, bound)
    _emit(
        args,
        {"verdict": verdict.value, "bound": bound},
        f"{verdict.value} (bound {bound})",
    )
    return 0 if verdict is Membership.MEMBER else 1


def _cmd_morphism_check(args: argparse.Namespace) -> int:
    source = _as_ns(_load_algebra(args.source))
    target = _load_algebra(args.target)
    if not isinstance(target, NijenhuisAlgebraFD):
        raise _UsageError(f"{args.target}: expected an operator algebra file")
    names, matrix = _load_map(args.mapfile)
    report = check_morphism_kills_generators(source, target, matrix, names)
    _emit(args, _report_json(report), f"morphism: {report.describe()}")
    return 0 if report.ok else 1


_EXPR = (("expr",), {"help": _EXPR_HELP})
_FILE = (("file",), {})
_GENERATORS = (("--generators",), {"default": "x,y,z", "help": "declared generator names"})
_RELATION_GENERATORS = ((("--generators",), {"default": "x,y,z"}),)
_NAMES = (("--generators",), {"default": None, "help": "names for the free generators"})
_SWEEP = ((("--max-size",), {"type": int, "default": 3}), (("--alphabet",), {"default": "x,y"}))

# Each subcommand: its handler, its help line, and its arguments as
# (flags, keyword arguments) for ``add_argument``.
_COMMANDS = {
    "mul": (
        _cmd_mul,
        "multiply two expressions",
        ((("left",), {"help": _EXPR_HELP}), (("right",), {"help": _EXPR_HELP}), _GENERATORS),
    ),
    "eval": (_cmd_eval, "evaluate an expression to canonical form", (_EXPR, _GENERATORS)),
    "assoc-check": (_cmd_assoc_check, "sweep associativity on basis word triples", _SWEEP),
    "nijenhuis-check": (_cmd_nijenhuis_check, "sweep the operator identity on word pairs", _SWEEP),
    "ns-check": (_cmd_ns_check, "verify the four-relation family on free generators", _RELATION_GENERATORS),
    "ndend-check": (_cmd_ndend_check, "verify the five-relation family on free generators", _RELATION_GENERATORS),
    "solve-relspace": (_cmd_solve_relspace, "rederive the relation space from scratch", ()),
    "env-generators": (_cmd_env_generators, "kernel generators for a structure-constant algebra", (_FILE, _NAMES)),
    "fd-check": (_cmd_fd_check, "run identity sweeps on a structure-constant file", (_FILE,)),
    "induce-ns": (_cmd_induce_ns, "split an operator algebra into its three operations", (_FILE,)),
    "eval-hom": (
        _cmd_eval_hom,
        "evaluate a free-algebra expression in a target algebra",
        (_FILE, (("mapfile",), {}), _EXPR),
    ),
    "morphism-check": (
        _cmd_morphism_check,
        "check a map intertwines operations and kills kernel generators",
        ((("source",), {}), (("target",), {}), (("mapfile",), {})),
    ),
    "ideal-member": (
        _cmd_ideal_member,
        "truncated ideal membership for a candidate element",
        (_FILE, _EXPR, (("--bound",), {"type": int, "required": True}), _NAMES),
    ),
}


class _GiveUp(Exception):
    """A one-command parser met input that only the full parser can report."""


class _OneCommandParser(argparse.ArgumentParser):
    """Gives up, printing nothing, wherever argparse would print and exit."""

    def print_help(self, file=None):
        raise _GiveUp

    def error(self, message):
        raise _GiveUp

    def exit(self, status=0, message=None):
        raise _GiveUp


@functools.cache
def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of every subcommand, or, given ``command``, of that one alone.

    A one-command parser raises :class:`_GiveUp` instead of printing
    help, usage or an error, since the text of those names every
    subcommand; the full parser then prints it.
    """
    parser_class = argparse.ArgumentParser if command is None else _OneCommandParser
    top = parser_class(
        prog="nijenhuis",
        description="Exact computations in free Nijenhuis algebras and their split operations.",
    )
    sub = top.add_subparsers(dest="command", required=True)
    for name, (handler, help_text, arguments) in _COMMANDS.items():
        if command is None or name == command:
            p = sub.add_parser(name, help=help_text)
            p.set_defaults(handler=handler)
            p.add_argument("--json", action="store_true", help="emit JSON instead of plain text")
            for flags, kwargs in arguments:
                p.add_argument(*flags, **kwargs)
    return top


def _parse_args(argv: list[str]) -> argparse.Namespace:
    """Parse with the invoked subcommand's parser alone, or else with the full one."""
    if argv and argv[0] in _COMMANDS:
        try:
            return build_parser(argv[0]).parse_args(argv)
        except _GiveUp:
            pass
    return build_parser().parse_args(argv)


def run_command(argv: Sequence[str]) -> int:
    try:
        args = _parse_args(list(argv))
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        with command_scope(_env_cap("NF_MAX_TERMS") or MAX_TERMS):
            return args.handler(args)
    except (
        _UsageError,
        ParseError,
        EvalError,
        WordError,
        DimensionMismatch,
        ArityMismatch,
        UnknownGenerator,
        BoundTooSmall,
        OSError,
        json.JSONDecodeError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except TooManyTerms as exc:
        print(f"error: {exc}; NF_MAX_TERMS sets the cap", file=sys.stderr)
        return 2
    except InvalidInput as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
