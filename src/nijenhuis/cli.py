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
import itertools
import json
import os
import sys
from typing import Sequence

from .algebra import (
    COORD_OPS,
    MAX_TERMS,
    TooManyTerms,
    command_scope,
    first_nonassociative_triple,
    first_operator_identity_failure,
    product,
)
# These three load on first use (see the package docstring), so their
# names are read when a handler runs, never bound here.
from . import envelope, parser, relations
from .linalg import DimensionMismatch, LinComb
from .words import (
    WordError,
    generators,
    letter_word,
    words_up_to_size,
)

__all__ = ["run_command", "main"]

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
    if value < 1:
        print(f"warning: ignoring non-positive {name}={raw!r}", file=sys.stderr)
        return None
    return value


def _checked_size(option: str, requested: int) -> int:
    if requested < 1:
        raise _UsageError(f"{option} must be at least 1, got {requested}")
    cap = _env_cap("NF_MAX_SIZE")
    if cap is not None and cap < requested:
        print(f"note: NF_MAX_SIZE caps the sweep at size {cap}", file=sys.stderr)
        return cap
    return requested


def _lincomb_json(a: LinComb) -> dict:
    return {"terms": [{"coeff": str(c), "word": w} for w, c in a]}


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
        print(value)


def _parse_element(text: str, names: Sequence[str]) -> LinComb:
    return parser.eval_expr(parser.parse_expr(text), names)


def _load_json(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as handle:
        try:
            data = json.load(handle)
        except RecursionError:
            raise _UsageError(f"{path}: JSON nested too deeply") from None
    if not isinstance(data, dict):
        raise _UsageError(f"{path}: expected a JSON object")
    return data


def _load_map(path: str) -> tuple[tuple[str, ...], envelope.LinearMap]:
    obj = _load_json(path)
    try:
        names = obj["names"]
        if not (isinstance(names, list) and all(isinstance(n, str) for n in names)):
            raise TypeError(f"names must be a JSON list of strings, got {names!r}")
        names = generators(*names)
        matrix = envelope.LinearMap.from_json_obj(obj["matrix"])
    except (KeyError, ValueError, TypeError) as exc:
        raise _UsageError(f"{path}: malformed map file: {exc}") from exc
    return names, matrix


def _load_algebra(path: str) -> envelope.NijenhuisAlgebraFD | envelope.NSAlgebraFD:
    obj = _load_json(path)
    try:
        if "mult" in obj:
            return envelope.NijenhuisAlgebraFD.from_json_obj(obj)
        if "prec" in obj:
            return envelope.NSAlgebraFD.from_json_obj(obj)
    except (KeyError, ValueError, TypeError) as exc:
        raise _UsageError(f"{path}: malformed algebra file: {exc}") from exc
    raise _UsageError(f"{path}: neither an operator algebra nor a split-operation algebra")


def _load_operator_algebra(path: str) -> envelope.NijenhuisAlgebraFD:
    alg = _load_algebra(path)
    if not isinstance(alg, envelope.NijenhuisAlgebraFD):
        raise _UsageError(f"{path}: expected an operator algebra file")
    return alg


def _as_ns(alg: envelope.NijenhuisAlgebraFD | envelope.NSAlgebraFD) -> envelope.NSAlgebraFD:
    if isinstance(alg, envelope.NSAlgebraFD):
        return alg
    return envelope.induced_ns(alg)


def _report_json(report) -> dict:
    out: dict = {"ok": report.ok}
    if not report.ok:
        out["kind"] = report.kind
        out["indices"] = list(report.indices)
        if report.lhs is not None:
            out["lhs"] = [str(x) for x in report.lhs]
        if report.rhs is not None:
            out["rhs"] = [str(x) for x in report.rhs]
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


def _word_sweep(args: argparse.Namespace, sweep, what: str, label: str, arity: int) -> int:
    """Run ``sweep`` on every word up to ``--max-size`` and report its first failure."""
    alphabet = _split_names(args.alphabet)
    bound = _checked_size("--max-size", args.max_size)
    elements = [LinComb.from_word(w) for w in words_up_to_size(alphabet, bound)]
    failure = sweep(elements)
    if failure is not None:
        case = [str(elements[i]) for i in failure.indices]
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
        return 1
    _emit(
        args,
        {"ok": True, "words": len(elements), "max_size": bound},
        f"{what} holds on all {len(elements)}^{arity} word {label}s up to size {bound}",
    )
    return 0


def _cmd_assoc_check(args: argparse.Namespace) -> int:
    return _word_sweep(args, first_nonassociative_triple, "associativity", "triple", 3)


def _cmd_nijenhuis_check(args: argparse.Namespace) -> int:
    return _word_sweep(args, first_operator_identity_failure, "operator identity", "pair", 2)


def _relation_sweep(args: argparse.Namespace, rels, label: str) -> int:
    names = _split_names(args.generators)
    if len(names) < 3:
        raise _UsageError("relation checks need at least three generator names")
    x, y, z = (LinComb.from_word(letter_word(s)) for s in names[:3])
    for k, rel in enumerate(rels):
        residue = relations.evaluate_relation(rel, x, y, z)
        if not residue.is_zero():
            _emit(
                args,
                {"ok": False, "relation": k, "residue": _lincomb_json(residue)},
                f"{label} relation {k + 1} fails: residue {residue}",
            )
            return 1
    _emit(
        args,
        {"ok": True, "relations": len(rels)},
        f"all {len(rels)} {label} relations hold on free generators",
    )
    return 0


def _cmd_ns_check(args: argparse.Namespace) -> int:
    return _relation_sweep(args, relations.ns_relation_set(), "four-family")


def _cmd_ndend_check(args: argparse.Namespace) -> int:
    return _relation_sweep(args, relations.ndendriform_relation_set(), "five-family")


@functools.cache
def _relation_space_flags() -> tuple[bool, bool]:
    """Whether the solved basis spans the five-relation family, and whether it contains the four."""
    basis = relations.solve_relation_space()
    return (
        relations.relation_sets_span_equal(basis, relations.ndendriform_relation_set()),
        relations.relation_sets_span_equal(basis, (*basis, *relations.ns_relation_set())),
    )


def _cmd_solve_relspace(args: argparse.Namespace) -> int:
    basis = relations.solve_relation_space()
    matches, contains_four = _relation_space_flags()
    vectors = [v.to_json_obj() for v in basis]
    obj = {
        "dimension": len(basis),
        "basis": vectors,
        "matches_five_family": matches,
        "contains_four_family": contains_four,
    }
    lines = [f"relation space dimension: {len(basis)}"]
    for k, v in enumerate(vectors):
        lines.append(f"v{k + 1} left={v['left']} right={v['right']}")
    lines.append(f"spans the five-relation family: {matches}")
    lines.append(f"contains the four-relation family: {contains_four}")
    _emit(args, obj, "\n".join(lines))
    return 0 if (matches and contains_four) else 1


def _names_for_dim(args: argparse.Namespace, dim: int) -> tuple[str, ...]:
    if args.generators is None:
        return envelope.default_names(dim)
    names = _split_names(args.generators)
    if len(names) != dim:
        raise _UsageError(f"need exactly {dim} generator names, got {len(names)}")
    return names


def _cmd_env_generators(args: argparse.Namespace) -> int:
    ns_alg = _as_ns(_load_algebra(args.file))
    names = _names_for_dim(args, ns_alg.dim)
    gens = envelope.enveloping_generators(ns_alg, names)
    records = []
    lines = []
    # enveloping_generators orders them by (i, j), then by operation.
    labels = itertools.product(range(ns_alg.dim), range(ns_alg.dim), COORD_OPS)
    for element, (i, j, op) in zip(gens, labels):
        records.append({"i": i, "j": j, "op": op.value, "element": _lincomb_json(element)})
        lines.append(f"({i},{j}) {op.value}: {element}")
    _emit(args, {"count": len(gens), "generators": records}, "\n".join(lines))
    return 0


def _cmd_fd_check(args: argparse.Namespace) -> int:
    alg = _load_algebra(args.file)
    if isinstance(alg, envelope.NijenhuisAlgebraFD):
        report = envelope.check_nijenhuis_fd(alg)
        _emit(
            args,
            {"type": "operator-algebra", **_report_json(report)},
            f"operator algebra: {report.describe()}",
        )
        return 0 if report.ok else 1
    ns_report = envelope.check_ns_axioms(alg)
    nd_report = envelope.check_ndendriform_axioms(alg)
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
    # The plain form is the JSON form.
    print(json.dumps(envelope.induced_ns(_load_operator_algebra(args.file)).to_json_obj(), indent=2))
    return 0


def _cmd_eval_hom(args: argparse.Namespace) -> int:
    alg = _load_operator_algebra(args.file)
    names, matrix = _load_map(args.mapfile)
    element = _parse_element(args.expr, names)
    image = envelope.evaluate_hom(alg, matrix, element, names)
    coords = [str(x) for x in image]
    _emit(args, {"vector": coords}, ", ".join(coords))
    return 0


def _cmd_ideal_member(args: argparse.Namespace) -> int:
    bound = _checked_size("--bound", args.bound)
    ns_alg = _as_ns(_load_algebra(args.file))
    names = _names_for_dim(args, ns_alg.dim)
    gens = envelope.enveloping_generators(ns_alg, names)
    candidate = _parse_element(args.expr, names)
    verdict = envelope.truncated_ideal_membership(gens, candidate, bound)
    _emit(
        args,
        {"verdict": verdict.value, "bound": bound},
        f"{verdict.value} (bound {bound})",
    )
    return 0 if verdict is envelope.Membership.MEMBER else 1


def _cmd_morphism_check(args: argparse.Namespace) -> int:
    source = _as_ns(_load_algebra(args.source))
    target = _load_operator_algebra(args.target)
    names, matrix = _load_map(args.mapfile)
    report = envelope.check_morphism_kills_generators(source, target, matrix, names)
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
        parser.ParseError,
        parser.EvalError,
        WordError,
        DimensionMismatch,
        envelope.ArityMismatch,
        envelope.UnknownGenerator,
        envelope.BoundTooSmall,
        OSError,
        json.JSONDecodeError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except TooManyTerms as exc:
        print(f"error: {exc}; NF_MAX_TERMS sets the cap", file=sys.stderr)
        return 2
    except envelope.InvalidInput as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
