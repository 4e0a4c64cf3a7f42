"""Seeded inputs for the benchmark workloads.

Everything the program sees is made here from the seed: argv lists and
the algebra and map JSON files they name.  Each op carries the check
its output must pass, with the answer expected by construction.  The
expected answers are computed here, without the program: word counts by
a recurrence, kernel generators and induced operations from closed
formulas for a componentwise product with a diagonal operator.

Ops come in rounds.  Every round of a workload holds the same mix of
op kinds, in a seeded order, so that medians over whole rounds do not
depend on the seed.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from pathlib import Path

# (subcommand, alphabet size, --max-size, ops per round).  Nine of the
# thirteen ops take 0.4-0.6 s, so the median and the tail both fall
# inside one large group of samples of similar cost: with three rounds,
# the median is near the middle of that group and the tail is its fifth
# dearest sample.  A median or tail that sits on the edge between two
# groups, or on a few samples, jumps with the noise; nijenhuis-check
# over two letters at size 3 (0.6-0.9 s) is a group of its own and is
# kept to one op per round for that reason.  assoc-check over {x,y} at
# size 3 is the ROADMAP's north-star number, but one such op takes
# about 11 s, a third of a run, so it is left out.
SWEEP_MENU = (
    ("assoc-check", 2, 2, 1),
    ("assoc-check", 1, 3, 1),
    ("assoc-check", 3, 2, 4),
    ("nijenhuis-check", 2, 3, 1),
    ("nijenhuis-check", 1, 4, 5),
    ("nijenhuis-check", 3, 3, 1),
)

# (dimension, --bound, candidates per round).  A config with an even
# count gets as many members as non-members in every round; one with a
# single candidate alternates the two kinds from round to round.  Most
# candidates sit at dimension 2, bound 5, where the closure does most of
# the work while one op still takes well under a second.  As many ops
# are cheaper as are dearer, so the median falls in the middle of that
# group and the tail inside it.  The group is large because the machine
# the benchmark was written on switches between a fast and a slow speed
# every few seconds: the same op takes 160 ms or 280 ms.  A median over
# few samples of such a mixture jumps between the two.
MEMBERSHIP_MENU = (
    (2, 4, 1),
    (3, 4, 1),
    (2, 5, 20),
    (3, 5, 1),
    (2, 6, 1),
)

# Nonzero diagonal entries of similar size keep the cost of one op
# nearly independent of the seed; a zero entry prunes many terms.
_LAMBDAS = ("2", "3", "-2", "-3", "3/2", "-3/2", "5/2")

_LETTERS = "abcdfghjkmnqrtuvwxyz"
_OPS = ("prec", "succ", "bullet", "star")
_SESSION_EVALS = 10
_SESSION_MULS = 10
EVAL_TERMS = (4, 8)
MUL_TERMS = (8, 16)
_ALGEBRAS_PER_DIM = 4


def _names(rng: random.Random, k: int) -> list[str]:
    return sorted(rng.sample(_LETTERS, k))


def word_count(letters: int, max_size: int) -> int:
    """Number of bracketed words of size 1..max_size over ``letters`` letters.

    A word alternates letter runs (a run of m letters has size m) and
    brackets (size one more than the word inside).
    """
    ends_run = [0] * (max_size + 1)
    ends_bracket = [0] * (max_size + 1)
    total = [0] * (max_size + 1)
    for n in range(1, max_size + 1):
        ends_run[n] = sum(
            letters**m * ((m == n) + ends_bracket[n - m]) for m in range(1, n + 1)
        )
        ends_bracket[n] = sum(
            total[s] * ((s + 1 == n) + ends_run[n - s - 1]) for s in range(1, n)
        )
        total[n] = ends_run[n] + ends_bracket[n]
    return sum(total[1:])


def _sweep_rounds(rng: random.Random, count: int) -> list[list[dict]]:
    rounds = []
    for _ in range(count):
        ops = [
            {
                "argv": [command, "--json", "--alphabet", ",".join(_names(rng, letters)), "--max-size", str(max_size)],
                "check": "sweep",
                "expect": {"ok": True, "words": word_count(letters, max_size), "max_size": max_size},
            }
            for command, letters, max_size, per_round in SWEEP_MENU
            for _ in range(per_round)
        ]
        rng.shuffle(ops)
        rounds.append(ops)
    return rounds


class _Algebra:
    """Componentwise product on ``dim`` coordinates with a diagonal operator.

    The operator identity holds for any diagonal, so every such algebra
    is valid input.  Basis vector i is named ``e<i+1>``.
    """

    def __init__(self, lambdas: list[str]):
        self.lambdas = [Fraction(x) for x in lambdas]
        self.dim = len(lambdas)

    def json_obj(self) -> dict:
        d = self.dim
        return {
            "dim": d,
            "mult": [
                [["1" if i == j == k else "0" for k in range(d)] for j in range(d)]
                for i in range(d)
            ],
            "op": [
                [str(self.lambdas[i]) if i == j else "0" for j in range(d)]
                for i in range(d)
            ],
        }

    def kernel_generators(self) -> list[dict[str, Fraction]]:
        """The program's kernel generators, as {word: coefficient}, in its order.

        prec(i,j) = e_i P(e_j), succ(i,j) = P(e_i) e_j and
        bullet(i,j) = -P(e_i e_j) are all lam * delta_ij * e_i here.
        """
        out = []
        for i in range(self.dim):
            for j in range(self.dim):
                ei, ej = f"e{i + 1}", f"e{j + 1}"
                diag = {ei: self.lambdas[i]} if i == j else {}
                out.append({**diag, f"{ei}*[{ej}]": Fraction(-1)})
                out.append({**diag, f"[{ei}]*{ej}": Fraction(-1)})
                out.append({**{w: -c for w, c in diag.items()}, f"[{ei}*{ej}]": Fraction(1)})
        return out

    def induced(self) -> dict:
        """The induce-ns output: three tensors of rationals, as strings."""
        d = self.dim

        def tensor(sign: int) -> list:
            return [
                [[str(sign * self.lambdas[i]) if i == j == k else "0" for k in range(d)] for j in range(d)]
                for i in range(d)
            ]

        return {"dim": d, "prec": tensor(1), "succ": tensor(1), "bullet": tensor(-1)}


def _lincomb_text(terms: dict[str, Fraction]) -> str:
    """Surface syntax for a combination; may start with a minus sign."""
    pieces = []
    for word, c in terms.items():
        body = word if abs(c) == 1 else f"{abs(c)}*{word}"
        sign = "-" if c < 0 else "+"
        pieces.append(f"{sign} {body}" if pieces else (f"-{body}" if c < 0 else body))
    return " ".join(pieces)


# Coefficient magnitudes, each as often as it comes out of n/d below.
_MAGNITUDES = tuple(str(Fraction(n, d)) for n in (1, 2, 3, 5) for d in (1, 1, 2, 3))


def _combination(rng: random.Random, bodies: list[str]) -> str:
    """A sum of random nonzero rational multiples of ``bodies``."""
    pieces = []
    for body in bodies:
        negative = rng.random() < 0.5
        term = f"{rng.choice(_MAGNITUDES)}*{body}"
        if pieces:
            pieces.append(("- " if negative else "+ ") + term)
        else:
            pieces.append(("-" if negative else "") + term)
    return " ".join(pieces)


def _member_piece(rng: random.Random, gen: str, bound: int, letters: list[str]) -> str:
    """An element of the ideal generated by ``gen`` (size 3), within ``bound``.

    Sizes add under the product and a bracket adds one, so every shape
    below has size 3 + (its room), and no intermediate product is larger.
    """
    x, y = rng.choice(letters), rng.choice(letters)
    shapes = {
        0: [f"({gen})"],
        1: [f"[{gen}]", f"{x}*({gen})", f"({gen})*{y}"],
        2: [f"[[{gen}]]", f"[{gen}]*{y}", f"[{x}*({gen})]", f"({gen})*[{y}]", f"{x}*({gen})*{y}"],
        3: [f"[[{gen}]]*{y}", f"{x}*[{gen}]*{y}", f"[[{gen}]*{x}]", f"({gen})*[{x}*{y}]", f"[[[{gen}]]]"],
    }
    return rng.choice([shape for room, group in shapes.items() if room <= bound - 3 for shape in group])


def _member_text(rng: random.Random, alg: _Algebra, bound: int) -> str:
    gens = [_lincomb_text(g) for g in alg.kernel_generators()]
    letters = [f"e{i + 1}" for i in range(alg.dim)]
    return _combination(
        rng, [_member_piece(rng, rng.choice(gens), bound, letters) for _ in range(rng.randint(1, 3))]
    )


def _nonmember_text(rng: random.Random, alg: _Algebra, bound: int) -> str:
    """A member plus a nonzero multiple of a word that evaluates to nonzero.

    The evaluation map kills the whole ideal, and e_i^k maps to e_i and
    [e_i] to lam_i e_i, both nonzero, so the sum is never a member.
    """
    i = rng.randrange(alg.dim)
    ei = f"e{i + 1}"
    extra = rng.choice(["*".join([ei] * rng.randint(1, 3)), f"[{ei}]"])
    if rng.random() < 0.25:
        return _combination(rng, [extra])
    return _combination(rng, [extra, f"({_member_text(rng, alg, bound)})"])


def _write_json(path: Path, obj: dict) -> None:
    path.write_text(json.dumps(obj, indent=2) + "\n", encoding="utf-8")


def _algebra_pool(rng: random.Random, workdir: Path, dims: tuple[int, ...]) -> dict[int, list[tuple[str, _Algebra]]]:
    pool: dict[int, list[tuple[str, _Algebra]]] = {}
    for d in dims:
        for k in range(_ALGEBRAS_PER_DIM):
            alg = _Algebra([rng.choice(_LAMBDAS) for _ in range(d)])
            name = f"alg-d{d}-{k}.json"
            _write_json(workdir / name, alg.json_obj())
            pool.setdefault(d, []).append((name, alg))
        _write_json(
            workdir / f"idmap-d{d}.json",
            {
                "names": [f"e{i + 1}" for i in range(d)],
                "matrix": [["1" if i == j else "0" for j in range(d)] for i in range(d)],
            },
        )
    return pool


def _membership_rounds(rng: random.Random, workdir: Path, count: int) -> list[list[dict]]:
    pool = _algebra_pool(rng, workdir, (2, 3))
    rounds = []
    for r in range(count):
        ops = []
        for dim, bound, per_round in MEMBERSHIP_MENU:
            kinds = ("member", "nonmember") * (per_round // 2) or (("member", "nonmember")[r % 2],)
            for kind in kinds:
                name, alg = rng.choice(pool[dim])
                make = _member_text if kind == "member" else _nonmember_text
                ops.append(
                    {
                        "argv": ["ideal-member", "--json", name, "--bound", str(bound), "--", make(rng, alg, bound)],
                        "check": kind,
                        "expect": {"verdict": "member" if kind == "member" else "not-detected", "bound": bound},
                    }
                )
        rng.shuffle(ops)
        rounds.append(ops)
    return rounds


def _monomial(rng: random.Random, names: list[str]) -> str:
    run = "*".join(rng.choice(names) for _ in range(rng.randint(1, 2)))
    other = rng.choice(names)
    return rng.choice((run, f"[{run}]", f"{run}*[{other}]", f"[{other}]*{run}", f"[[{run}]]"))


def operand(rng: random.Random, names: list[str], terms: int) -> str:
    """A signed sum of ``terms`` random monomials of size at most 4."""
    return _combination(rng, [_monomial(rng, names) for _ in range(terms)])


def eval_text(rng: random.Random, names: list[str]) -> str:
    """A product-like expression of two operands.

    The term counts of the operands bound the expansion to a few hundred
    terms; nesting the operations without a bound gave single ops of
    tens of seconds that would swamp a run.
    """
    left = operand(rng, names, rng.randint(*EVAL_TERMS))
    right = operand(rng, names, rng.randint(*EVAL_TERMS))
    shape = rng.choice(("op", "op", "product", "bracket"))
    if shape == "product":
        return f"({left})*[{right}]"
    text = f"{rng.choice(_OPS)}({left}, {right})"
    return f"[{text}]" if shape == "bracket" else text


def _session_rounds(rng: random.Random, workdir: Path, count: int) -> list[list[dict]]:
    pool = _algebra_pool(rng, workdir, (2, 3))
    algebras = [entry for d in (2, 3) for entry in pool[d]]
    # One generator set per run, as in one notebook: the product cache
    # then serves later rounds, and memory still grows with new words.
    names = _names(rng, 3)
    gens = ["--generators", ",".join(names)]
    rounds = []
    for r in range(count):
        ops = []
        for _ in range(_SESSION_EVALS):
            expr = eval_text(rng, names)
            ops.append({"argv": ["eval", *gens, "--", expr], "check": "roundtrip", "expect": {"names": names}})
        for _ in range(_SESSION_MULS):
            left = operand(rng, names, rng.randint(*MUL_TERMS))
            right = operand(rng, names, rng.randint(*MUL_TERMS))
            ops.append({"argv": ["mul", *gens, "--", left, right], "check": "roundtrip", "expect": {"names": names}})
        # Parsing a printed result back costs several times the op itself at
        # the seed commit, so one eval/mul output per round gets the round
        # trip; the others must exit 0 with a nonempty result.
        checked = rng.randrange(len(ops))
        for k, op in enumerate(ops):
            if k != checked:
                op["check"] = "printed"
        ops.append({"argv": ["ns-check", "--json", *gens], "check": "json", "expect": {"ok": True, "relations": 4}})
        ops.append({"argv": ["ndend-check", "--json", *gens], "check": "json", "expect": {"ok": True, "relations": 5}})
        ops.append({"argv": ["solve-relspace", "--json"], "check": "relspace", "expect": {"dimension": 5}})
        name, alg = algebras[r % len(algebras)]
        idmap = f"idmap-d{alg.dim}.json"
        kernel = alg.kernel_generators()
        ops.append({"argv": ["fd-check", "--json", name], "check": "json", "expect": {"type": "operator-algebra", "ok": True}})
        ops.append(
            {
                "argv": ["induce-ns", "--json", name],
                "check": "rationals",
                "expect": alg.induced(),
            }
        )
        ops.append(
            {
                "argv": ["env-generators", "--json", name],
                "check": "envgen",
                "expect": {"count": len(kernel), "generators": [{w: str(c) for w, c in g.items()} for g in kernel]},
            }
        )
        g = rng.choice(kernel)
        ops.append(
            {
                "argv": ["eval-hom", "--json", name, idmap, "--", _lincomb_text(g)],
                "check": "rationals",
                "expect": {"vector": ["0"] * alg.dim},
            }
        )
        ops.append({"argv": ["morphism-check", "--json", name, name, idmap], "check": "json", "expect": {"ok": True}})
        rng.shuffle(ops)
        rounds.append(ops)
    return rounds


def kernel_ops(workdir: Path) -> list[dict]:
    """An ``eval-hom`` op for every kernel generator of every algebra in ``workdir``.

    Each generator lies in the kernel, so under the identity map each
    must evaluate to the zero vector.  The session's timed rounds check
    one generator each; these ops, run after the timed phase, check all.
    """
    ops = []
    for path in sorted(workdir.glob("alg-d*.json")):
        obj = json.loads(path.read_text(encoding="utf-8"))
        alg = _Algebra([row[i] for i, row in enumerate(obj["op"])])
        for g in alg.kernel_generators():
            ops.append(
                {
                    "argv": ["eval-hom", "--json", path.name, f"idmap-d{alg.dim}.json", "--", _lincomb_text(g)],
                    "check": "rationals",
                    "expect": {"vector": ["0"] * alg.dim},
                }
            )
    return ops


WORKLOADS = {
    "sweep": lambda rng, workdir, count: _sweep_rounds(rng, count),
    "membership": _membership_rounds,
    "session": _session_rounds,
}


def op_kind(op: dict) -> str:
    """The menu item an op was drawn from, e.g. ``ideal-member d3 b5``."""
    argv = op["argv"]
    if argv[0] in ("assoc-check", "nijenhuis-check"):
        return f"{argv[0]} {len(argv[3].split(','))}/{argv[5]}"
    if argv[0] == "ideal-member":
        return f"ideal-member d{argv[2].split('-')[1][1:]} b{argv[4]}"
    return argv[0]


def make_inputs(workload: str, seed: int, workdir: Path, rounds: int) -> list[list[dict]]:
    """Write the workload's files into ``workdir`` and return its op rounds.

    Argv lists name files relative to ``workdir``, which is the workers'
    working directory, so the same seed gives the same argv anywhere.
    """
    workdir.mkdir(parents=True, exist_ok=True)
    return WORKLOADS[workload](random.Random(f"{workload}:{seed}"), workdir, rounds)
