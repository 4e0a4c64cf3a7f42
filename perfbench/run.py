"""Benchmark of the nijenhuis package, driven through its CLI entry point.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload {sweep,membership,session} \\
        --seed N --seconds S --trace {0,1}

The benchmark imports the program from the checkout's ``src`` tree in
worker processes (``worker.py``) and calls only
``nijenhuis.cli.run_command(argv)``.  One client, closed loop: the next
op is sent when the previous one has returned, and only one worker
computes at a time.  An op's latency is timed inside the worker, from
the call to its return.

* ``sweep`` and ``membership`` run each op in a fresh worker, as a CLI
  user sees it; ``ops_per_s`` includes the spawns.
* ``session`` runs every op in one long-lived worker.

Ops come in rounds of a fixed mix (see ``gen.py``).  A run holds as
many rounds as take ``--seconds`` at the seed commit; ``session`` first
runs ``WARMUP_ROUNDS`` more, checked but not timed.  Deadlines
(``OPS_END_S``, ``CHECKS_END_S``) cut a very slow run short, so that it
still ends within three minutes; the ops and checks they cut off are
reported apart and are neither attempted nor failed.  Every output is
checked, and a wrong answer, crash or per-op time-out counts as a
failed op.  After the timed phase, ``session`` also evaluates every
kernel generator of its algebras with ``eval-hom``, untimed; each must
map to the zero vector.

With ``--trace 0`` the result line carries the end-to-end metrics.
With ``--trace 1`` every op runs untraced and then traced, over half as
many rounds, and the result line carries the per-layer metrics of the
traced runs, per op, plus the tracing overhead; no end-to-end metric is
timed in that mode.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Lines before it give the
same numbers for people, with the error rate, the tail percentile and
its sample count, and a digest of all op outputs.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import queue
import shutil
import statistics
import subprocess
import sys
import threading
import time
from fractions import Fraction
from pathlib import Path

import gen
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

# Set-up is timed this many times, at even intervals through the timed
# phase (whose wall time excludes them), so that its median, like the
# other metrics, reflects the machine's speed over the whole run.
SETUP_SPAWNS = 12
SPAWN_TIMEOUT_S = 30.0
OP_TIMEOUT_S = {"sweep": 60.0, "membership": 60.0, "session": 30.0}
CHECK_TIMEOUT_S = 60.0
# Seconds from the start of a run by which every op, and then every
# output check, must have ended, so that a run ends within three
# minutes however slow the program.  What they cut off is counted
# apart: a slow program is not a wrong one.
OPS_END_S = 130.0
CHECKS_END_S = 160.0
FRESH_WORKER = {"sweep": True, "membership": True, "session": False}
# Seconds one round takes at the seed commit (2-core x86 VM, Python
# 3.11).  --seconds sets the number of rounds through these constants,
# so every commit runs the same ops for the same seed: the tail
# percentile, which depends on the sample count, and the peak RSS of a
# session, which grows with its ops, stay comparable across commits.
NOMINAL_ROUND_S = {"sweep": 12.5, "membership": 15.0, "session": 0.45}
# Rounds a session runs before its timed phase, checked but not timed.
# They fill the product cache, as a session that has run for a while
# has it, and take the heap past the size at which a full garbage
# collection comes every few rounds.  In a cold session about eight
# full collections land in the timed phase, each of 20-200 ms; with ten
# samples beyond the tail, that many made the tail jump between ops that
# met a collection and ops that did not.
WARMUP_ROUNDS = {"sweep": 0, "membership": 0, "session": 25}

END_TO_END = {
    "setup_s": "s",
    "op_p50_s": "s",
    "op_tail_s": "s",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
}

# Per-layer metrics are means per traced op, so they do not grow with
# the number of ops a faster program fits into the same run.
_PER_OP_CALLS = (
    "words.canonical_key",
    "words.to_canonical",
    "words.BracketedWord.__init__",
    "linalg.LinComb.__init__",
    "linalg.LinComb.__add__",
    "linalg.LinComb.items",
    "linalg.LinComb.coeff",
    "linalg.rref",
    "algebra.product",
    "algebra.product_words",
    "algebra.operator_n",
    "algebra.derived_op",
    "envelope.truncated_ideal_membership",
    "relations.evaluate_relation",
)
_PER_OP_SELF = (
    "words.canonical_key",
    "words.to_canonical",
    "words.words_up_to_size",
    "words.BracketedWord.__init__",
    "linalg.LinComb.__init__",
    "linalg.LinComb.__add__",
    "linalg.LinComb.items",
    "linalg.LinComb.coeff",
    "linalg.rref",
    "algebra.product",
    "algebra.product_words",
    "algebra.operator_n",
    "envelope.truncated_ideal_membership",
    "envelope.enveloping_generators",
    "envelope.check_nijenhuis_fd",
    "envelope.evaluate_hom",
    "relations.solve_relation_space",
    "relations.evaluate_relation",
    "parser.parse_expr",
    "parser.eval_expr",
    "parser.print_canonical",
    "cli.run_command",
)
PER_LAYER = {
    "words.hash_calls": "count/op",
    **{f"{name}.calls": "count/op" for name in _PER_OP_CALLS},
    **{f"{name}.self_s": "s/op" for name in _PER_OP_SELF},
    **{f"{layer}.self_s": "s/op" for layer in tracing.LAYERS},
    "algebra.product_cache_entries": "count",
    "algebra.product_words.hit_ratio": "ratio",
    "trace.overhead_ratio": "ratio",
}


class Worker:
    """One worker process; its stdout is read by a thread, so waits can time out."""

    def __init__(self, workdir: Path, spans_path: Path | None = None):
        argv = [sys.executable, str(HERE / "worker.py"), str(SRC)]
        if spans_path is not None:
            argv += ["--trace", str(spans_path)]
        env = {k: v for k, v in os.environ.items() if k not in ("NF_MAX_SIZE", "PYTHONPATH")}
        start = time.perf_counter()
        self.proc = subprocess.Popen(
            argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, cwd=workdir, env=env
        )
        self._lines: queue.Queue = queue.Queue()
        self._reader = threading.Thread(target=self._pump, daemon=True)
        self._reader.start()
        ready = self._read(SPAWN_TIMEOUT_S)
        self.setup_s = time.perf_counter() - start
        if ready != "ready\n":
            self.kill()
            raise RuntimeError("worker did not start; is src/nijenhuis importable?")

    def _pump(self) -> None:
        for line in self.proc.stdout:
            self._lines.put(line)
        self._lines.put(None)

    def _read(self, timeout: float) -> str | None:
        try:
            return self._lines.get(timeout=timeout)
        except queue.Empty:
            return None

    def call(self, request: dict, timeout: float) -> dict | None:
        """Send one request; None when the worker died or timed out (it is then killed)."""
        try:
            self.proc.stdin.write(json.dumps(request) + "\n")
            self.proc.stdin.flush()
        except BrokenPipeError:
            self.kill()
            return None
        line = self._read(timeout)
        if line is None:
            self.kill()
            return None
        return json.loads(line)

    def close(self, timeout: float = SPAWN_TIMEOUT_S) -> dict | None:
        """End the worker; returns its last message (the trace summary), if any."""
        last = None
        try:
            self.proc.stdin.close()
            line = self._read(timeout)
            if line is not None:
                last = json.loads(line)
            self.proc.wait(timeout=timeout)
        except (BrokenPipeError, subprocess.TimeoutExpired):
            pass
        self.kill()
        return last

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self._reader.join()
        for stream in (self.proc.stdin, self.proc.stdout):
            try:
                stream.close()
            except BrokenPipeError:
                pass


def tail(samples: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond) at the highest percentile with
    at least ten samples beyond it.  With ten samples or fewer there is
    none, and the maximum is returned with nothing beyond it."""
    ordered = sorted(samples)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0, 0
    k = n - 11
    return ordered[k], 100.0 * (k + 1) / n, n - k - 1


def _rationals(value):
    if isinstance(value, list):
        return [_rationals(v) for v in value]
    if isinstance(value, str):
        try:
            return Fraction(value)
        except ValueError:
            return value
    return value


def check(op: dict, reply: dict) -> bool:
    """Whether one op's exit code and output match what the inputs imply.

    Printed ``eval``/``mul`` results are checked after the timed phase,
    by a round trip through the program's parser (see :func:`run`).
    """
    kind, expect, rc = op["check"], op["expect"], reply["rc"]
    if rc != (1 if kind == "nonmember" else 0):
        return False
    if kind in ("roundtrip", "printed"):
        return reply["out"].strip() != ""
    try:
        obj = json.loads(reply["out"])
    except ValueError:
        return False
    if kind in ("sweep", "member", "nonmember", "json"):
        return all(obj.get(k) == v for k, v in expect.items())
    if kind == "relspace":
        return (
            obj.get("dimension") == expect["dimension"]
            and obj.get("matches_five_family") is True
            and obj.get("contains_four_family") is True
        )
    if kind == "rationals":
        return all(_rationals(obj.get(k)) == _rationals(v) for k, v in expect.items())
    if kind == "envgen":
        got = [
            {t["word"]: Fraction(t["coeff"]) for t in g["element"]["terms"]}
            for g in obj.get("generators", [])
        ]
        want = [{w: Fraction(c) for w, c in g.items()} for g in expect["generators"]]
        return obj.get("count") == expect["count"] and got == want
    raise ValueError(f"unknown check {kind!r}")


UNCHECKED = "unchecked"


def untimed_requests(workdir: Path, requests: list[dict], until: float) -> list:
    """Send each request to a fresh, untraced worker, after the timed phase.

    Gives each request's reply, None when the worker died or timed out
    on it, or ``UNCHECKED`` when the deadline ``until`` cut it off.
    """
    replies: list = []
    worker = None
    try:
        for request in requests:
            left = until - time.perf_counter()
            if left < 1:
                replies.append(UNCHECKED)
                continue
            if worker is None:
                worker = Worker(workdir)
            reply = worker.call(request, min(CHECK_TIMEOUT_S, left))
            if reply is None:
                worker = None  # call() has killed it
                reply = UNCHECKED if time.perf_counter() >= until - 1 else None
            replies.append(reply)
    finally:
        if worker is not None:
            worker.close()
    return replies


class Runner:
    """Runs ops in fresh or long-lived workers and keeps what they report."""

    def __init__(self, workload: str, workdir: Path, traced: bool):
        self.workdir = workdir
        self.traced = traced
        self.fresh = FRESH_WORKER[workload]
        self.timeout = OP_TIMEOUT_S[workload]
        self.summaries: list[dict] = []
        self._spans = 0
        self._session: Worker | None = None

    def _spawn(self) -> Worker:
        spans = None
        if self.traced:
            spans = self.workdir / f"spans-{self._spans}.tsv"
            self._spans += 1
        return Worker(self.workdir, spans)

    def run(self, op_id: int, argv: list[str], until: float) -> dict | None:
        timeout = max(min(self.timeout, until - time.perf_counter()), 0.0)
        if self.fresh:
            worker = self._spawn()
            reply = worker.call({"op": op_id, "argv": argv}, timeout)
            self._keep(worker.close())
            return reply
        if self._session is None:
            self._session = self._spawn()
        reply = self._session.call({"op": op_id, "argv": argv}, timeout)
        if reply is None:
            self._session = None
        return reply

    def _keep(self, last: dict | None) -> None:
        if last and "trace" in last:
            self.summaries.append(last["trace"])

    def start(self) -> None:
        if not self.fresh and self._session is None:
            self._session = self._spawn()

    def close(self) -> None:
        if self._session is not None:
            self._keep(self._session.close())
            self._session = None


def time_setup(workdir: Path) -> float:
    """Time from spawn until a worker has imported the package."""
    worker = Worker(workdir)
    worker.close()
    return worker.setup_s


def _layer_metrics(summaries: list[dict], traced: list[dict]) -> dict[str, float]:
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    hashes = 0
    for s in summaries:
        for name, c in s["calls"].items():
            calls[name] = calls.get(name, 0) + c
        for name, t in s["self_s"].items():
            self_s[name] = self_s.get(name, 0.0) + t
        hashes += s["hash_calls"]
    n = max(len(traced), 1)
    out = {"words.hash_calls": hashes / n}
    for name in _PER_OP_CALLS:
        out[f"{name}.calls"] = calls.get(name, 0) / n
    for name in _PER_OP_SELF:
        out[f"{name}.self_s"] = self_s.get(name, 0.0) / n
    for layer in tracing.LAYERS:
        out[f"{layer}.self_s"] = sum(t for name, t in self_s.items() if name.startswith(layer + ".")) / n
    with_cache = [r for r in traced if r["cache_after"] >= 0]
    out["algebra.product_cache_entries"] = max((r["cache_after"] for r in with_cache), default=0)
    growth = sum(r["cache_after"] - r["cache_before"] for r in with_cache)
    word_products = calls.get("algebra.product_words", 0)
    out["algebra.product_words.hit_ratio"] = 1 - growth / word_products if word_products else 0.0
    untraced_s = sum(r["untraced_latency_s"] for r in traced)
    out["trace.overhead_ratio"] = sum(r["latency_s"] for r in traced) / untraced_s if untraced_s else 0.0
    return out


def _report_failure(op: dict, why: str) -> None:
    print(f"failed op {op['argv']}: {why}", file=sys.stderr)


def run(workload: str, seed: int, seconds: float, trace: bool, rounds: int | None = None) -> dict:
    """One benchmark run; returns the result object and a report for people.

    ``rounds``, when given, replaces the count that ``seconds`` implies;
    the tests run single rounds through it.
    """
    begin = time.perf_counter()
    ops_until, checks_until = begin + OPS_END_S, begin + CHECKS_END_S
    workdir = WORK / f"{workload}-{'trace' if trace else 'plain'}"
    shutil.rmtree(workdir, ignore_errors=True)
    if rounds is None:
        rounds = max(1, round(seconds / NOMINAL_ROUND_S[workload]))
        if trace:
            rounds = max(1, rounds // 2)  # each op runs twice, untraced and traced
    warmup = WARMUP_ROUNDS[workload]
    plan = gen.make_inputs(workload, seed, workdir, warmup + rounds)
    Worker(workdir).close()  # writes the bytecode cache, untimed

    plain = Runner(workload, workdir, traced=False)
    traced = Runner(workload, workdir, traced=True) if trace else None
    for runner in (plain, traced):
        if runner is not None:
            runner.start()
    digest = hashlib.sha256()
    attempted = failed = not_run = 0
    records: list[tuple[dict, dict]] = []  # (op, reply) for ops that passed their checks
    timed_records: list[tuple[dict, dict]] = []  # those of them past the warm-up
    ops = [op for ops in plan for op in ops]
    warm_ops = sum(len(ops) for ops in plan[:warmup])
    setup_every = max(1, (len(ops) - warm_ops) // SETUP_SPAWNS)
    setup_times: list[float] = []
    setup_wall = 0.0
    start = time.perf_counter()
    for op_id, op in enumerate(ops, 1):
        timed = op_id > warm_ops
        if op_id == warm_ops + 1:
            start = time.perf_counter()
        if timed and not trace and (op_id - warm_ops - 1) % setup_every == 0:
            before = time.perf_counter()
            setup_times.append(time_setup(workdir))
            setup_wall += time.perf_counter() - before
        if time.perf_counter() > ops_until - 1:
            not_run = len(ops) - op_id + 1
            break
        reply = plain.run(op_id, op["argv"], ops_until)
        if traced is not None and reply is not None:
            first = reply
            reply = traced.run(op_id, op["argv"], ops_until)
            if reply is not None and (reply["rc"], reply["out"]) != (first["rc"], first["out"]):
                reply = None  # tracing must not change what the program does
            elif reply is not None:
                reply["untraced_latency_s"] = first["latency_s"]
        if reply is None and time.perf_counter() >= ops_until:
            not_run = len(ops) - op_id + 1  # the deadline, not the op's own time-out, cut it off
            break
        attempted += 1
        if reply is None:
            failed += 1
            _report_failure(op, "no reply, or the traced output differs")
            digest.update(json.dumps([op["argv"], "no reply"]).encode())
            continue
        digest.update(json.dumps([op["argv"], reply["rc"], reply["out"]]).encode())
        if check(op, reply):
            records.append((op, reply))
            if timed:
                timed_records.append((op, reply))
        else:
            failed += 1
            _report_failure(op, f"exit {reply['rc']}: {reply['out'][:200]!r} {reply['err'][-500:]!r}")
    wall = time.perf_counter() - start - setup_wall
    for runner in (plain, traced):
        if runner is not None:
            runner.close()

    if not_run:
        print(f"run cut short: {not_run} ops not run", file=sys.stderr)

    # Warm-up rounds get the cheaper checks only: a round trip costs more
    # than the op, and the timed rounds cover the same kinds of output.
    trips = [(op, reply) for op, reply in timed_records if op["check"] == "roundtrip"]
    batches = [trips[k : k + 50] for k in range(0, len(trips), 50)]
    homs = gen.kernel_ops(workdir) if workload == "session" else []
    requests = [{"check": [(reply["out"].rstrip("\n"), op["expect"]["names"]) for op, reply in b]} for b in batches]
    requests += [{"op": 0, "argv": op["argv"]} for op in homs]
    replies = untimed_requests(workdir, requests, checks_until)
    unchecked = 0
    for batch, answer in zip(batches, replies):
        for k, (op, reply) in enumerate(batch):
            if answer == UNCHECKED:
                unchecked += 1
            elif answer is None or not answer["ok"][k]:
                failed += 1
                _report_failure(op, f"printed result does not parse back to itself: {reply['out'][:200]!r}")
    for op, reply in zip(homs, replies[len(batches) :]):
        if reply == UNCHECKED:
            unchecked += 1
            continue
        attempted += 1
        digest.update(json.dumps([op["argv"], reply and reply["rc"], reply and reply["out"]]).encode())
        if reply is None or not check(op, reply):
            failed += 1
            _report_failure(op, f"kernel generator does not map to zero: {reply and reply['out'][:200]!r}")
    if unchecked:
        print(f"checks cut short: {unchecked} outputs not checked", file=sys.stderr)

    latencies = [reply["latency_s"] for _, reply in timed_records]
    by_kind: dict[str, list[float]] = {}
    for op, reply in timed_records:
        by_kind.setdefault(gen.op_kind(op), []).append(reply["latency_s"])
    report = {
        "workload": workload,
        "seed": seed,
        "ops": len(ops),
        "rounds": len(plan) - warmup,
        "warmup_rounds": warmup,
        "not_run": not_run,
        "unchecked": unchecked,
        "kernel_checks": len(homs),
        "wall_s": wall,
        "error_rate": failed / max(attempted, 1),
        "digest": digest.hexdigest(),
        "p50_s_by_kind": {kind: statistics.median(v) for kind, v in sorted(by_kind.items())},
    }
    if trace:
        metrics = _layer_metrics(traced.summaries, [r for _, r in records])
        units = PER_LAYER
        report["spans"] = {
            "kept": sum(s["spans_kept"] for s in traced.summaries),
            "dropped": sum(s["spans_dropped"] for s in traced.summaries),
            "files": str(workdir.relative_to(ROOT)),
        }
        report["layer_share"] = _shares(metrics)
    else:
        value, pct, beyond = tail(latencies) if latencies else (0.0, 0.0, 0)
        metrics = {
            "setup_s": statistics.median(setup_times),
            "op_p50_s": statistics.median(latencies) if latencies else 0.0,
            "op_tail_s": value,
            "ops_per_s": len(latencies) / wall,
            "peak_rss_mb": max((r["maxrss_kb"] for _, r in records), default=0) / 1024,
        }
        units = END_TO_END
        report["tail"] = {"percentile": pct, "samples": len(latencies), "beyond": beyond}
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    return {"result": result, "report": report}


def _shares(metrics: dict[str, float]) -> dict[str, float]:
    total = sum(metrics[f"{layer}.self_s"] for layer in tracing.LAYERS)
    return {layer: round(metrics[f"{layer}.self_s"] / total, 4) if total else 0.0 for layer in tracing.LAYERS}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(gen.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "nijenhuis" / "__init__.py").is_file():
        print(f"error: no program to measure: {SRC / 'nijenhuis'} is missing", file=sys.stderr)
        return 2
    out = run(args.workload, args.seed, args.seconds, bool(args.trace))
    report, result = out["report"], out["result"]
    for name, metric in result["metrics"].items():
        note = ""
        if name == "op_tail_s":
            tail_at = report["tail"]
            note = f"  (p{tail_at['percentile']:.1f} of {tail_at['samples']} samples, {tail_at['beyond']} beyond)"
        print(f"{name} {metric['value']:.6g} {metric['unit']}{note}")
    print(f"error_rate {report['error_rate']:.6g} ratio  ({result['failed']} failed / {result['attempted']} attempted)")
    print("report", json.dumps(report, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
