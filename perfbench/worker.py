"""Benchmark worker: imports the program and runs ops on request.

Usage: python3 worker.py SRC [--trace SPANS_PATH]

The worker puts SRC first on ``sys.path``, imports ``nijenhuis`` and
its CLI module and writes ``ready``.  It then reads one JSON request
per line on stdin.
``{"argv": [...], "op": n}`` runs ``nijenhuis.cli.run_command(argv)``
with stdout and stderr captured and answers with the exit code, the
output, the latency of the call, the peak RSS of the process and the
size of the program's product cache, if it has one.
``{"check": [...]}`` runs the output checks that need the program's
parser, untimed.  End of input ends the worker; a traced worker then
writes its spans and answers with the per-function counts and times.
"""

import contextlib
import io
import json
import resource
import sys
import time
import traceback

_NO_CACHE = -1


def _cache_len() -> int:
    cache = getattr(sys.modules.get("nijenhuis.algebra"), "_PRODUCT_CACHE", None)
    try:
        return len(cache)
    except TypeError:
        return _NO_CACHE


def _run(run_command, argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    before = _cache_len()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = run_command(argv)
    except Exception:  # a crash is a failed op, reported with its traceback
        rc = None
        err.write(traceback.format_exc())
    latency = time.perf_counter() - start
    return {
        "rc": rc,
        "out": out.getvalue(),
        "err": err.getvalue(),
        "latency_s": latency,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "cache_before": before,
        "cache_after": _cache_len(),
    }


def _roundtrip(text: str, names: list[str]) -> bool:
    """Printed output parses and evaluates back to the same printed text."""
    from nijenhuis.parser import eval_expr, parse_expr, print_canonical

    try:
        return print_canonical(eval_expr(parse_expr(text), names)) == text
    except ValueError:
        return False


def main() -> None:
    sys.path.insert(0, sys.argv[1])
    import nijenhuis.cli  # noqa: F401  (set-up time ends when this import is done)

    sys.stdout.write("ready\n")
    sys.stdout.flush()
    tracer = None
    if len(sys.argv) > 3 and sys.argv[2] == "--trace":
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    # Looked up after install, so a traced worker calls the wrapped function.
    run_command = sys.modules["nijenhuis.cli"].run_command
    for line in sys.stdin:
        request = json.loads(line)
        if "check" in request:
            reply = {"ok": [_roundtrip(text, names) for text, names in request["check"]]}
        else:
            if tracer is not None:
                tracer.op_id = request["op"]
            reply = _run(run_command, request["argv"])
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()
    if tracer is not None:
        tracer.write_spans(sys.argv[3])
        sys.stdout.write(json.dumps({"trace": tracer.summary()}) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
