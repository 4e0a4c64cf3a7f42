"""Layer tracing from outside the program.

The tracer wraps the public functions of each layer module, and a few
methods of the classes that carry the work, without editing the
program.  A function is replaced at every module-level binding that
holds it, because modules import each other's functions by name
(``linalg`` binds its own ``canonical_key``, ``cli`` its own
``product``); patching the defining module alone would miss those
calls.

Each wrapped call is a span.  The tracer keeps, per function, the call
count and the self time: span time minus the time its child spans
cover.  Raw spans are kept in memory, up to a cap per worker, with the
id of the op they belong to, and written out when the worker ends.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array

PACKAGE = "nijenhuis"
LAYERS = ("words", "linalg", "algebra", "relations", "envelope", "parser", "cli")

# Methods that do a layer's work but are not module-level functions.
CLASS_METHODS = {
    "words": {"BracketedWord": ("__init__",)},
    "linalg": {
        "LinComb": ("__init__", "__add__", "__sub__", "__neg__", "scale", "items", "coeff", "__eq__", "__str__"),
    },
}

SPAN_CAP = 10_000


class Tracer:
    """Call counts, self times and a capped span log of the wrapped functions."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.calls: list[int] = []
        self.self_s: list[float] = []
        self.hash_calls = 0
        self.op_id = 0
        self._children: list[float] = []
        self._span_ids: list[int] = []
        self._next_span = 0
        self.dropped_spans = 0
        self._spans = {k: array(t) for k, t in (("op", "l"), ("span", "l"), ("parent", "l"), ("name", "l"), ("start", "d"), ("end", "d"))}

    def _wrap(self, name: str, fn):
        idx = len(self.names)
        self.names.append(name)
        self.calls.append(0)
        self.self_s.append(0.0)
        calls, self_s, children, span_ids, spans = self.calls, self.self_s, self._children, self._span_ids, self._spans
        perf = time.perf_counter

        def wrapper(*args, **kwargs):
            span = self._next_span
            self._next_span = span + 1
            span_ids.append(span)
            children.append(0.0)
            start = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf()
                span_ids.pop()
                elapsed = end - start
                self_s[idx] += elapsed - children.pop()
                calls[idx] += 1
                if children:
                    children[-1] += elapsed
                if len(spans["op"]) < SPAN_CAP:
                    spans["op"].append(self.op_id)
                    spans["span"].append(span)
                    spans["parent"].append(span_ids[-1] if span_ids else -1)
                    spans["name"].append(idx)
                    spans["start"].append(start)
                    spans["end"].append(end)
                else:
                    self.dropped_spans += 1

        return functools.update_wrapper(wrapper, fn)

    def install(self) -> None:
        """Wrap every layer's public functions and the listed methods."""
        modules = [m for n, m in sys.modules.items() if n == PACKAGE or n.startswith(PACKAGE + ".")]
        replacements = {}
        for layer in LAYERS:
            module = sys.modules.get(f"{PACKAGE}.{layer}")
            if module is None:
                continue
            for attr in getattr(module, "__all__", ()):
                fn = getattr(module, attr, None)
                if callable(fn) and not inspect.isclass(fn) and getattr(fn, "__module__", None) == module.__name__:
                    replacements[id(fn)] = (fn, self._wrap(f"{layer}.{attr}", fn))
            for cls_name, methods in CLASS_METHODS.get(layer, {}).items():
                cls = getattr(module, cls_name, None)
                for method in methods:
                    if cls is not None and method in vars(cls):
                        setattr(cls, method, self._wrap(f"{layer}.{cls_name}.{method}", vars(cls)[method]))
        for module in modules:
            for attr, value in list(vars(module).items()):
                hit = replacements.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
        words = sys.modules.get(f"{PACKAGE}.words")
        word_cls = getattr(words, "BracketedWord", None)
        if word_cls is not None:
            self._count_hashes(word_cls)

    def _count_hashes(self, cls) -> None:
        original = cls.__hash__

        def counted(word):
            self.hash_calls += 1
            return original(word)

        cls.__hash__ = counted

    def summary(self) -> dict:
        return {
            "calls": dict(zip(self.names, self.calls)),
            "self_s": dict(zip(self.names, self.self_s)),
            "hash_calls": self.hash_calls,
            "spans_kept": len(self._spans["op"]),
            "spans_dropped": self.dropped_spans,
        }

    def write_spans(self, path: str) -> None:
        """One tab-separated line per kept span: op, span, parent, name, start, end."""
        s = self._spans
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("op\tspan\tparent\tname\tstart\tend\n")
            for k in range(len(s["op"])):
                handle.write(
                    f"{s['op'][k]}\t{s['span'][k]}\t{s['parent'][k]}\t{self.names[s['name'][k]]}\t{s['start'][k]:.9f}\t{s['end'][k]:.9f}\n"
                )
