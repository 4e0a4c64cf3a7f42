"""Exact symbolic computation in free Nijenhuis algebras.

The package builds the free algebra with a distinguished operator on a
finite generator set, derives the three splitting operations of its
product, rederives the space of their compatible quadratic relations by
exact linear algebra, and studies finite-dimensional instances through
structure constants, induced operations, evaluation maps, and a
truncated ideal membership procedure.  A small expression language and a
command line front end sit on top.

Importing the package loads ``words``, ``linalg`` and ``algebra``, which
the free product and the word sweeps run on.  ``relations``,
``envelope`` and ``parser`` are registered with
:class:`importlib.util.LazyLoader`: each is in ``sys.modules`` and bound
here at once, and its code runs at the first attribute access, so a
process that never reads them never compiles them.  Each name the
package re-exports resolves through the module ``__getattr__`` to the
defining module's own object, so reading one from a lazy module loads
that module.
"""

import importlib.util
import sys

from . import algebra, linalg, words

__version__ = "0.1.0"


def _lazy(name: str):
    """Register submodule ``name``; its code runs at the first attribute access."""
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


relations = _lazy("relations")
envelope = _lazy("envelope")
parser = _lazy("parser")

# Each name the package re-exports, and the module that defines it.
_EXPORTS = {
    name: module
    for module, names in (
        (
            algebra,
            (
                "COORD_OPS",
                "CheckReport",
                "OpSymbol",
                "TooManyTerms",
                "derived_op",
                "first_nonassociative_triple",
                "first_operator_identity_failure",
                "operator_n",
                "product",
            ),
        ),
        (
            envelope,
            (
                "ArityMismatch",
                "BoundTooSmall",
                "InvalidInput",
                "LinearMap",
                "Membership",
                "NSAlgebraFD",
                "NijenhuisAlgebraFD",
                "UnknownGenerator",
                "check_morphism_kills_generators",
                "check_nijenhuis_fd",
                "check_relations_fd",
                "default_names",
                "enveloping_generators",
                "evaluate_hom",
                "induced_ns",
                "truncated_ideal_membership",
            ),
        ),
        (linalg, ("DimensionMismatch", "LinComb", "RowSpace", "rational")),
        (
            parser,
            ("EvalError", "ParseError", "UnknownIdentifier", "eval_expr", "parse_expr", "print_canonical"),
        ),
        (
            relations,
            (
                "ndendriform_relation_set",
                "ns_relation_set",
                "relation_matrix",
                "relation_monomials",
                "relation_sets_span_equal",
                "solve_relation_space",
            ),
        ),
        (
            words,
            (
                "AlternationViolation",
                "EmptyInput",
                "WordError",
                "breadth",
                "canonical_key",
                "canonical_sort",
                "depth",
                "generators",
                "letter_count",
                "letter_word",
                "size",
                "word",
                "words_of_size",
                "words_up_to_size",
            ),
        ),
    )
    for name in names
}

__all__ = ["algebra", "envelope", "linalg", "parser", "relations", "words", *_EXPORTS]


def __getattr__(name: str):
    """A re-exported name, read from its defining module on each use (PEP 562)."""
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(module, name)


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_EXPORTS))
