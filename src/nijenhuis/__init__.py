"""Exact symbolic computation in free Nijenhuis algebras.

The package builds the free algebra with a distinguished operator on a
finite generator set, derives the three splitting operations of its
product, rederives the space of their compatible quadratic relations by
exact linear algebra, and studies finite-dimensional instances through
structure constants, induced operations, evaluation maps, and a
truncated ideal membership procedure.  A small expression language and a
command line front end sit on top.
"""

from .algebra import (
    COORD_OPS,
    CheckReport,
    OpSymbol,
    TooManyTerms,
    derived_op,
    first_nonassociative_triple,
    first_operator_identity_failure,
    operator_n,
    product,
    product_words,
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
    check_relations_fd,
    default_names,
    enveloping_generators,
    evaluate_hom,
    fixture_projection,
    fixture_scaling,
    fixture_swap,
    induced_ns,
    truncated_ideal_membership,
)
from .linalg import (
    DimensionMismatch,
    LinComb,
    RowSpace,
    rank,
    rational,
)
from .parser import (
    EvalError,
    ParseError,
    UnknownIdentifier,
    eval_expr,
    parse_expr,
    print_canonical,
)
from .relations import (
    RelVector,
    check_relation_universal,
    evaluate_relation,
    ndendriform_relation_set,
    ns_relation_set,
    relation_matrix,
    relation_monomials,
    relation_sets_span_equal,
    relation_space_contains,
    solve_relation_space,
)
from .words import (
    AlternationViolation,
    EmptyInput,
    WordError,
    breadth,
    canonical_key,
    canonical_sort,
    depth,
    generators,
    letter_count,
    letter_word,
    size,
    word,
    words_of_size,
    words_up_to_size,
)

__version__ = "0.1.0"
