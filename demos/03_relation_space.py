"""Rederiving the compatible quadratic relations from scratch.

A candidate relation pairs two 3x3 coefficient grids over the split
operations (prec, succ, bullet): one grid weights left-bracketed
compositions (x op_i y) op_j z, the other right-bracketed ones.  The
solver evaluates these 18 monomials once over free generators
(``monomials_at``), where the unit candidate on a monomial is that
monomial, negated on the right-bracketed side.  It collects their
coefficients into 13 exact rows of length 18 (``relation_matrix``), and
reads the space of identically vanishing combinations off the kernel of
their span.
"""

from nijenhuis import (
    ndendriform_relation_set,
    ns_relation_set,
    relation_matrix,
    relation_monomials,
    relation_sets_span_equal,
    solve_relation_space,
)
from nijenhuis.linalg import span


def main() -> None:
    rows = relation_matrix()
    monomials = relation_monomials()
    cols = len(rows[0])
    print(f"coefficient matrix: {len(rows)} monomials x {cols} candidates")
    r = len(span(rows))
    print(f"rank {r}, so the relation space has dimension {cols - r}")

    print()
    print("monomials spanning the expansion:")
    for text in monomials:
        print(f"  {text}")

    basis = solve_relation_space()
    print()
    print(f"solved basis ({len(basis)} vectors); flat coordinates")
    print("(left grid row-major, then right grid row-major, ops ordered prec, succ, bullet):")
    for vec in basis:
        print(f"  {[str(c) for c in vec]}")

    five = ndendriform_relation_set()
    four = ns_relation_set()
    print()
    print("solved space equals the five-relation family:",
          relation_sets_span_equal(basis, five))
    print("four-relation family sits inside it:",
          all(relation_sets_span_equal(basis, (*basis, v)) for v in four))
    print("four-relation family spans the whole space:",
          relation_sets_span_equal(four, five))


if __name__ == "__main__":
    main()
