"""Finite-dimensional pipeline, end to end.

Starts from a two-dimensional algebra with a projection operator,
checks the operator identity, induces the split operations, builds the
enveloping ideal generators, verifies that the quotient map kills them,
and finishes with a truncated ideal-membership certificate.
"""

from fractions import Fraction

from nijenhuis import (
    LinearMap,
    Membership,
    NijenhuisAlgebraFD,
    OpSymbol,
    check_nijenhuis_fd,
    default_names,
    enveloping_generators,
    evaluate_hom,
    induced_ns,
    letter_word,
    LinComb,
    truncated_ideal_membership,
    word,
)


def main() -> None:
    # the componentwise product on two coordinates; the operator keeps the first
    mult = [[[1, 0], [0, 0]], [[0, 0], [0, 1]]]
    alg = NijenhuisAlgebraFD(2, mult, LinearMap([[1, 0], [0, 0]]))
    report = check_nijenhuis_fd(alg)
    print(f"projection fixture: dim {alg.dim}, operator identity holds: {report.ok}")

    ns = induced_ns(alg)
    print("induced split products on basis pairs:")
    for op in (OpSymbol.PREC, OpSymbol.SUCC, OpSymbol.BULLET):
        tensor = ns.tensor(op)
        for i in range(alg.dim):
            row = "; ".join(
                f"e{i+1} {op.value} e{j+1} -> {list(map(str, tensor[i][j]))}"
                for j in range(alg.dim)
            )
            print(f"  {row}")

    names = default_names(alg.dim)
    gens = enveloping_generators(ns, names)
    print(f"\n{len(gens)} enveloping ideal generators over"
          f" {', '.join(names)}")
    print("first three:")
    for g in gens[:3]:
        print(f"  {g}")

    # the quotient map sends each abstract generator to its basis vector
    hom = LinearMap([[Fraction(1), Fraction(0)],
                               [Fraction(0), Fraction(1)]])
    images = [evaluate_hom(alg, hom, LinComb.from_word(letter_word(s)), names)
              for s in names]
    shown = ["(" + ", ".join(map(str, v)) + ")" for v in images]
    print(f"\nquotient map sends e1, e2 to {shown[0]}, {shown[1]}")
    killed = [evaluate_hom(alg, hom, g, names) for g in gens]
    print("all generators map to zero:",
          all(all(c == 0 for c in v) for v in killed))

    print("\ntruncated membership at bound 4:")
    for g in gens[:3]:
        verdict = truncated_ideal_membership(gens, g, size_bound=4)
        print(f"  generator {g}: {verdict.value}")
    stray = LinComb.from_word(word("e1"))
    verdict = truncated_ideal_membership(gens, stray, size_bound=4)
    print(f"  bare letter e1: {verdict.value}")
    assert verdict is Membership.NOT_DETECTED


if __name__ == "__main__":
    main()
