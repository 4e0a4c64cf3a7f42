"""Tour of the bracketed-word basis.

Words are alternating sequences of generator runs and bracket factors,
and a word is held as its canonical text: `BracketedWord(text)` checks a text
and returns the word, and generator names are plain strings.  Each word
carries a handful of integer measures, all read from that text, that the
rest of the package leans on: depth (bracket nesting), breadth
(top-level factors), letter count, and size (letters plus bracket pairs).
"""

from nijenhuis import (
    BracketedWord,
    canonical_key,
    depth,
    breadth,
    generators,
    letter_count,
    size,
    words_of_size,
    words_up_to_size,
)


def main() -> None:
    alphabet = generators("x", "y")

    samples = [
        "x",
        "x*y",
        "[x]",
        "[x]*y",
        "x*[y]*x",
        "[[x*y]]",
        "[x*[y]]*x*y",
    ]
    print("measures of a few words")
    print(f"{'word':<14} {'depth':>5} {'breadth':>7} {'letters':>7} {'size':>4}")
    for text in samples:
        w = BracketedWord(text)
        print(
            f"{text:<14} {depth(w):>5} {breadth(w):>7}"
            f" {letter_count(w):>7} {size(w):>4}"
        )

    print()
    print("counting words over {x, y} by size")
    for n in range(1, 5):
        print(f"  size {n}: {len(words_of_size(alphabet, n))} words")
    pool = words_up_to_size(alphabet, 3)
    print(f"  up to size 3: {len(pool)} words")

    print()
    print("the canonical order sorts by letter count, then depth, then text:")
    for w in sorted(words_of_size(alphabet, 2), key=canonical_key):
        print(f"  {w}")


if __name__ == "__main__":
    main()
