"""The sparse row space engine against plain dense Gauss-Jordan elimination.

The reference reduces a list of dense rows column by column, taking the
first row with a nonzero entry as the pivot row, and shares no code with
:mod:`nijenhuis.linalg`.  A :class:`RowSpace` pivoted on the leftmost
column must agree with it exactly, because the reduced row echelon form
of a matrix is unique.
"""

from __future__ import annotations

from fractions import Fraction

from hypothesis import given, strategies as st

from nijenhuis.linalg import RowSpace, rank, span


def reference_rref(rows: list[list[int]], cols: int) -> tuple[list[list[Fraction]], list[int]]:
    """Nonzero rows of the reduced row echelon form, and the pivot columns."""
    work = [[Fraction(x) for x in row] for row in rows]
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        pivot_row = next((i for i in range(r, len(work)) if work[i][c]), None)
        if pivot_row is None:
            continue
        work[r], work[pivot_row] = work[pivot_row], work[r]
        inv = 1 / work[r][c]
        work[r] = [x * inv for x in work[r]]
        for i in range(len(work)):
            if i != r and work[i][c]:
                factor = work[i][c]
                work[i] = [x - factor * y for x, y in zip(work[i], work[r])]
        pivots.append(c)
        r += 1
    return work[:r], pivots


def reference_nullspace(rows: list[list[int]], cols: int) -> tuple[tuple[Fraction, ...], ...]:
    """One vector per free column, in increasing order, with that entry 1."""
    reduced, pivots = reference_rref(rows, cols)
    basis = []
    for free in (c for c in range(cols) if c not in pivots):
        vec = [Fraction(0)] * cols
        vec[free] = Fraction(1)
        for row, pc in zip(reduced, pivots):
            vec[pc] = -row[free]
        basis.append(tuple(vec))
    return tuple(basis)


def reference_rank(rows: list[list[int]], cols: int) -> int:
    return len(reference_rref(rows, cols)[1])


def sparse(row) -> dict[int, Fraction]:
    """A dense reference row in the sparse form that ``RowSpace`` stores and tests."""
    return {c: Fraction(x) for c, x in enumerate(row) if x}


@st.composite
def matrices(draw):
    """Integer matrices up to 5x6 with entries in -3..3, and their width."""
    cols = draw(st.integers(min_value=1, max_value=6))
    row = st.lists(st.integers(min_value=-3, max_value=3), min_size=cols, max_size=cols)
    return draw(st.lists(row, max_size=5)), cols


@given(matrices())
def test_rank_matches_reference(m):
    rows, cols = m
    assert rank(rows) == reference_rank(rows, cols)


@given(matrices())
def test_rank_of_the_transpose_is_the_rank(m):
    rows, cols = m
    transpose = [[row[c] for row in rows] for c in range(cols)]
    assert rank(rows) == rank(transpose)


@given(matrices())
def test_stored_rows_are_the_reference_rref(m):
    rows, cols = m
    reduced, pivots = reference_rref(rows, cols)
    expected = {pc: sparse(row) for row, pc in zip(reduced, pivots)}
    assert span(rows).rows == expected


@given(matrices())
def test_kernel_matches_reference_nullspace(m):
    rows, cols = m
    assert span(rows).kernel(range(cols)) == reference_nullspace(rows, cols)


@given(matrices(), st.data())
def test_membership_matches_rank_test(m, data):
    rows, cols = m
    vec = data.draw(st.lists(st.integers(min_value=-3, max_value=3), min_size=cols, max_size=cols))
    inside = reference_rank(rows + [vec], cols) == reference_rank(rows, cols)
    assert (sparse(vec) in span(rows)) == inside


@given(matrices(), st.data())
def test_combinations_of_rows_are_members(m, data):
    rows, cols = m
    coeffs = data.draw(st.lists(st.integers(min_value=-3, max_value=3), min_size=len(rows), max_size=len(rows)))
    combo = [sum(c * row[k] for c, row in zip(coeffs, rows)) for k in range(cols)]
    space = span(rows)
    assert sparse(combo) in space
    assert not space.add(sparse(combo))


@given(matrices(), st.data())
def test_stored_rows_do_not_depend_on_insertion_order(m, data):
    rows, _ = m
    shuffled = data.draw(st.permutations(rows))
    assert span(shuffled).rows == span(rows).rows


def reference_add(rows: dict[int, dict[int, Fraction]], row: dict[int, Fraction], key) -> None:
    """Add ``row`` to reduced ``rows``, back-substituting by a scan of every stored row."""
    residue = dict(row)
    for pivot, stored in rows.items():
        c = residue.get(pivot, 0)
        for col, x in stored.items():
            residue[col] = residue.get(col, 0) - c * x
    residue = {col: x for col, x in residue.items() if x}
    if not residue:
        return
    pivot = max(residue, key=key)
    residue = {col: x / residue[pivot] for col, x in residue.items()}
    for stored in rows.values():
        c = stored.get(pivot, 0)
        for col, x in residue.items():
            stored[col] = stored.get(col, 0) - c * x
        for col in [col for col, x in stored.items() if not x]:
            del stored[col]
    rows[pivot] = residue


@st.composite
def sparse_rows(draw):
    """Up to 12 sparse rows over 10 columns, and a random order of the columns."""
    cols = 10
    entry = st.integers(min_value=-3, max_value=3).filter(bool).map(Fraction)
    row = st.dictionaries(st.integers(min_value=0, max_value=cols - 1), entry, max_size=4)
    return draw(st.lists(row, max_size=12)), draw(st.permutations(range(cols)))


@given(sparse_rows())
def test_indexed_back_substitution_matches_a_full_scan(drawn):
    rows, order = drawn
    key = order.index
    space = RowSpace(key=key)
    expected: dict[int, dict[int, Fraction]] = {}
    for row in rows:
        space.add(row)
        reference_add(expected, row, key)
    assert space.rows == expected
