"""Exact linear algebra: kernels, ranks and affine solves over Q.

Entries mix ``int`` and ``Fraction``, as the callers pass both.  Kernel
vectors come back as primitive ``int`` vectors.
"""

from fractions import Fraction
from math import gcd

from hypothesis import given, settings
from hypothesis import strategies as st

from projstruct.linalg import _int_row, nullspace, rank, solve_affine

from conftest import reference_nullspace, reference_solve_affine

# zeros are drawn often so that rank-deficient matrices are common
entries = st.one_of(st.just(0), st.integers(-3, 3),
                    st.fractions(min_value=-3, max_value=3, max_denominator=4))


@st.composite
def matrices(draw, max_rows=5, max_cols=5):
    nrows = draw(st.integers(1, max_rows))
    ncols = draw(st.integers(1, max_cols))
    return [draw(st.lists(entries, min_size=ncols, max_size=ncols))
            for _ in range(nrows)], ncols


def apply(rows, vec):
    return [sum(a * v for a, v in zip(row, vec)) for row in rows]


@settings(deadline=None, max_examples=80)
@given(matrices())
def test_nullspace_vectors_are_in_the_kernel(mat):
    rows, ncols = mat
    for vec in nullspace(rows, ncols):
        assert len(vec) == ncols
        assert all(type(v) is int for v in vec)
        assert not any(apply(rows, vec))


def free_columns(rows, ncols):
    """The columns that are not in the span of the columns before them."""
    return [c for c in range(ncols)
            if rank([r[:c + 1] for r in rows], c + 1)
            == rank([r[:c] for r in rows], c)]


def assert_primitive_kernel(basis, free, reference):
    """One ``int`` vector per free column, primitive, positive on its own
    free column and zero on the others: ``reference``'s vector scaled."""
    assert len(basis) == len(free) == len(reference)
    for fc, vec, ref in zip(free, basis, reference):
        assert all(type(v) is int for v in vec)
        assert gcd(*vec) == 1
        assert vec[fc] > 0
        assert not any(vec[c] for c in free if c != fc)
        assert vec == _int_row(ref)


@settings(deadline=None, max_examples=80)
@given(matrices(), st.data())
def test_kernels_are_the_reference_kernels_as_primitive_integers(mat, data):
    rows, ncols = mat
    free = free_columns(rows, ncols)
    assert_primitive_kernel(nullspace(rows, ncols), free,
                            reference_nullspace(rows, ncols))
    if data.draw(st.booleans()):   # consistent
        x0 = data.draw(st.lists(entries, min_size=ncols, max_size=ncols))
        rhs = apply(rows, x0)
    else:
        rhs = data.draw(st.lists(entries, min_size=len(rows),
                                 max_size=len(rows)))
    consistent, particular, basis = solve_affine(rows, rhs)
    want = reference_solve_affine(rows, rhs)
    assert (consistent, particular) == want[:2]
    if consistent:
        assert all(type(v) is Fraction for v in particular)
        assert_primitive_kernel(basis, free, want[2])
    else:
        assert basis == []


@settings(deadline=None, max_examples=80)
@given(matrices())
def test_nullity_plus_rank_is_the_column_count(mat):
    rows, ncols = mat
    basis = nullspace(rows, ncols)
    assert len(basis) == ncols - rank(rows, ncols)
    # the kernel vectors are independent
    assert rank(basis, ncols) == len(basis)


@settings(deadline=None, max_examples=80)
@given(matrices())
def test_row_rank_equals_column_rank(mat):
    rows, ncols = mat
    assert rank(rows, ncols) == rank([list(col) for col in zip(*rows)],
                                     len(rows))


@settings(deadline=None, max_examples=80)
@given(matrices(), st.data())
def test_solve_affine_solves_a_consistent_system(mat, data):
    rows, ncols = mat
    x0 = data.draw(st.lists(entries, min_size=ncols, max_size=ncols))
    rhs = apply(rows, x0)
    consistent, particular, basis = solve_affine(rows, rhs)
    assert consistent
    assert apply(rows, particular) == rhs
    assert len(basis) == ncols - rank(rows, ncols)
    for vec in basis:
        assert not any(apply(rows, vec))


@settings(deadline=None, max_examples=80)
@given(matrices(), st.data())
def test_solve_affine_reports_an_inconsistent_system(mat, data):
    rows, ncols = mat
    rhs = data.draw(st.lists(entries, min_size=len(rows),
                             max_size=len(rows)))
    # the sum of all equations, with a right-hand side off by one
    total = [sum(col) for col in zip(*rows)]
    assert solve_affine(rows + [total], rhs + [sum(rhs) + 1]) == (
        False, None, [])


def test_examples():
    rows = [[1, Fraction(1, 2), 0], [2, 1, 0]]
    assert rank(rows) == 1
    assert nullspace(rows, 3) == [[-1, 2, 0], [0, 0, 1]]
    assert solve_affine(rows, [1, 2]) == (
        True, [1, 0, 0], [[-1, 2, 0], [0, 0, 1]])
    assert solve_affine(rows, [Fraction(1, 2), 1]) == (
        True, [Fraction(1, 2), 0, 0], [[-1, 2, 0], [0, 0, 1]])
    assert solve_affine(rows, [1, 3])[0] is False
    assert nullspace([], 2) == [[1, 0], [0, 1]]
    assert rank([]) == 0
