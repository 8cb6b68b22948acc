from fractions import Fraction
from math import prod

import pytest
from hypothesis import given, strategies as st

from prufer.lattice import (
    IntegerLattice,
    hnf_reduce,
    integer_left_kernel,
)

gen_rows = st.lists(
    st.lists(st.integers(min_value=-6, max_value=6), min_size=3, max_size=3),
    min_size=1,
    max_size=4,
)


def _pivot_columns(lattice):
    """The column of each basis row's first nonzero entry."""
    return [next(j for j, x in enumerate(row) if x) for row in lattice.basis]


def test_hnf_example():
    L = hnf_reduce([[2, 0], [1, 1]])
    assert L.basis == ((1, 1), (0, 2))
    assert L.determinant() == 2
    assert _pivot_columns(L) == [0, 1]


def test_hnf_drops_zero_rows():
    L = hnf_reduce([[0, 0], [3, 0], [3, 0]])
    assert L.basis == ((3, 0),)
    assert L.rank == 1


def test_membership():
    L = hnf_reduce([[2, 0], [1, 1]])
    assert (2, 0) in L
    assert (1, 1) in L
    assert (0, 2) in L
    assert (1, 0) not in L
    assert L.coordinates((5, 3)) is not None  # (5,3) = 3*(1,1) + (2,0)
    assert L.coordinates((0, 1)) is None


def test_coordinates_invert_membership():
    L = hnf_reduce([[2, 0], [1, 1]])
    c = L.coordinates((5, 3))
    assert c is not None
    recombined = [sum(ci * bi[j] for ci, bi in zip(c, L.basis)) for j in range(2)]
    assert recombined == [5, 3]
    assert L.coordinates((1, 0)) is None


def test_standard_lattice():
    Z2 = IntegerLattice(2, ((1, 0), (0, 1)))
    assert (7, -3) in Z2
    assert Z2.determinant() == 1


def test_scaled():
    L = IntegerLattice(2, ((3, 0), (0, 3)))
    assert (3, 0) in L
    assert (1, 0) not in L


def test_integer_left_kernel():
    K = integer_left_kernel([[1], [2]])
    assert K == [[2, -1]]


def test_integer_left_kernel_of_three_rows():
    rows = [[2, 4], [1, 3], [3, 7]]
    assert hnf_reduce(rows).basis == ((1, 1), (0, 2))
    # Rank 2, so the kernel is the line through (1, 1, -1): row 3 = row 1 + row 2.
    assert integer_left_kernel(rows) == [[1, 1, -1]]


@given(gen_rows)
def test_hnf_idempotent(rows):
    L = hnf_reduce(rows)
    again = hnf_reduce(L.basis, ambient_dim=3)
    assert again.basis == L.basis


@given(gen_rows)
def test_generators_are_members(rows):
    L = hnf_reduce(rows)
    for r in rows:
        assert tuple(r) in L or all(c == 0 for c in r)


@given(gen_rows, st.lists(st.integers(min_value=-3, max_value=3), min_size=4, max_size=4))
def test_integer_combinations_stay_inside(rows, coeffs):
    L = hnf_reduce(rows)
    v = [0, 0, 0]
    for c, r in zip(coeffs, rows):
        for j in range(3):
            v[j] += c * r[j]
    assert tuple(v) in L


@given(gen_rows)
def test_determinant_matches_residue_count(rows):
    L = hnf_reduce(rows)
    if L.rank == 3:
        diag = [L.basis[i][_pivot_columns(L)[i]] for i in range(3)]
        assert L.determinant() == prod(diag)


def _fraction_coordinates(lattice, v):
    """Coordinates by back-substitution in Fraction arithmetic: the reference
    the integer ``IntegerLattice.coordinates`` has to agree with."""
    vec = [Fraction(x) for x in v]
    coords = []
    for row, p in zip(lattice.basis, _pivot_columns(lattice)):
        c = vec[p] / row[p]
        if c.denominator != 1:
            return None
        c = int(c)
        coords.append(c)
        if c:
            vec = [x - c * y for x, y in zip(vec, row)]
    if any(x != 0 for x in vec):
        return None
    return tuple(coords)


rational_entries = st.builds(Fraction, st.integers(min_value=-12, max_value=12), st.sampled_from([1, 1, 1, 2, 3]))


@given(
    gen_rows,
    st.lists(rational_entries, min_size=3, max_size=3),
    st.lists(st.integers(min_value=-3, max_value=3), min_size=4, max_size=4),
    st.booleans(),
)
def test_coordinates_agree_with_fraction_back_substitution(rows, v, coeffs, member):
    L = hnf_reduce(rows)
    if member:
        # Half the cases are lattice points, so the found branch is exercised.
        v = [sum(c * r[j] for c, r in zip(coeffs, L.basis)) for j in range(3)]
    assert L.coordinates(v) == _fraction_coordinates(L, v)
