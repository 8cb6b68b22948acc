from fractions import Fraction
from itertools import permutations
from math import prod

import pytest
from hypothesis import given, strategies as st

from prufer.linalg import (
    bareiss_det,
    mat_mul,
    modp_left_kernel,
    right_kernel,
    rref,
    solve_right,
    xgcd,
)

small_ints = st.integers(min_value=-9, max_value=9)


def square_matrix(n):
    return st.lists(st.lists(small_ints, min_size=n, max_size=n), min_size=n, max_size=n)


def leibniz_det(m):
    """Determinant as the signed sum over permutations."""
    total = 0
    for perm in permutations(range(len(m))):
        inversions = sum(perm[i] > perm[j] for i in range(len(perm)) for j in range(i + 1, len(perm)))
        total += (-1) ** inversions * prod(m[i][perm[i]] for i in range(len(m)))
    return total


def test_rref_invertible():
    rows, pivots = rref([[1, 2], [3, 4]])
    assert pivots == [0, 1]
    assert rows == [(1, 0), (0, 1)]


def test_rref_singular():
    rows, pivots = rref([[1, 2], [2, 4]])
    assert pivots == [0]
    assert rows[0] == (1, 2)


def test_solve_right():
    x = solve_right([[2, 0], [0, 3]], (4, 9))
    assert x == (Fraction(2), Fraction(3))


def test_solve_right_inconsistent():
    assert solve_right([[1, 1], [1, 1]], (0, 1)) is None


def test_right_kernel_dimension():
    ker = right_kernel([[1, 1, 1]])
    assert len(ker) == 2
    for v in ker:
        assert sum(v) == 0


def test_determinants_agree():
    m = [[2, 7, 1], [0, 3, -4], [5, 1, 1]]
    assert bareiss_det(m) == 2 * (3 * 1 - (-4) * 1) - 7 * (0 - (-20)) + 1 * (0 - 15)


def test_det_identity():
    assert bareiss_det([[1 if i == j else 0 for j in range(4)] for i in range(4)]) == 1


def test_mat_helpers():
    a = [[1, 2], [3, 4]]
    assert mat_mul(a, [[1, 0], [0, 1]]) == [[1, 2], [3, 4]]
    assert mat_mul(a, [[1], [1]]) == [[3], [7]]


def test_modp_left_kernel():
    ker = modp_left_kernel([[2, 0], [0, 1]], 2)
    assert ker == [[1, 0]]


@given(st.integers(min_value=-500, max_value=500), st.integers(min_value=-500, max_value=500))
def test_xgcd_bezout(a, b):
    g, s, t = xgcd(a, b)
    assert g == a * s + b * t
    assert g >= 0
    if a or b:
        assert a % g == 0 and b % g == 0


@given(square_matrix(3))
def test_det_routes_agree(m):
    assert bareiss_det(m) == leibniz_det(m)


@given(square_matrix(2), st.lists(small_ints, min_size=2, max_size=2))
def test_solve_right_solves(m, rhs):
    x = solve_right(m, rhs)
    if x is not None:
        assert [sum(a * xj for a, xj in zip(row, x)) for row in m] == list(rhs)
