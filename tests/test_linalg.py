from itertools import permutations
from math import gcd, prod

import pytest
from hypothesis import given, strategies as st

from prufer.errors import DimensionMismatchError
from prufer.lattice import hnf_reduce
from prufer.linalg import EchelonSpan, bareiss_det, modp_left_kernel, xgcd

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


def stream_relation(vectors, width):
    """The first relation ``EchelonSpan.add`` returns on a stream, or None."""
    span = EchelonSpan(width)
    return next((rel for rel in map(span.add, vectors) if rel is not None), None)


def test_first_relation_independent_rows():
    assert stream_relation([[1, 2], [3, 4]], 2) is None
    assert stream_relation([], 2) is None


def test_first_relation_dependent_rows():
    assert stream_relation([[1, 2], [2, 4]], 2) == [-2, 1]
    # A zero vector depends on the empty set before it.
    assert stream_relation([[0, 0], [1, 0]], 2) == [1]
    # Primitive, with zero coefficients on vectors the relation does not use.
    assert stream_relation([[2, 4, 6], [0, 1, 0], [3, 6, 9], [5, 5, 5]], 3) == [-3, 0, 2]


def test_first_relation_leaves_the_span_unchanged():
    span = EchelonSpan(3)
    assert span.add([2, 4, 6]) is None and span.add([0, 1, 0]) is None
    rows, den = [list(row) for row in span.rows], span.den
    assert span.add([3, 6, 9]) == [-3, 0, 2]
    assert (span.rows, span.den, span.rank) == (rows, den, 2)
    # The next vector is numbered after the kept ones only.
    assert span.add([1, 3, 3]) == [-1, -2, 2]


def test_first_relation_solves_a_system():
    # The columns (2, 0), (0, 3) reach the right side (4, 9) as 2, 3.
    assert stream_relation([[2, 0], [0, 3], [4, 9]], 2) == [-2, -3, 1]


def test_first_relation_stops_at_the_first_dependency():
    drawn = []

    def vectors():
        for v in ([1, 0], [0, 1], [1, 1], [7, 7]):
            drawn.append(v)
            yield v

    assert stream_relation(vectors(), 2) == [-1, -1, 1]
    assert len(drawn) == 3


def test_first_relation_rejects_mixed_lengths():
    with pytest.raises(DimensionMismatchError):
        stream_relation([[1, 0], [1, 0, 0]], 2)
    span = EchelonSpan(3)
    with pytest.raises(DimensionMismatchError):
        span.add([1, 0])
    assert span.rank == 0


def test_determinants_agree():
    m = [[2, 7, 1], [0, 3, -4], [5, 1, 1]]
    assert bareiss_det(m) == 2 * (3 * 1 - (-4) * 1) - 7 * (0 - (-20)) + 1 * (0 - 15)


def test_det_identity():
    assert bareiss_det([[1 if i == j else 0 for j in range(4)] for i in range(4)]) == 1


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


def _gram(vectors):
    return [[sum(a * b for a, b in zip(u, v)) for v in vectors] for u in vectors]


# Up to n + 2 vectors of length n, so both outcomes occur.
vector_lists = st.integers(min_value=1, max_value=4).flatmap(
    lambda n: st.lists(st.lists(small_ints, min_size=n, max_size=n), min_size=1, max_size=n + 2)
)


@given(vector_lists)
def test_first_relation_properties(vectors):
    rel = stream_relation(vectors, len(vectors[0]))
    # Vectors are independent exactly when their Gram matrix is nonsingular.
    if rel is None:
        assert bareiss_det(_gram(vectors)) != 0
        return
    k = len(rel) - 1
    assert rel[k] > 0
    assert gcd(*rel) == 1
    assert [sum(c * v[j] for c, v in zip(rel, vectors)) for j in range(len(vectors[0]))] == [0] * len(vectors[0])
    assert bareiss_det(_gram(vectors[:k])) != 0


def _rank(vectors, width):
    return hnf_reduce(vectors, width).rank if vectors else 0


@given(
    st.lists(st.lists(small_ints, min_size=4, max_size=4), max_size=4),
    st.lists(st.integers(-3, 3), min_size=4, max_size=4),
    st.lists(st.integers(-1, 1), min_size=4, max_size=4),
)
def test_echelon_span_agrees_with_lattice_rank(rows, coeffs, offset):
    # v is an integer combination of the rows, moved off it by ``offset``;
    # membership in the Q-span is "adding v does not raise the rank".
    span, kept = EchelonSpan(4), []
    for k, row in enumerate(rows):
        rel = span.add(row)
        assert (rel is None) == (_rank(rows[: k + 1], 4) > _rank(rows[:k], 4))
        if rel is None:
            kept.append(row)
        else:
            # The relation is over the rows kept so far, then this one.
            assert [sum(c * v[j] for c, v in zip(rel, kept + [row])) for j in range(4)] == [0] * 4
    assert span.rank == _rank(rows, 4)
    assert all(row in span for row in rows)
    v = [sum(c * row[j] for c, row in zip(coeffs, rows)) + e for j, e in enumerate(offset)]
    assert (v in span) == (_rank(rows + [v], 4) == span.rank)


def test_echelon_span_over_a_denominator():
    # The rows (2, 0, 0) and (0, 2, 1) reduce to (1, 0, 0) and (0, 1, 1/2).
    # Their Q-span holds (1, 2, 1), which is not in their Z-span; it does not
    # hold (0, 1, 0).
    span = EchelonSpan(3)
    assert span.add([2, 0, 0]) is None and span.add([0, 2, 1]) is None
    assert span.den == 2
    assert span.add([1, 2, 1]) == [-1, -2, 2]
    assert [1, 2, 1] in span and [0, 1, 0] not in span
