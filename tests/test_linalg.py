from itertools import permutations
from math import gcd, prod

import pytest
from hypothesis import example, given, strategies as st

from prufer.closure import _modp_kernel_lattice
from prufer.errors import DimensionMismatchError
from prufer.lattice import hnf_reduce
from prufer.linalg import EchelonSpan, bareiss_det, modp_span_add, xgcd

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


def test_membership_rejects_a_wrong_length():
    # A vector of another length is refused, not read in part.
    span = EchelonSpan(3)
    assert span.add([1, 2, 0]) is None
    for v in ([1, 2, 0, 7], [1], []):
        with pytest.raises(DimensionMismatchError):
            v in span
    assert [2, 4, 0] in span


def test_determinants_agree():
    m = [[2, 7, 1], [0, 3, -4], [5, 1, 1]]
    assert bareiss_det(m) == 2 * (3 * 1 - (-4) * 1) - 7 * (0 - (-20)) + 1 * (0 - 15)


def test_det_identity():
    assert bareiss_det([[1 if i == j else 0 for j in range(4)] for i in range(4)]) == 1


def modp_left_kernel(rows, p):
    """Basis of {v : v * M = 0 (mod p)} over F_p by Gauss-Jordan elimination
    on the transpose, one basis vector per free row index: the reference
    the streaming eliminator replaced."""
    m = len(rows)
    if m == 0:
        return []
    mat = [[rows[i][j] % p for i in range(m)] for j in range(len(rows[0]))]
    pivots = []
    prow = 0
    for col in range(m):
        piv = next((r for r in range(prow, len(mat)) if mat[r][col]), None)
        if piv is None:
            continue
        mat[prow], mat[piv] = mat[piv], mat[prow]
        inv = pow(mat[prow][col], p - 2, p)
        mat[prow] = [(x * inv) % p for x in mat[prow]]
        for r in range(len(mat)):
            if r != prow and mat[r][col]:
                c = mat[r][col]
                mat[r] = [(x - c * y) % p for x, y in zip(mat[r], mat[prow])]
        pivots.append(col)
        prow += 1
        if prow == len(mat):
            break
    pivot_set = set(pivots)
    basis = []
    for fc in range(m):
        if fc in pivot_set:
            continue
        v = [0] * m
        v[fc] = 1
        for row, pcol in zip(mat[:prow], pivots):
            v[pcol] = (-row[fc]) % p
        basis.append(v)
    return basis


def modp_rank(rows, p):
    return len(rows) - len(modp_left_kernel(rows, p))


@st.composite
def modp_matrices(draw):
    """(rows, p): up to 6 rows of width up to 36 with entries in [0, p), some
    of them combinations of the rows before, so that relations occur."""
    p = draw(st.sampled_from((2, 3, 5, 7)))
    width = draw(st.integers(min_value=1, max_value=36))
    entries = st.integers(min_value=0, max_value=p - 1)
    rows = []
    for _ in range(draw(st.integers(min_value=0, max_value=6))):
        if rows and draw(st.booleans()):
            coefficients = draw(st.lists(entries, min_size=len(rows), max_size=len(rows)))
            rows.append([sum(c * row[j] for c, row in zip(coefficients, rows)) % p for j in range(width)])
        else:
            rows.append(draw(st.lists(entries, min_size=width, max_size=width)))
    return rows, p


# The case [[2, 0], [0, 1]] mod 2, reduced into [0, 2): its left kernel is (1, 0).
TWO_BY_TWO = ([[0, 0], [0, 1]], 2)


@given(modp_matrices())
@example(TWO_BY_TWO)
def test_modp_span_add_relations_kill_their_vectors(case):
    rows, p = case
    span, kept = [], []
    for i, v in enumerate(rows):
        relation = modp_span_add(span, v, p)
        # None exactly when the F_p rank grows; the span grows with it.
        assert (relation is None) == (modp_rank(rows[: i + 1], p) > modp_rank(rows[:i], p))
        if relation is None:
            kept.append(v)
            assert len(span) == len(kept)
            continue
        assert len(relation) == len(kept) + 1 and relation[-1] == 1
        assert all(0 <= c < p for c in relation)
        combined = [sum(c * u[j] for c, u in zip(relation, kept + [v])) % p for j in range(len(v))]
        assert not any(combined)
        assert len(span) == len(kept)


@given(modp_matrices())
@example(TWO_BY_TWO)
def test_modp_kernel_lattice_matches_the_reference(case):
    rows, p = case
    n = len(rows)
    reference = modp_left_kernel(rows, p) + [[p if j == i else 0 for j in range(n)] for i in range(n)]
    assert _modp_kernel_lattice(rows, p) == hnf_reduce(reference, n)


def test_modp_kernel_of_the_two_by_two_case():
    rows, p = TWO_BY_TWO
    span = []
    assert modp_span_add(span, rows[0], p) == [1]
    assert modp_span_add(span, rows[1], p) is None
    assert modp_left_kernel([[2, 0], [0, 1]], 2) == [[1, 0]]
    assert _modp_kernel_lattice(rows, p).basis == ((1, 0), (0, 2))


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
        # Asked between adds, so a span that grew must answer from fresh
        # annihilators.
        inside = row in span
        rel = span.add(row)
        assert (rel is None) == (not inside) == (_rank(rows[: k + 1], 4) > _rank(rows[:k], 4))
        if rel is None:
            kept.append(row)
        else:
            # The relation is over the rows kept so far, then this one.
            assert [sum(c * v[j] for c, v in zip(rel, kept + [row])) for j in range(4)] == [0] * 4
    assert span.rank == _rank(rows, 4)
    assert all(row in span for row in rows)
    # One annihilator per free column, each vanishing on every kept row.
    assert len(span.annihilators) == 4 - span.rank
    assert all(sum(a * x for a, x in zip(f, row)) == 0 for f in span.annihilators for row in kept)
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


class _EagerSpan:
    """``EchelonSpan`` as it kept its reduced row echelon form at every add:
    the reference for the span that forms it only when asked."""

    def __init__(self, width):
        self.width, self.den, self.pivots, self.rows, self.kept = width, 1, [], [], []

    @property
    def rank(self):
        return len(self.rows)

    @property
    def annihilators(self):
        result = []
        for j in range(self.width):
            if j not in self.pivots:
                f = [0] * self.width
                f[j] = self.den
                for p, row in zip(self.pivots, self.rows):
                    f[p] = -row[j]
                result.append(f)
        return result

    def __contains__(self, v):
        return not any(sum(a * x for a, x in zip(v, f)) for f in self.annihilators)

    _relation = EchelonSpan._relation

    def add(self, v):
        den = self.den
        w = [den * x for x in v]
        for p, row in zip(self.pivots, self.rows):
            c = v[p]
            if c:
                w = [x - c * y for x, y in zip(w, row)]
        q = next((j for j in range(self.width) if w[j]), None)
        if q is None:
            return self._relation(v)
        a = w[q]
        rows = [[a * x - row[q] * y for x, y in zip(row, w)] for row in self.rows]
        rows.append([den * x for x in w])
        den *= a
        content = gcd(den, *(x for row in rows for x in row))
        if den < 0:
            content = -content
        self.den = den // content
        self.rows = [[x // content for x in row] for row in rows]
        self.pivots.append(q)
        self.kept.append(list(v))
        return None


def _span_state(span):
    return span.rows, span.den, span.annihilators, span.pivots, span.kept, span.rank


@given(st.integers(1, 5), st.data())
def test_echelon_span_matches_the_eager_reduced_form(width, data):
    # Each step adds a new vector, a combination of the vectors so far (in
    # the span) or zero, after an optional membership question; the span
    # that reduces on request answers everything as the eager one did.
    span, eager, added = EchelonSpan(width), _EagerSpan(width), []
    vectors = st.lists(small_ints, min_size=width, max_size=width)
    for _ in range(data.draw(st.integers(0, 8))):
        kind = data.draw(st.sampled_from(("new", "combination", "zero")))
        if kind == "new" or not added:
            v = data.draw(vectors)
        elif kind == "combination":
            coeffs = data.draw(st.lists(st.integers(-3, 3), min_size=len(added), max_size=len(added)))
            v = [sum(c * u[j] for c, u in zip(coeffs, added)) for j in range(width)]
        else:
            v = [0] * width
        if data.draw(st.booleans()):
            question = data.draw(vectors)
            assert (question in span) == (question in eager)
        assert span.add(v) == eager.add(v)
        added.append(v)
        assert _span_state(span) == _span_state(eager)
