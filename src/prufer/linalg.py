"""Exact linear algebra on integer rows and over prime fields.

Matrices are tuples (or lists) of row tuples.  Everything here is small and
dense; orders in this package have dimension at most a few dozen, so clarity
beats asymptotics.  Elimination over Q is fraction-free: a rational question
is asked of integer rows (one common denominator cleared by the caller), and
rows are kept primitive by dividing out their content (Bareiss, Math. Comp.
22, 1968; Cohen, GTM 138, 2.3-2.4).  Callers hand over integer vectors
directly: an element of an order's ambient algebra already is integer
coordinates over one denominator (``orders.AlgebraElement``).

``EchelonSpan`` is the one eliminator over Q.  It answers both questions
asked of a stream of vectors: is this vector in the span of the ones
before it, and if so, which relation puts it there.  Minimal polynomials,
the primitive-element search and the reducedness test all feed it.
"""

from __future__ import annotations

from math import gcd
from typing import Sequence

from .errors import DimensionMismatchError


def xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Return (g, x, y) with g = gcd(a, b) >= 0 and a*x + b*y = g."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


class EchelonSpan:
    """The Q-span of integer vectors v_0, v_1, ..., grown one vector at a time.

    It is kept in reduced row echelon form over one common denominator: row r
    is ``rows[r] / den``, equal to 1 at column ``pivots[r]`` and to 0 at every
    other pivot.  Each row also carries its combination of the vectors kept
    so far as extra columns, so the stored row is (u | c) with
    u = sum_i c_i v_i; only the first ``width`` columns take part in the
    echelon form.  So v lies in the span exactly when
    den * v = sum_r v[pivots[r]] * rows[r] on those columns, and that is
    checked column by free column: a vector outside usually fails at the
    first one.
    """

    def __init__(self, width: int):
        self.width = width
        self.den = 1
        self.pivots: list[int] = []
        self.rows: list[list[int]] = []
        self._free = list(range(width))

    @property
    def rank(self) -> int:
        return len(self.rows)

    def __contains__(self, v: Sequence[int]) -> bool:
        terms = [(v[p], row) for p, row in zip(self.pivots, self.rows) if v[p]]
        den = self.den
        return all(den * v[j] == sum(c * row[j] for c, row in terms) for j in self._free)

    def add(self, v: Sequence[int]) -> list[int] | None:
        """Put v into the span: None when v is independent and the span grows.

        Otherwise the span does not change, and the result is the relation
        c_0..c_k with c_0 v_0 + ... + c_(k-1) v_(k-1) + c_k v = 0 over the k
        vectors kept so far; they are independent, so it is unique up to
        scale, and it comes back primitive with c_k > 0.

        The residual w = den * (v | e_k) - sum_r v[pivots[r]] * rows[r] is
        zero at every pivot.  If it is zero on all ``width`` columns, its
        combination columns are the relation.  Otherwise its first nonzero
        column q becomes a new pivot, cleared from the other rows by one
        integer cross-multiplication each.
        """
        if len(v) != self.width:
            raise DimensionMismatchError(f"vector of length {len(v)} added to a span of width {self.width}")
        den = self.den
        w = [den * x for x in v] + [0] * self.rank
        for p, row in zip(self.pivots, self.rows):
            c = v[p]
            if c:
                w = [x - c * y for x, y in zip(w, row)]
        w.append(den)
        q = next((j for j in range(self.width) if w[j]), None)
        if q is None:
            relation = w[self.width :]
            content = gcd(*relation)
            return [x // content for x in relation]
        a = w[q]
        rows = [[a * x - row[q] * y for x, y in zip(row + [0], w)] for row in self.rows]
        rows.append([den * x for x in w])
        den *= a
        content = gcd(den, *(x for row in rows for x in row))
        if den < 0:
            content = -content
        self.den = den // content
        self.rows = [[x // content for x in row] for row in rows]
        self.pivots.append(q)
        self._free.remove(q)
        return None


def bareiss_det(rows: Sequence[Sequence[int]]) -> int:
    """Determinant of an integer matrix by fraction-free Gaussian elimination."""
    n = len(rows)
    if n == 0:
        return 1
    if any(len(row) != n for row in rows):
        raise DimensionMismatchError("determinant needs a square matrix")
    m = [[int(x) for x in row] for row in rows]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((r for r in range(k + 1, n) if m[r][k] != 0), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def modp_left_kernel(rows: Sequence[Sequence[int]], p: int) -> list[list[int]]:
    """Basis of {v : v * M = 0 (mod p)} over F_p, deterministic order.

    Eliminates on the transpose so row vectors stay row vectors; one basis
    vector per free row index, free coordinate set to 1.
    """
    m = len(rows)
    if m == 0:
        return []
    mat = [[rows[i][j] % p for i in range(m)] for j in range(len(rows[0]))]
    pivots: list[int] = []
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
