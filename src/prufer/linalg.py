"""Exact linear algebra on integer rows and over prime fields.

Matrices are tuples (or lists) of row tuples.  Everything here is small and
dense; orders in this package have dimension at most a few dozen, so clarity
beats asymptotics.  Elimination over Q is fraction-free: a rational question
is asked of integer rows (one common denominator cleared by the caller), and
rows are kept primitive by dividing out their content (Bareiss, Math. Comp.
22, 1968; Cohen, GTM 138, 2.3-2.4).  A span grows by forward elimination
alone, and its reduced form is formed only when asked.  Callers hand over
integer vectors directly: an element of an order's ambient algebra already
is integer coordinates over one denominator (``orders.AlgebraElement``).

One contract answers both questions asked of a stream of vectors: is this
vector in the span of the ones before it, and if so, which relation puts it
there.  ``EchelonSpan.add`` keeps it over Q, for minimal polynomials, the
primitive-element search and the reducedness test.  ``modp_span_add`` keeps
it over F_p, for the kernels of round 2 and the minimal polynomials of the
residue membership test.
"""

from __future__ import annotations

from math import gcd
from operator import mul
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

    ``add`` keeps it in echelon form, forward only: the new row is v reduced
    by the rows before it in insertion order, divided by its content, and
    its first nonzero column is its pivot, zero in every later row.  The
    reduced row echelon form over one common denominator is formed on the
    first request after the span grows: row r is ``rows[r] / den``, equal to
    1 at column ``pivots[r]`` and to 0 at every other pivot, with den > 0
    and content 1, so it is unique.  v lies in the span exactly when
    den * v = sum_r v[pivots[r]] * rows[r], that is when every annihilator
    f_j = den e_j - sum_r rows[r][j] e_(pivots[r]), one per free column j,
    has f_j . v = 0; a vector outside usually fails at the first one.
    ``kept`` holds the vectors kept so far as given; a relation among them
    is solved for only when a dependent vector arrives.
    """

    def __init__(self, width: int):
        self.width = width
        self.pivots: list[int] = []
        self.kept: list[list[int]] = []
        self._echelon: list[list[int]] = []
        self._reduced: tuple[int, list[list[int]], list[list[int]]] | None = None

    @property
    def rank(self) -> int:
        return len(self.pivots)

    @property
    def den(self) -> int:
        return self._reduce()[0]

    @property
    def rows(self) -> list[list[int]]:
        return self._reduce()[1]

    @property
    def annihilators(self) -> list[list[int]]:
        """The integer functionals f_j, one per free column j, whose common
        kernel is the span."""
        return self._reduce()[2]

    def _reduce(self) -> tuple[int, list[list[int]], list[list[int]]]:
        """(den, rows, annihilators): each echelon row in turn becomes a
        reduced row, its pivot cleared from the rows before it by one integer
        cross-multiplication each."""
        if self._reduced is None:
            den, rows = 1, []
            for q, e in zip(self.pivots, self._echelon):
                a = e[q]
                rows = [[a * x - row[q] * y for x, y in zip(row, e)] if row[q] else [a * x for x in row] for row in rows]
                rows.append([den * x for x in e])
                den *= a
            content = gcd(den, *(x for row in rows for x in row))
            if den < 0:
                content = -content
            den //= content
            rows = [[x // content for x in row] for row in rows]
            free = (j for j in range(self.width) if j not in self.pivots)
            annihilators = []
            for j in free:
                f = [0] * self.width
                f[j] = den
                for p, row in zip(self.pivots, rows):
                    f[p] = -row[j]
                annihilators.append(f)
            self._reduced = den, rows, annihilators
        return self._reduced

    def __contains__(self, v: Sequence[int]) -> bool:
        if len(v) != self.width:
            raise DimensionMismatchError(f"vector of length {len(v)} tested against a span of width {self.width}")
        return not any(sum(map(mul, v, f)) for f in self.annihilators)

    def add(self, v: Sequence[int]) -> list[int] | None:
        """Put v into the span: None when v is independent and the span grows.

        Otherwise the span does not change, and the result is the relation
        c_0..c_k with c_0 v_0 + ... + c_(k-1) v_(k-1) + c_k v = 0 over the k
        vectors kept so far; they are independent, so it is unique up to
        scale, and it comes back primitive with c_k > 0.

        The residual w, v reduced by each echelon row in turn, is zero at
        every pivot.  If it is zero everywhere, v is dependent.  Otherwise
        its first nonzero column becomes a new pivot.
        """
        if len(v) != self.width:
            raise DimensionMismatchError(f"vector of length {len(v)} added to a span of width {self.width}")
        w = v
        for p, e in zip(self.pivots, self._echelon):
            c = w[p]
            if c:
                a = e[p]
                w = [a * x - c * y for x, y in zip(w, e)]
        q = next((j for j, x in enumerate(w) if x), None)
        if q is None:
            return self._relation(v)
        content = gcd(*w)
        self._echelon.append([x // content for x in w])
        self.pivots.append(q)
        self.kept.append(list(v))
        self._reduced = None
        return None

    def _relation(self, v: Sequence[int]) -> list[int]:
        """The relation of ``add`` for a v in the span: on the pivot columns
        the kept vectors form an invertible k x k matrix A, and Bareiss
        elimination of (A | v) there, then back-substitution from
        c_k = +-det A, gives the integer kernel vector, each division exact."""
        k = len(self.kept)
        m = [[u[p] for u in self.kept] + [v[p]] for p in self.pivots]
        _bareiss(m)
        relation = [0] * k + [m[-1][-2] if k else 1]
        for i in reversed(range(k)):
            relation[i] = -sum(m[i][j] * relation[j] for j in range(i + 1, k + 1)) // m[i][i]
        content = gcd(*relation) if relation[k] > 0 else -gcd(*relation)
        return [x // content for x in relation]


def _bareiss(m: list[list[int]]) -> int:
    """Fraction-free Gaussian elimination (Bareiss) of the leading n x n block
    of the n integer rows m, in place, further columns carried along: m ends
    upper triangular with m[n-1][n-1] = +-det.  Returns the sign of the row
    swaps, 0 once a column has no pivot."""
    n, sign, prev = len(m), 1, 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((r for r in range(k + 1, n) if m[r][k] != 0), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        top = m[k]
        for i in range(k + 1, n):
            b = m[i][k]
            m[i][k:] = [(top[k] * x - b * y) // prev for x, y in zip(m[i][k:], top[k:])]
        prev = top[k]
    return sign


def bareiss_det(rows: Sequence[Sequence[int]]) -> int:
    """Determinant of an integer matrix by fraction-free Gaussian elimination."""
    n = len(rows)
    if n == 0:
        return 1
    if any(len(row) != n for row in rows):
        raise DimensionMismatchError("determinant needs a square matrix")
    m = [[int(x) for x in row] for row in rows]
    return _bareiss(m) * m[n - 1][n - 1]


def modp_span_add(rows: list[tuple[int, list[int], list[int]]], v: Sequence[int], p: int) -> list[int] | None:
    """``EchelonSpan.add`` over F_p, p prime, for v with entries in [0, p).

    ``rows`` is the caller's list of echelon rows (pivot, vector, combination),
    one per vector kept so far: the vector is 1 at its pivot, 0 at earlier
    pivots, and is that combination of the kept vectors.  None when v is
    independent, and ``rows`` grows.  Otherwise the relation c_0..c_k, entries
    in [0, p) and c_k = 1, with c_0 v_0 + ... + c_(k-1) v_(k-1) + c_k v = 0 mod p.
    """
    vector, combination = v, [0] * len(rows) + [1]
    for pivot, row, row_combination in rows:
        c = vector[pivot]
        if c:
            vector = [(a - c * b) % p for a, b in zip(vector, row)]
            for i, b in enumerate(row_combination):
                combination[i] = (combination[i] - c * b) % p
    for pivot, lead in enumerate(vector):
        if lead:
            inverse = pow(lead, -1, p)
            rows.append((pivot, [c * inverse % p for c in vector], [c * inverse % p for c in combination]))
            return None
    return combination
