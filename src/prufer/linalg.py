"""Exact linear algebra over Q and over prime fields.

Matrices are tuples (or lists) of row tuples.  Everything here is small and
dense; orders in this package have dimension at most a few dozen, so clarity
beats asymptotics.  Rational elimination uses ``fractions.Fraction``, integer
determinants use Bareiss to avoid fraction blowup.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .errors import DimensionMismatchError

Row = tuple[Fraction, ...]


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


def _as_fraction_rows(rows: Sequence[Sequence]) -> list[list[Fraction]]:
    out = [[Fraction(x) for x in row] for row in rows]
    if out:
        n = len(out[0])
        if any(len(row) != n for row in out):
            raise DimensionMismatchError("ragged matrix")
    return out


def rref(rows: Sequence[Sequence]) -> tuple[list[Row], list[int]]:
    """Reduced row echelon form over Q.

    Returns (nonzero rows, pivot column indices).  Deterministic: the pivot
    in each column is the first row with a nonzero entry there.
    """
    mat = _as_fraction_rows(rows)
    if not mat:
        return [], []
    ncols = len(mat[0])
    pivots: list[int] = []
    prow = 0
    for col in range(ncols):
        pivot = None
        for r in range(prow, len(mat)):
            if mat[r][col] != 0:
                pivot = r
                break
        if pivot is None:
            continue
        mat[prow], mat[pivot] = mat[pivot], mat[prow]
        inv = 1 / mat[prow][col]
        mat[prow] = [x * inv for x in mat[prow]]
        for r in range(len(mat)):
            if r != prow and mat[r][col] != 0:
                c = mat[r][col]
                mat[r] = [x - c * y for x, y in zip(mat[r], mat[prow])]
        pivots.append(col)
        prow += 1
        if prow == len(mat):
            break
    return [tuple(row) for row in mat[:prow]], pivots


def right_kernel(rows: Sequence[Sequence]) -> list[Row]:
    """Basis of {v : M v = 0} for the matrix M with the given rows.

    Basis vectors are produced one per free column, in column order, with the
    free coordinate set to 1; this makes the result deterministic.
    """
    mat = _as_fraction_rows(rows)
    if not mat:
        return []
    ncols = len(mat[0])
    red, pivots = rref(mat)
    pivot_set = set(pivots)
    free = [c for c in range(ncols) if c not in pivot_set]
    basis: list[Row] = []
    for fc in free:
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for prow, pcol in zip(red, pivots):
            v[pcol] = -prow[fc]
        basis.append(tuple(v))
    return basis


def solve_right(rows: Sequence[Sequence], rhs: Sequence) -> Row | None:
    """One solution x of M x = b, or None if the system is inconsistent."""
    mat = _as_fraction_rows(rows)
    b = [Fraction(x) for x in rhs]
    if len(mat) != len(b):
        raise DimensionMismatchError("rhs length does not match row count")
    if not mat:
        return ()
    ncols = len(mat[0])
    aug = [row + [bb] for row, bb in zip(mat, b)]
    red, pivots = rref(aug)
    x = [Fraction(0)] * ncols
    for prow, pcol in zip(red, pivots):
        if pcol == ncols:
            return None
        x[pcol] = prow[ncols]
    return tuple(x)


def mat_mul(a: Sequence[Sequence], b: Sequence[Sequence]) -> list[list[Fraction]]:
    if a and b and len(a[0]) != len(b):
        raise DimensionMismatchError("inner dimensions differ")
    bt = list(zip(*b)) if b else []
    return [[sum((Fraction(x) * Fraction(y) for x, y in zip(row, col)), Fraction(0)) for col in bt] for row in a]


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
