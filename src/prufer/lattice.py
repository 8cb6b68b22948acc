"""Integer lattices in Hermite normal form.

A lattice is stored as a tuple of integer basis rows in row-style Hermite
normal form: pivots positive, moving strictly right as you go down, and every
entry above a pivot reduced into [0, pivot).  That form is unique for a given
lattice, so two lattices are equal iff their stored bases are equal, and
membership testing is back-substitution along the pivots.

All inputs are sequences of equal-length integer rows; callers with
rational vectors clear one common denominator first.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

from .errors import DimensionMismatchError
from .linalg import xgcd


def _hnf_in_place(rows: list[list[int]], width: int) -> int:
    """Reduce ``rows`` to Hermite normal form, returning the rank.

    Only the first ``width`` columns drive pivot selection; columns after
    them, such as a transform matrix, are carried along.  Rows beyond the
    returned rank are zero in their first ``width`` columns.
    """
    m = len(rows)
    r = 0
    for col in range(width):
        piv = next((i for i in range(r, m) if rows[i][col] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        for i in range(r + 1, m):
            b = rows[i][col]
            if b == 0:
                continue
            a = rows[r][col]
            g, x, y = xgcd(a, b)
            aa, bb = a // g, b // g
            rr, ri = rows[r], rows[i]
            rows[r] = [x * p + y * q for p, q in zip(rr, ri)]
            rows[i] = [aa * q - bb * p for p, q in zip(rr, ri)]
        if rows[r][col] < 0:
            rows[r] = [-x for x in rows[r]]
        piv_val = rows[r][col]
        for j in range(r):
            q = rows[j][col] // piv_val
            if q:
                rows[j] = [p - q * s for p, s in zip(rows[j], rows[r])]
        r += 1
        if r == m:
            break
    return r


@dataclass(frozen=True)
class IntegerLattice:
    """A sublattice of Z^ambient_dim with basis rows in Hermite normal form."""

    ambient_dim: int
    basis: tuple[tuple[int, ...], ...]

    @property
    def rank(self) -> int:
        return len(self.basis)

    @cached_property
    def _pivots(self) -> tuple[int, ...]:
        # Worked out once per lattice: coordinates() walks them on every call.
        return tuple(next(j for j, x in enumerate(row) if x) for row in self.basis)

    def __contains__(self, v) -> bool:
        return self.coordinates(v) is not None

    def determinant(self) -> int:
        """Product of the pivots; the index [Z^n : L] when L has full rank."""
        if self.rank != self.ambient_dim:
            raise DimensionMismatchError("determinant of a non-full-rank lattice")
        det = 1
        for row, p in zip(self.basis, self._pivots):
            det *= row[p]
        return det

    def coordinates(self, v: Sequence[int]) -> tuple[int, ...] | None:
        """Integer coordinates of the integer vector v in the HNF basis, or
        None if v is outside."""
        vec = list(v)
        if len(vec) != self.ambient_dim:
            raise DimensionMismatchError("vector length does not match ambient dimension")
        coords = []
        for row, p in zip(self.basis, self._pivots):
            c, r = divmod(vec[p], row[p])
            if r:
                return None
            coords.append(c)
            if c:
                vec = [x - c * y for x, y in zip(vec, row)]
        if any(x != 0 for x in vec):
            return None
        return tuple(coords)


def hnf_reduce(rows: Sequence[Sequence[int]], ambient_dim: int | None = None) -> IntegerLattice:
    """Hermite normal form of the lattice generated by ``rows``."""
    rows = [list(map(int, row)) for row in rows]
    if ambient_dim is None:
        if not rows:
            raise DimensionMismatchError("ambient dimension needed for an empty generating set")
        ambient_dim = len(rows[0])
    if any(len(row) != ambient_dim for row in rows):
        raise DimensionMismatchError("rows of mixed length")
    r = _hnf_in_place(rows, ambient_dim)
    return IntegerLattice(ambient_dim, tuple(tuple(row) for row in rows[:r]))


def integer_left_kernel(rows: Sequence[Sequence[int]]) -> list[list[int]]:
    """HNF basis of {c in Z^m : c * M = 0} for an integer matrix M.

    The HNF of (M | I) carries a unimodular U with U M = [H; 0]; the rows of
    U against the zero rows of H span the kernel, saturated as U is unimodular.
    """
    m = len(rows)
    if m == 0:
        return []
    n = len(rows[0])
    work = [list(map(int, row)) + [1 if i == j else 0 for j in range(m)] for i, row in enumerate(rows)]
    kernel = [row[n:] for row in work[_hnf_in_place(work, n):]]
    rank = _hnf_in_place(kernel, m)
    return kernel[:rank]
