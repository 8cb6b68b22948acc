"""Hurwitz quaternions over the local ring Z_(2).

The one noncommutative order in the package with a Prüfer ring of
integer-valued polynomials; the global decision pipeline rejects every
noncommutative order over Z, so this module carries its own membership and
integrality tests over D = Z_(2) = {rationals with odd denominator}.

The Hurwitz order is spanned by 1, i, j and h = (1+i+j+k)/2 (a root of
X^2 - X + 1); its elements are the quaternions whose coordinates are either
all in Z_(2) or all in Z_(2) + 1/2.  The checks here are the executable faces
of the facts that make Int_Q(A) Prüfer for this order: integrality of the
reduced characteristic polynomial forces membership, norms of members stay
2-integral, and sums of four squares divisible by 4^n (n >= 2) have all
terms even.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import MalformedInputError, PruferError
from .poly import RationalPolynomial

_Scalar = int | Fraction


def _frac(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


@dataclass(frozen=True)
class Quaternion:
    """A rational quaternion a0 + a1*i + a2*j + a3*k."""

    a0: Fraction
    a1: Fraction
    a2: Fraction
    a3: Fraction

    def __post_init__(self):
        for name in ("a0", "a1", "a2", "a3"):
            object.__setattr__(self, name, _frac(getattr(self, name)))

    @classmethod
    def of(cls, a0: _Scalar, a1: _Scalar = 0, a2: _Scalar = 0, a3: _Scalar = 0) -> "Quaternion":
        return cls(_frac(a0), _frac(a1), _frac(a2), _frac(a3))

    @property
    def coords(self) -> tuple[Fraction, Fraction, Fraction, Fraction]:
        return (self.a0, self.a1, self.a2, self.a3)

    def __add__(self, other: "Quaternion") -> "Quaternion":
        return Quaternion(*(x + y for x, y in zip(self.coords, other.coords)))

    def __sub__(self, other: "Quaternion") -> "Quaternion":
        return Quaternion(*(x - y for x, y in zip(self.coords, other.coords)))

    def __neg__(self) -> "Quaternion":
        return Quaternion(*(-x for x in self.coords))

    def __mul__(self, other: "Quaternion") -> "Quaternion":
        a0, a1, a2, a3 = self.coords
        b0, b1, b2, b3 = other.coords
        return Quaternion(
            a0 * b0 - a1 * b1 - a2 * b2 - a3 * b3,
            a0 * b1 + a1 * b0 + a2 * b3 - a3 * b2,
            a0 * b2 - a1 * b3 + a2 * b0 + a3 * b1,
            a0 * b3 + a1 * b2 - a2 * b1 + a3 * b0,
        )

    def scale(self, c: _Scalar) -> "Quaternion":
        c = _frac(c)
        return Quaternion(*(c * x for x in self.coords))

    def norm(self) -> Fraction:
        return sum((x * x for x in self.coords), Fraction(0))

    def trace(self) -> Fraction:
        return 2 * self.a0

    def char_poly(self) -> RationalPolynomial:
        """X^2 - 2*a0*X + N, killed by the quaternion."""
        return RationalPolynomial([self.norm(), -self.trace(), 1])


HURWITZ_UNIT = Quaternion(Fraction(1, 2), Fraction(1, 2), Fraction(1, 2), Fraction(1, 2))


def _in_z2(x: Fraction) -> bool:
    return x.denominator % 2 == 1


def hurwitz_member(q: Quaternion) -> bool:
    """Is q in the Hurwitz order over Z_(2)?

    True iff the coordinates are all in Z_(2), or all in Z_(2) + 1/2.
    """
    if all(_in_z2(x) for x in q.coords):
        return True
    return all(_in_z2(x - Fraction(1, 2)) for x in q.coords)


def quaternion_integral(q: Quaternion) -> bool:
    """Does q satisfy a monic quadratic with Z_(2) coefficients?

    Equivalent to: trace 2*a0 and norm N(q) both have odd denominator.
    """
    return _in_z2(q.trace()) and _in_z2(q.norm())


@dataclass(frozen=True)
class ClosureReport:
    """Outcome of a randomized integral-implies-member sweep."""

    samples: int
    integral_count: int
    member_count: int
    counterexamples: tuple[Quaternion, ...]

    @property
    def consistent(self) -> bool:
        return not self.counterexamples


def closure_check(samples: int, seed: int) -> ClosureReport:
    """Sample quaternions and confirm integral ones are Hurwitz members.

    Draws alpha = (a0 + a1*i + a2*j + a3*k) / (2^n * e) with integer
    |a_i| <= 50, n <= 4 and odd e <= 9, deterministically from the seed.  Any
    integral non-member would refute the closedness of the Hurwitz order;
    none exists, and the report records the counts.
    """
    if samples < 1:
        raise MalformedInputError("MALFORMED_INPUT: samples must be positive")
    rng = random.Random(seed)
    integral_count = 0
    member_count = 0
    bad: list[Quaternion] = []
    for _ in range(samples):
        den = 2 ** rng.randint(0, 4) * rng.choice((1, 3, 5, 7, 9))
        q = Quaternion.of(*(Fraction(rng.randint(-50, 50), den) for _ in range(4)))
        integral = quaternion_integral(q)
        member = hurwitz_member(q)
        if integral:
            integral_count += 1
        if member:
            member_count += 1
        if integral and not member:
            bad.append(q)
    return ClosureReport(samples, integral_count, member_count, tuple(bad))


def _square_counts(modulus: int) -> tuple[list[int], list[int]]:
    even = [0] * modulus
    odd = [0] * modulus
    for x in range(modulus):
        target = even if x % 2 == 0 else odd
        target[x * x % modulus] += 1
    return even, odd


def _convolve(a: Sequence[int], b: Sequence[int], modulus: int) -> list[int]:
    out = [0] * modulus
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                if bj:
                    out[(i + j) % modulus] += ai * bj
    return out


def four_square_lemma_check(n: int) -> bool:
    """Do all solutions of a^2+b^2+c^2+d^2 = 0 mod 4^n have a,b,c,d even?

    Checked for n in {2, 3} by exact counting: the number of solutions over
    [0, 4^n)^4 equals the number of all-even solutions iff no tuple with an
    odd entry exists.  Counting squares per residue class and convolving is
    equivalent to enumerating all 4^(4n) tuples.
    """
    if n not in (2, 3):
        raise MalformedInputError(f"MALFORMED_INPUT: unsupported exponent {n}; use 2 or 3")
    modulus = 4**n
    even, odd = _square_counts(modulus)
    full = [e + o for e, o in zip(even, odd)]
    all_pairs = _convolve(full, full, modulus)
    even_pairs = _convolve(even, even, modulus)
    total = _convolve(all_pairs, all_pairs, modulus)[0]
    even_only = _convolve(even_pairs, even_pairs, modulus)[0]
    return total == even_only


def four_square_violations(n: int) -> list[tuple[int, int, int, int]]:
    """All tuples in [0, 4^n)^4 summing squares to 0 mod 4^n with an odd entry.

    Diagnostic companion to four_square_lemma_check: empty for n >= 2, while
    n = 1 admits the sixteen all-odd tuples (1,1,1,1), ..., (3,3,3,3).
    Enumerates directly, so keep n small.
    """
    if n < 1 or n > 2:
        raise MalformedInputError(f"MALFORMED_INPUT: unsupported exponent {n}; use 1 or 2")
    modulus = 4**n
    hits = []
    for a in range(modulus):
        for b in range(modulus):
            for c in range(modulus):
                partial = a * a + b * b + c * c
                for d in range(modulus):
                    if (partial + d * d) % modulus == 0 and (a | b | c | d) & 1:
                        hits.append((a, b, c, d))
    return hits


def norm_in_D_check(samples: int) -> bool:
    """Norms of Hurwitz members have odd denominator; spot-check both types.

    Generates members deterministically (fixed internal seed): half with all
    coordinates in Z_(2), half with all in Z_(2) + 1/2.
    """
    if samples < 1:
        raise MalformedInputError("MALFORMED_INPUT: samples must be positive")
    rng = random.Random(271828)
    for index in range(samples):
        parts = []
        for _ in range(4):
            base = Fraction(rng.randint(-99, 99), rng.choice((1, 3, 5, 7, 9)))
            parts.append(base + Fraction(1, 2) if index % 2 else base)
        q = Quaternion.of(*parts)
        if not hurwitz_member(q):
            raise PruferError("internal: generated a non-member sample")
        if not _in_z2(q.norm()):
            return False
    return True
