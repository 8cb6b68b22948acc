"""Hurwitz quaternions over the local ring Z_(2).

The one noncommutative order in the package with a Prüfer ring of
integer-valued polynomials; the global decision pipeline rejects every
noncommutative order over Z, so this module carries its own membership and
integrality tests over D = Z_(2) = {rationals with odd denominator}.

A quaternion a0 + a1*i + a2*j + a3*k is an ``orders.AlgebraElement`` of
dimension 4, integer numerators over one denominator; a coordinate lies in
Z_(2) exactly when its reduced denominator is odd.

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
from itertools import product
from math import gcd, lcm
from typing import Sequence

from .errors import MalformedInputError, PruferError
from .orders import AlgebraElement
from .poly import RationalPolynomial

HURWITZ_UNIT = AlgebraElement((1, 1, 1, 1), 2)


def _in_z2(num: int, den: int) -> bool:
    """Is num/den in Z_(2), i.e. is its reduced denominator odd?"""
    return (den // gcd(num, den)) % 2 == 1


def _norm_numerator(q: AlgebraElement) -> int:
    """The norm sum(a_i^2) of q times denominator^2."""
    return sum(c * c for c in q.integer_numerators)


def reduced_char_poly(q: AlgebraElement) -> RationalPolynomial:
    """X^2 - 2*a0*X + N(q), killed by the quaternion q."""
    d, a0 = q.denominator, q.integer_numerators[0]
    return RationalPolynomial.from_int_coeffs((_norm_numerator(q), -2 * a0 * d, d * d), d * d)


def hurwitz_member(q: AlgebraElement) -> bool:
    """Is q in the Hurwitz order over Z_(2)?

    True iff the coordinates are all in Z_(2), or all in Z_(2) + 1/2.
    """
    d = q.denominator
    if all(_in_z2(c, d) for c in q.integer_numerators):
        return True
    # c/d - 1/2 = (2c - d) / 2d
    return all(_in_z2(2 * c - d, 2 * d) for c in q.integer_numerators)


def quaternion_integral(q: AlgebraElement) -> bool:
    """Does q satisfy a monic quadratic with Z_(2) coefficients?

    Equivalent to: trace 2*a0 and norm N(q) both have odd denominator.
    """
    d = q.denominator
    return _in_z2(2 * q.integer_numerators[0], d) and _in_z2(_norm_numerator(q), d * d)


@dataclass(frozen=True)
class ClosureReport:
    """Outcome of a randomized integral-implies-member sweep."""

    samples: int
    integral_count: int
    member_count: int
    counterexamples: tuple[AlgebraElement, ...]

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
    bad: list[AlgebraElement] = []
    for _ in range(samples):
        den = 2 ** rng.randint(0, 4) * rng.choice((1, 3, 5, 7, 9))
        q = AlgebraElement(tuple(rng.randint(-50, 50) for _ in range(4)), den)
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


def odd_grid_check() -> bool:
    """The 3125 quaternions (a0 + a1*i + a2*j + a3*k) / (2e) with odd
    a_i, e <= 9 are Hurwitz members, all in Z_(2) + 1/2, and integral."""
    odds = (1, 3, 5, 7, 9)
    return all(
        hurwitz_member(q) and quaternion_integral(q)
        for q in (AlgebraElement(nums[:4], 2 * nums[4]) for nums in product(odds, repeat=5))
    )


def norm_in_D_check(samples: int) -> bool:
    """Norms of Hurwitz members have odd denominator; spot-check both types.

    Generates members deterministically (fixed internal seed): half with all
    coordinates in Z_(2), half with all in Z_(2) + 1/2.
    """
    if samples < 1:
        raise MalformedInputError("MALFORMED_INPUT: samples must be positive")
    rng = random.Random(271828)
    for index in range(samples):
        parts = [(rng.randint(-99, 99), rng.choice((1, 3, 5, 7, 9))) for _ in range(4)]
        # a/e, plus 1/2 on odd indices, over the common denominator den
        half = index % 2
        den = (1 + half) * lcm(*(e for _, e in parts))
        q = AlgebraElement(tuple(a * (den // e) + half * den // 2 for a, e in parts), den)
        if not hurwitz_member(q):
            raise PruferError("internal: generated a non-member sample")
        if not _in_z2(_norm_numerator(q), q.denominator**2):
            return False
    return True
