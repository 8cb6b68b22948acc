"""Membership tests for rings of integer-valued polynomials on an order.

Int_Q(S, A) membership for finite S is plain evaluation; membership in
Int_Q(A) = {f : f(A) <= A} reduces to a finite check over a complete residue
system of A/dA, where d is the denominator of f.  The residue count d^dim is
capped by an explicit budget (overridable via the IVP_BUDGET environment
variable) so the cost is always visible, never silently sampled.

Also here: the pointwise test (is A `integrally closed at a`, i.e. is the ring
A ∩ Q[a] integrally closed), ramification profiles of maximal orders at
unramified-index primes, the polynomial transforms h = (f^r - f)^s / p that
generate new integer-valued polynomials from old, and the bounded search for
square-nilpotent witnesses mod p in noncommutative orders.
"""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass
from fractions import Fraction
from math import factorial, isqrt
from typing import Iterable, Sequence

import numpy as np

from .closure import discriminant, maximal_order
from .errors import (
    BudgetExceededError,
    DimensionMismatchError,
    IndexDivisibleError,
    MalformedInputError,
    NotApplicableError,
    PruferError,
)
from .factor import is_probable_prime, modp_factor, poly_factor
from .linalg import first_relation
from .orders import (
    AlgebraElement,
    ZOrder,
    element,
    equation_order,
    evaluate_poly,
    integer_powers,
    minimal_polynomial,
    mul,
)
from .poly import RationalPolynomial, poly_xgcd
from .splitting import SEARCH_CAP, find_primitive_element, shell_vectors

DEFAULT_RESIDUE_BUDGET = 10**6


def _resolve_budget(budget: int | None) -> int:
    if budget is not None:
        if budget < 1:
            raise MalformedInputError("MALFORMED_INPUT: budget must be positive")
        return budget
    raw = os.environ.get("IVP_BUDGET")
    if raw is None:
        return DEFAULT_RESIDUE_BUDGET
    try:
        value = int(raw)
    except ValueError as exc:
        raise MalformedInputError(f"MALFORMED_INPUT: IVP_BUDGET is not an integer: {raw!r}") from exc
    if value < 1:
        raise MalformedInputError("MALFORMED_INPUT: IVP_BUDGET must be positive")
    return value


def int_member_finite(
    order: ZOrder,
    points: Iterable[AlgebraElement],
    f: RationalPolynomial,
) -> tuple[bool, tuple[AlgebraElement, AlgebraElement] | None]:
    """Is f(s) in A for every s in the finite sample set?

    Returns (True, None), or (False, (s, f(s))) for the first failing point.
    """
    pts = list(points)
    if not pts:
        raise MalformedInputError("MALFORMED_INPUT: empty sample set")
    for s in pts:
        if s.dim != order.dim:
            raise DimensionMismatchError(f"point has dim {s.dim}, order has dim {order.dim}")
        value = evaluate_poly(order, f, s)
        if not value.is_integral_vector:
            return False, (s, value)
    return True, None


def _numpy_safe(dim: int, d: int) -> bool:
    # Residues, coefficients and table entries are reduced into [0, d), so one
    # Horner step is bounded by dim^2 * (d-1)^3 plus a c*one term; keep the
    # whole thing clear of int64 territory.
    return (dim * dim + 1) * d**3 < 2**62


def _int_member_order_numpy(order: ZOrder, nums: Sequence[int], d: int) -> bool:
    n = order.dim
    table = np.array(
        [[[int(c) % d for c in cell] for cell in row] for row in order.table],
        dtype=np.int64,
    )
    one = np.array([int(c) % d for c in order.one], dtype=np.int64)
    coeffs = [c % d for c in nums]
    res = np.indices((d,) * n).reshape(n, -1).T.astype(np.int64)
    acc = np.tile(coeffs[-1] * one % d, (res.shape[0], 1))
    for c in reversed(coeffs[:-1]):
        acc = (np.einsum("ri,rj,ijk->rk", acc, res, table) + c * one) % d
    return not acc.any()


def _int_member_order_python(order: ZOrder, nums: Sequence[int], d: int) -> bool:
    n = order.dim
    table = [[[int(c) % d for c in cell] for cell in row] for row in order.table]
    one = [int(c) % d for c in order.one]
    coeffs = [c % d for c in nums]
    top = coeffs[-1]
    rest = list(reversed(coeffs[:-1]))
    for res in itertools.product(range(d), repeat=n):
        acc = [top * o % d for o in one]
        for c in rest:
            prod = [0] * n
            for i, ai in enumerate(acc):
                if ai == 0:
                    continue
                row = table[i]
                for j, xj in enumerate(res):
                    if xj == 0:
                        continue
                    axj = ai * xj
                    cell = row[j]
                    for k in range(n):
                        if cell[k]:
                            prod[k] += axj * cell[k]
            acc = [(prod[k] + c * one[k]) % d for k in range(n)]
        if any(acc):
            return False
    return True


def int_member_order(order: ZOrder, f: RationalPolynomial, budget: int | None = None) -> bool:
    """Is f in Int_Q(A)?  Exact finite check over a residue system of A/dA.

    Write f = g/d with g integer and d minimal.  Since g has integer
    coefficients, g(a + d*x) = g(a) mod dA termwise, so f(A) <= A iff
    g(a) is in dA for all d^dim residue vectors a in [0, d)^dim.
    """
    if f.is_zero:
        return True
    d = f.denominator
    if d == 1:
        return True
    limit = _resolve_budget(budget)
    required = d**order.dim
    if required > limit:
        raise BudgetExceededError(
            f"BUDGET_EXCEEDED: {required} residue checks needed, budget is {limit}",
            required=required,
            budget=limit,
        )
    nums = f.integer_numerators
    if _numpy_safe(order.dim, d):
        return _int_member_order_numpy(order, nums, d)
    return _int_member_order_python(order, nums, d)


@dataclass(frozen=True)
class PointwiseClosure:
    """Outcome of the pointwise integral-closedness test at a point a.

    witness_kind is "nilpotent" (the minimal polynomial of a is not
    squarefree, so Q[a] has nilpotents) or "escaping" (an integral element of
    Q[a] lies outside A); None when closed.
    """

    closed: bool
    witness: AlgebraElement | None
    witness_kind: str | None
    subalgebra_dim: int


def pointwise_integrally_closed(order: ZOrder, a: AlgebraElement) -> PointwiseClosure:
    """Is the ring A ∩ Q[a] integrally closed?

    If the minimal polynomial mu of a is not squarefree, the answer is no and
    the witness is a nonzero nilpotent of A ∩ Q[a].  Otherwise Q[a] splits as
    a product of number fields; A ∩ Q[a] is integrally closed exactly when
    every integral element of every component lies in A, so we map a basis of
    each component's maximal order into Q[a] via the component idempotent and
    test coordinate integrality.  The witness of failure is integral over Z
    but outside A.
    """
    if a.dim != order.dim:
        raise DimensionMismatchError(f"point has dim {a.dim}, order has dim {order.dim}")
    if not a.is_integral_vector:
        raise MalformedInputError("MALFORMED_INPUT: the base point must lie in the order")
    mu = minimal_polynomial(order, a)
    m = mu.degree

    # Z^n ∩ V has rank dim V for every rational subspace V, so A ∩ Q[a] has
    # rank deg(mu) exactly when 1, a, ..., a^(m-1) are independent.
    if first_relation(integer_powers(order, [int(c) for c in a.coords], m)) is not None:
        raise PruferError("internal: A ∩ Q[a] does not have rank deg(mu)")

    factors = poly_factor(mu)
    if any(e > 1 for _, e in factors):
        half = RationalPolynomial.one_poly
        for g, e in factors:
            half = half * g ** ((e + 1) // 2)
        # deg(half) < deg(mu) so half(a) != 0, while mu | half^2 forces
        # half(a)^2 = 0.
        witness = evaluate_poly(order, half, a)
        return PointwiseClosure(False, witness, "nilpotent", m)

    for g, _ in factors:
        cofactor = mu // g
        _, s, _ = poly_xgcd(g, cofactor)
        eps = (RationalPolynomial.one_poly - s * g) % mu
        if g.degree == 1:
            basis_rows: Sequence[Sequence[Fraction]] = [(Fraction(1),)]
        else:
            basis_rows = maximal_order(equation_order(g)).basis_in_ambient
        for row in basis_rows:
            lift = (RationalPolynomial(row) * eps) % mu
            b = evaluate_poly(order, lift, a)
            if not b.is_integral_vector:
                return PointwiseClosure(False, b, "escaping", m)
    return PointwiseClosure(True, None, None, m)


@dataclass(frozen=True)
class RamificationProfile:
    """Splitting data of a rational prime p in a number field.

    pairs holds one (e, f) per prime above p, sorted, with multiplicity; the
    derived exponents s = e_max! and r = p^(f_max!) drive the polynomial
    transforms below.
    """

    prime: int
    pairs: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if self.prime < 2:
            raise MalformedInputError(f"MALFORMED_INPUT: bad prime {self.prime}")
        if not self.pairs:
            raise MalformedInputError("MALFORMED_INPUT: profile needs at least one (e, f) pair")
        normalized = tuple(sorted((int(e), int(f)) for e, f in self.pairs))
        for e, f in normalized:
            if e < 1 or f < 1:
                raise MalformedInputError(f"MALFORMED_INPUT: bad ramification pair ({e}, {f})")
        object.__setattr__(self, "pairs", normalized)

    @classmethod
    def single(cls, p: int, e: int, f: int) -> "RamificationProfile":
        return cls(prime=p, pairs=((e, f),))

    @property
    def E(self) -> tuple[int, ...]:
        return tuple(sorted({e for e, _ in self.pairs}))

    @property
    def F(self) -> tuple[int, ...]:
        return tuple(sorted({f for _, f in self.pairs}))

    @property
    def e_max(self) -> int:
        return max(e for e, _ in self.pairs)

    @property
    def f_max(self) -> int:
        return max(f for _, f in self.pairs)

    @property
    def s(self) -> int:
        return factorial(self.e_max)

    @property
    def r(self) -> int:
        return self.prime ** factorial(self.f_max)

    @property
    def degree(self) -> int:
        return sum(e * f for e, f in self.pairs)


def ramification_profile(order: ZOrder, p: int) -> RamificationProfile:
    """Factor p in a maximal order of a number field.

    Uses the factorization of the primitive element's minimal polynomial mod
    p, which is valid only when p does not divide the index of the equation
    order Z[a] in the maximal order (INDEX_DIVISIBLE otherwise; full ideal
    factorization at such primes is out of scope).
    """
    if p < 2 or not is_probable_prime(p):
        raise MalformedInputError(f"MALFORMED_INPUT: {p} is not prime")
    a = find_primitive_element(order)
    mu = minimal_polynomial(order, a)
    factors = poly_factor(mu)
    if len(factors) != 1 or factors[0][1] != 1:
        raise NotApplicableError("NOT_A_FIELD: the order does not span a number field")
    emb = maximal_order(order)
    if emb.index != 1:
        raise NotApplicableError("NOT_MAXIMAL: the order is not maximal")

    disc_eq = discriminant(equation_order(mu))
    disc_here = discriminant(order)
    if disc_here == 0 or disc_eq % disc_here:
        raise PruferError("internal: equation-order discriminant is not a multiple of disc(O)")
    ratio = disc_eq // disc_here
    index = isqrt(ratio)
    if index * index != ratio:
        raise PruferError("internal: discriminant ratio is not a perfect square")
    if index % p == 0:
        raise IndexDivisibleError(
            f"INDEX_DIVISIBLE: {p} divides the equation-order index {index}; "
            "profile unavailable at this prime"
        )

    pairs = tuple((e, len(g) - 1) for g, e in modp_factor(mu.integer_numerators, p))
    profile = RamificationProfile(prime=p, pairs=pairs)
    if profile.degree != mu.degree:
        raise PruferError("internal: sum of e*f does not match the field degree")
    return profile


def pruefer_transform(f: RationalPolynomial, profile: RamificationProfile) -> RationalPolynomial:
    """h = (f^r - f)^s / p, integer-valued whenever f is."""
    return (f**profile.r - f) ** profile.s / profile.prime


def transform_sequence(
    f: RationalPolynomial,
    profile: RamificationProfile,
    k_max: int,
) -> list[RationalPolynomial]:
    """[f_0, ..., f_k] with f_0 = f^s and f_k = f_{k-1} (f_{k-1}^{r-1} - 1)^s / p."""
    if k_max < 1:
        raise MalformedInputError("MALFORMED_INPUT: k_max must be at least 1")
    r, s, p = profile.r, profile.s, profile.prime
    seq = [f**s]
    for _ in range(k_max):
        prev = seq[-1]
        seq.append(prev * (prev ** (r - 1) - 1) ** s / p)
    return seq


def nilpotent_witness(order: ZOrder, p: int, cap: int = SEARCH_CAP) -> AlgebraElement | None:
    """Search for a with a^2 in p^2 A but a not in pA.

    Any hit shows X^2/p^2 is integer-valued on {a} while a/p is not in A,
    which obstructs the whole ring from being a Prüfer domain.  The search is
    a deterministic sweep of max-norm shells with coordinates in [-p, p],
    widened once to [-2p, 2p]; None means not found within the budget, which
    is not a proof of absence.
    """
    if p < 2 or not is_probable_prime(p):
        raise MalformedInputError(f"MALFORMED_INPUT: {p} is not prime")
    psq = p * p
    for vec in shell_vectors(order.dim, 2 * p, cap):
        if all(c % p == 0 for c in vec):
            continue
        x = element(vec)
        square = mul(order, x, x)
        if all(int(c) % psq == 0 for c in square.coords):
            return x
    return None
