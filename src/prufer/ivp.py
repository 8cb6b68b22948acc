"""Membership tests for rings of integer-valued polynomials on an order.

Int_Q(S, A) membership for finite S is plain evaluation; membership in
Int_Q(A) = {f : f(A) <= A} reduces to a finite exact check.  With f = g/d and
N = deg g, each prime power p^k || d is checked on a residue system of
A/p^kA or on the C(N + dim, dim) points of the Newton simplex, whichever is
smaller (Cahen-Chabert, Integer-Valued Polynomials, ch. I and XI).  The
number of checked points, at most d^dim, is capped by an explicit budget so
the cost is always visible, never silently sampled.

At a prime modulus p, g vanishes on R = A/pA exactly when g mod p lies in
the null ideal of R, and that ideal is read from the structure of R where
it is known, by one division per local factor:
- some residue x generates R, so R = F_p[X]/(mu_x) = prod F_q[t]/(t^e),
  q = p^f, with the (e, f) pairs of mu_x mod p: the null ideal is the lcm
  of the (X^q - X)^e (Frisch, J. Algebra 2013);
- dim 4, p odd, p not dividing disc(A) and R not commutative, so
  R = M_2(F_p): the null ideal is ((X^p - X)(X^(p^2) - X))
  (Brawley-Carlitz-Levine, 1975);
- otherwise each residue's minimal polynomial over F_p is divided into
  g mod p; one, at most dim products whatever N, serves the p(p - 1)
  residues l x + c, about p^(dim-1)/(p - 1) in all.
A prime power p^k, k >= 2, and the simplex cost about 3 sqrt(N) products a
point.

Also here: the pointwise test (is A `integrally closed at a`, i.e. is the ring
A ∩ Q[a] integrally closed), ramification profiles of maximal orders at
primes not dividing [O : Z[a]], and the polynomial transforms
h = (f^r - f)^s / p that generate new integer-valued polynomials from old.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from math import comb, factorial, isqrt
from typing import Iterable, Iterator, Sequence

from .closure import _enlargements, _round_two, discriminant, field_polynomial, power_index
from .errors import (
    BudgetExceededError,
    DimensionMismatchError,
    IndexDivisibleError,
    MalformedInputError,
    NotApplicableError,
    PruferError,
)
from .factor import _trim, _zp_divmod_monic, dedekind_p_maximal, is_probable_prime, modp_degrees, poly_factor
from .linalg import modp_span_add
from .orders import (
    AlgebraElement,
    ZOrder,
    equation_order,
    evaluate_poly,
    minimal_polynomial,
    mul,
)
from .poly import MAX_PARSE_DEGREE, RationalPolynomial
from .splitting import crt_idempotents

DEFAULT_POINT_BUDGET = 10**6
R_DIGIT_CAP = 4300
# deg^2 * bits of a transform sequence's last entry: f_12 of X at (2; 1, 1) is 2.7 * 10^11.
TRANSFORM_WORK_CAP = 10**12


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


def membership_plan(order: ZOrder, f: RationalPolynomial) -> tuple[list[int], int, int]:
    """How int_member_order splits the denominator d of f: (moduli, cofactor, points).

    A prime power q = p^k || d is a modulus, checked on its q^dim residues,
    when those are fewer than the C(deg f + dim, dim) simplex points; the
    other prime powers, including every prime with p^dim >= C, which trial
    division never reaches, form the cofactor, checked on the simplex.
    points, at most d^dim, counts every evaluation; it is 0 when f is integer.
    """
    if f.is_zero or f.denominator == 1:
        return [], 1, 0
    n, simplex = order.dim, comb(f.degree + order.dim, order.dim)
    moduli = []
    cofactor = rest = f.denominator
    p = 2
    while p <= rest and p**n < simplex:
        if rest % p == 0:
            q = 1
            while rest % p == 0:
                rest //= p
                q *= p
            if q**n < simplex:
                moduli.append(q)
                cofactor //= q
        p += 1
    return moduli, cofactor, sum(q**n for q in moduli) + (simplex if cofactor > 1 else 0)


def _vanishes_mod(order: ZOrder, nums: Sequence[int], q: int, points: Iterable[Sequence[int]]) -> bool:
    """Is g(x) = 0 in A/qA at every point x, for g with coefficients nums?

    Horner in y = x^s over blocks of s ~ sqrt(deg g) coefficients, each block
    summed against 1, x, ..., x^(s-1): about 3 sqrt(deg g) matrix-vector
    products mod q per point instead of deg g.  This is the check for a prime
    power q = p^k with k >= 2 and for the simplex cofactor; a prime q takes
    one division of g per local factor of A/qA or per distinct minimal
    polynomial over F_q instead (int_member_order).
    """
    n = order.dim
    mul = operator.mul
    # The e_k coordinate of x*y is sum_i (sum_j x_j slices[k][i][j]) y_i.
    slices = [[[order.table[j][i][k] % q for j in range(n)] for i in range(n)] for k in range(n)]
    one = [c % q for c in order.one]
    s = isqrt(len(nums))
    blocks = [[c % q for c in nums[b : b + s]] for b in range(0, len(nums), s)][::-1]

    def left(x: Sequence[int]) -> list[list[int]]:
        return [[sum(map(mul, x, cell)) % q for cell in row] for row in slices]

    for x in points:
        lx = left(x)
        powers = [one]
        for _ in range(s):
            powers.append([sum(map(mul, row, powers[-1])) % q for row in lx])
        giant = left(powers.pop())
        columns = list(zip(*powers))
        acc = [0] * n
        for block in blocks:
            acc = [
                (sum(map(mul, row, acc)) + sum(map(mul, block, col))) % q
                for row, col in zip(giant, columns)
            ]
        if any(acc):
            return False
    return True


def _orbit_representatives(one: Sequence[int], p: int) -> Iterable[list[int]]:
    """The x with x_j = 0 and first nonzero coordinate 1, for the first j with
    one_j != 0 mod p, then 0: each residue of A/pA is l x + c 1 (l != 0) for
    exactly one."""
    n, j = len(one), next(i for i, c in enumerate(one) if c % p)
    for t in range(n - 1):
        for tail in itertools.product(range(p), repeat=n - 2 - t):
            x = [0] * t + [1, *tail]
            x.insert(j, 0)
            yield x
    yield [0] * n


# M_2(F_p) has the null ideal ((X^p - X)(X^(p^2) - X)), that of F_p[t]/(t^2) x F_(p^2).
MATRIX_PAIRS = ((2, 1), (1, 2))


def _null_ideal_contains(nums: Sequence[int], p: int, pairs: Iterable[tuple[int, int]]) -> bool:
    """Does (X^q - X)^e, q = p^f, divide g mod p for each pair (e, f), p prime?

    That is g(x) = 0 for every x in prod F_q[t]/(t^e): with x = a + t b,
    g(x) = sum_k (D^k g)(a) (t b)^k over the Hasse derivatives D^k, so g must
    vanish to order e at each a in F_q.  (X^q - X)^e has e + 1 terms, so the
    division costs about (e + 1) deg g, and it is made only when the divisor
    is no longer than g mod p.
    """
    g = _trim([c % p for c in nums])
    if not g:
        return True
    for e, f in set(pairs):
        q = p**f
        if (m := q * e) >= len(g):
            return False
        # (X^q - X)^e = X^m + sum_(k >= 1) (-1)^k C(e, k) X^(k + q (e - k)).
        tail = [(k + q * (e - k), (-1) ** k * comb(e, k)) for k in range(1, e + 1)]
        rest = list(g)
        for top in range(len(rest) - 1, m - 1, -1):
            if c := rest[top] % p:
                for j, t in tail:
                    rest[top - m + j] -= c * t
        if any(c % p for c in rest[:m]):
            return False
    return True


def _orbit_minimal_polynomials(order: ZOrder, p: int) -> Iterator[list[int]]:
    """mu_x over F_p, p prime, for each x of _orbit_representatives: the first
    relation among 1, x, x^2, ... mod p, found by ``modp_span_add`` in at
    most dim products."""
    one = [c % p for c in order.one]
    for x in _orbit_representatives(one, p):
        span, power = [], one
        while (mu := modp_span_add(span, power, p)) is None:
            power = [c % p for c in order._mul_coords(power, x)]
        yield mu


def _orbit_divides(nums: Sequence[int], mu: list[int], p: int, passed: set[tuple[int, ...]]) -> bool:
    """Does g mod p vanish on the orbit l x + c of x, mu = mu_x over F_p?

    F_p[l x + c] = F_p[x] gives mu_(l x + c)(X) = l^d mu_x((X - c)/l), so
    each of those images must divide g mod p.  An image in passed is not
    divided again, and each that divides is added to it.
    """
    if tuple(mu) in passed:
        return True
    d = len(mu) - 1
    for scale in range(1, p):
        image = [a * pow(scale, d - i, p) % p for i, a in enumerate(mu)]
        for _ in range(p):
            if (key := tuple(image)) not in passed:
                if _zp_divmod_monic(nums, image, p)[1]:
                    return False
                passed.add(key)
            # Taylor shift: image(X) becomes image(X - 1).
            for i in range(d):
                for k in range(d - 1, i - 1, -1):
                    image[k] = (image[k] - image[k + 1]) % p
    return True


def _vanishes_mod_prime(order: ZOrder, nums: Sequence[int], p: int) -> bool:
    """Is g(x) = 0 in A/pA for every residue x, for g with coefficients nums and p prime?

    A/pA is an F_p-algebra with 1, so g(x) = 0 exactly when the minimal
    polynomial of x over F_p divides g mod p (F_p[x] = F_p[X]/(mu_x)).  One
    mu_x per orbit of x -> l x + c (_orbit_minimal_polynomials) settles up to
    p(p - 1) residues (_orbit_divides), about p^(dim-1)/(p - 1) orbits in all.
    The first x whose mu_x has degree dim generates A/pA = F_p[X]/(mu_x),
    and the walk stops there: g passes exactly when it lies in the null ideal
    of the local factors F_(p^f)[t]/(t^e), one per (e, f) pair of mu_x mod p
    (_null_ideal_contains; Frisch, J. Algebra 2013).  Where no residue
    generates A/pA, as at a common index divisor or in M_2(F_p), every orbit
    is walked.
    """
    passed: set[tuple[int, ...]] = set()
    for mu in _orbit_minimal_polynomials(order, p):
        if len(mu) > order.dim:
            return _null_ideal_contains(nums, p, modp_degrees(mu, p))
        if not _orbit_divides(nums, mu, p, passed):
            return False
    return True


def _matrix_primes(order: ZOrder, primes: Iterable[int]) -> set[int]:
    """The primes p with A/pA = M_2(F_p): dim 4, p odd, A/pA not commutative
    and p not dividing disc(A), which is worked out at most once.

    The radical of A/pA lies in the kernel of its trace form (x y is
    nilpotent for x in it), so p not dividing disc(A) makes A/pA semisimple;
    by Wedderburn's theorems M_2(F_p) is the only noncommutative semisimple
    F_p-algebra of dimension 4.
    """
    if order.dim != 4:
        return set()
    t = order.table
    commutators = [a - b for i in range(4) for j in range(i) for a, b in zip(t[i][j], t[j][i])]
    candidates = [p for p in primes if p % 2 and any(c % p for c in commutators)]
    if not candidates:
        return set()
    disc = discriminant(order)
    return {p for p in candidates if disc % p}


def int_member_order(order: ZOrder, f: RationalPolynomial, budget: int | None = None) -> bool:
    """Is f in Int_Q(A)?  Exact finite check on at most d^dim points.

    With f = g/d, g integer of degree N, the coordinates of g(sum x_i e_i) are
    integer polynomials of total degree <= N in x, so g(A) <= qA iff g
    vanishes mod qA on the q^n residues [0, q)^n (g(a + qx) = g(a) mod qA),
    or on the C(N + n, n) simplex points x >= 0, sum x <= N: the products of
    binomials C(x_i, k_i), sum k <= N, are a Z-basis of the integer-valued
    polynomials of degree <= N, read off the simplex by a unimodular
    triangular system (Cahen-Chabert, Integer-Valued Polynomials, ch. I and
    XI).  By CRT each prime power of d takes the smaller set (membership_plan).
    The budget counts the points, q^n per modulus, before any work.

    A prime modulus p takes the null ideal of M_2(F_p) where _matrix_primes
    finds A/pA = M_2(F_p), and _vanishes_mod_prime otherwise, which stops
    at a generator of A/pA (module docstring).  Prime powers p^k, k >= 2,
    and the simplex evaluate g by Horner (_vanishes_mod): about 3 sqrt(N)
    products a point.
    """
    limit = DEFAULT_POINT_BUDGET if budget is None else budget
    if limit < 1:
        raise MalformedInputError("MALFORMED_INPUT: budget must be positive")
    moduli, cofactor, required = membership_plan(order, f)
    if not required:
        return True
    if required > limit:
        raise BudgetExceededError(
            f"{required} point evaluations needed, budget is {limit}",
            required=required,
            budget=limit,
        )
    n, nums = order.dim, f.integer_numerators
    primes = [q for q in moduli if is_probable_prime(q)]
    matrix_primes = _matrix_primes(order, primes)
    for q in moduli:
        if q in matrix_primes:
            ok = _null_ideal_contains(nums, q, MATRIX_PAIRS)
        elif q in primes:
            ok = _vanishes_mod_prime(order, nums, q)
        else:
            ok = _vanishes_mod(order, nums, q, itertools.product(range(q), repeat=n))
        if not ok:
            return False
    # The gaps of each n-subset of range(N + n) run once over the simplex.
    cuts = itertools.combinations(range(f.degree + n), n)
    simplex = (tuple(b - a - 1 for a, b in zip((-1,) + cut, cut)) for cut in cuts)
    return cofactor == 1 or _vanishes_mod(order, nums, cofactor, simplex)


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
    each component's maximal order into Q[a], x -> x(a) e_i with e_i the
    component idempotent of ``splitting.crt_idempotents``, and test
    coordinate integrality.  The witness of failure is integral over Z
    but outside A.
    """
    if a.dim != order.dim:
        raise DimensionMismatchError(f"point has dim {a.dim}, order has dim {order.dim}")
    if not a.is_integral_vector:
        raise MalformedInputError("MALFORMED_INPUT: the base point must lie in the order")
    mu = minimal_polynomial(order, a)
    m = mu.degree

    factors = poly_factor(mu)
    if any(e > 1 for _, e in factors):
        half = RationalPolynomial.one_poly
        for g, e in factors:
            half = half * g ** ((e + 1) // 2)
        # deg(half) < deg(mu) so half(a) != 0, while mu | half^2 forces
        # half(a)^2 = 0.
        witness = evaluate_poly(order, half, a)
        return PointwiseClosure(False, witness, "nilpotent", m)

    for (g, _), e in zip(factors, crt_idempotents(order, a, mu, [g for g, _ in factors])):
        basis = (AlgebraElement((1,)),) if g.degree == 1 else _round_two(equation_order(g), g).basis
        for x in basis:
            lift = RationalPolynomial.from_int_coeffs(x.integer_numerators, x.denominator)
            b = mul(order, evaluate_poly(order, lift, a), e)
            if not b.is_integral_vector:
                return PointwiseClosure(False, b, "escaping", m)
    return PointwiseClosure(True, None, None, m)


def _require_prime(p: int) -> None:
    if p < 2 or not is_probable_prime(p):
        raise MalformedInputError(f"MALFORMED_INPUT: {p} is not prime")


@dataclass(frozen=True)
class RamificationProfile:
    """Splitting data of a rational prime p in a number field.

    pairs holds one (e, f) per prime above p, sorted, with multiplicity; the
    derived exponents s = e_max! and r = p^(f_max!) drive the polynomial
    transforms below; r is refused (BUDGET_EXCEEDED) above R_DIGIT_CAP
    digits, Python's default limit for printing an int.
    """

    prime: int
    pairs: tuple[tuple[int, int], ...]

    def __post_init__(self):
        _require_prime(self.prime)
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
        # r >= 2^((bits(p) - 1) f!), so f! is bounded before r is formed.
        p, cap = self.prime, 10**R_DIGIT_CAP
        exponent = _bounded_factorial(self.f_max, cap.bit_length() // (p.bit_length() - 1))
        if exponent is None or (r := p**exponent) >= cap:
            raise BudgetExceededError(
                f"r = {p}^({self.f_max}!) would have more than {R_DIGIT_CAP} digits, the cap on r",
                required=R_DIGIT_CAP + 1,
                budget=R_DIGIT_CAP,
            )
        return r

    @property
    def degree(self) -> int:
        return sum(e * f for e, f in self.pairs)


def ramification_profile(order: ZOrder, p: int) -> RamificationProfile:
    """Factor p in a maximal order of a number field.

    The (e, f) pairs are those of the primitive element's minimal polynomial
    mod p, read by ``factor.modp_degrees`` from multiplicities and distinct
    degrees without splitting a factor, so the cost is polynomial in log p.
    They are valid only when p does not divide the index of the equation
    order Z[a] in the maximal order (INDEX_DIVISIBLE otherwise; full ideal
    factorization at such primes is out of scope), which in a maximal order
    is where mu fails Dedekind's criterion.  Round 2 stops at its first step
    of index > 1, which proves the order is not maximal.
    """
    _require_prime(p)
    a, mu = field_polynomial(order)
    if next(_enlargements(order, mu), None) is not None:
        raise NotApplicableError("NOT_MAXIMAL: the order is not maximal")
    if not dedekind_p_maximal(mu, p):
        raise IndexDivisibleError(
            f"{p} divides the equation-order index {power_index(order, a)}; profile unavailable at this prime"
        )

    profile = RamificationProfile(prime=p, pairs=tuple(modp_degrees(mu.integer_numerators, p)))
    if profile.degree != mu.degree:
        raise PruferError("internal: sum of e*f does not match the field degree")
    return profile


def _bounded_factorial(k: int, cap: int) -> int | None:
    """k!, or None as soon as it exceeds cap."""
    out = 1
    for i in range(2, k + 1):
        out *= i
        if out > cap:
            return None
    return out


def _transform_exponents(f: RationalPolynomial, profile: RamificationProfile) -> tuple[int, int, int, int]:
    """(d, r, s, b) for the transform of f = g/den, with d = max(deg f, 1)
    and max(|g|_1, den) < 2^b.

    Refused as MALFORMED_INPUT when d*r*s, the degree of (f^r - f)^s, would
    exceed the parser's degree cap.  r = p^(f!) >= 2^(f!), so f! and e! are
    bounded before r is formed.  A constant counts as degree 1: c^r has as
    many digits as a degree-r power's coefficients.
    """
    d = max(f.degree, 1)
    room = MAX_PARSE_DEGREE // d
    s = _bounded_factorial(profile.e_max, room)
    f_factorial = _bounded_factorial(profile.f_max, room.bit_length())
    r = None if f_factorial is None else profile.prime**f_factorial
    if s is None or r is None or r * s > room:
        raise MalformedInputError(
            f"MALFORMED_INPUT: the transform of a degree-{d} polynomial at {profile.pairs} "
            f"would exceed the degree cap {MAX_PARSE_DEGREE}"
        )
    return d, r, s, max(sum(map(abs, f.integer_numerators)), f.denominator).bit_length()


def _check_transform_work(what: str, degree: int, bits: int) -> None:
    """Refuse a result of this degree with numerators and denominator below
    2^bits: building it costs at most deg^2 products of such integers."""
    if (work := degree**2 * bits) > TRANSFORM_WORK_CAP:
        message = f"{what} would cost deg^2 * bits = {work} > {TRANSFORM_WORK_CAP}"
        raise BudgetExceededError(message, required=work, budget=TRANSFORM_WORK_CAP)


def pruefer_transform(f: RationalPolynomial, profile: RamificationProfile) -> RationalPolynomial:
    """h = (f^r - f)^s / p, integer-valued whenever f is; h has degree d r s
    and bit size at most s (r b + 1) + log2 p, refused before any product."""
    d, r, s, b = _transform_exponents(f, profile)
    p = profile.prime
    _check_transform_work("the transform", d * r * s, s * (r * b + 1) + p.bit_length())
    return (f**r - f) ** s / p


def transform_sequence(
    f: RationalPolynomial,
    profile: RamificationProfile,
    k_max: int,
) -> list[RationalPolynomial]:
    """[f_0, ..., f_k] with f_0 = f^s and f_k = f_{k-1} (f_{k-1}^{r-1} - 1)^s / p."""
    if k_max < 1:
        raise MalformedInputError("MALFORMED_INPUT: k_max must be at least 1")
    degree, r, s, b = _transform_exponents(f, profile)
    m, p = 1 + (r - 1) * s, profile.prime
    # deg f_k = d s m^k, and f_k = g_k / d_k with max(|g_k|_1, d_k) < 2^bits_k,
    # bits_k = m bits_(k-1) + s + log2 p: both are checked before f_1 is built.
    degree, bits = degree * s, s * b
    for k in range(1, k_max + 1):
        degree, bits = degree * m, bits * m + s + p.bit_length()
        if degree > MAX_PARSE_DEGREE:
            raise MalformedInputError(
                f"MALFORMED_INPUT: f_{k} of the transform sequence would have degree {degree}, "
                f"above the cap {MAX_PARSE_DEGREE}"
            )
    # The last step costs most.
    _check_transform_work(f"f_{k_max} of the sequence", degree, bits)
    seq = [f**s]
    for _ in range(k_max):
        prev = seq[-1]
        seq.append(prev * (prev ** (r - 1) - 1) ** s / p)
    return seq
