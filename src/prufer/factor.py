"""Factorization of univariate polynomials over Q, from scratch.

Pipeline for a nonzero polynomial F over Q with primitive part P:

1. a P of degree 1, or Eisenstein at a prime p below 100 (p divides every
   coefficient but the leading one, and p^2 does not divide the constant
   term), is irreducible (Eisenstein, J. reine angew. Math. 1850), and
   nothing below is needed; otherwise scale to a monic integer polynomial
   G(X) = l^(n-1) * P(X/l), l = lc(P);
2. look for a small odd prime p at which G stays squarefree; one among the
   first few odd primes proves F squarefree, and only when there is none does
   F go through Yun's algorithm over Q, part by part;
3. distinct-degree splitting over F_p; while p gives several factors, split
   at up to two more such primes as well and intersect the subset sums of
   each prime's factor degrees, which hold the degree of every factor of G
   over Q.  When only 0 and n are left, G is irreducible (Musser, J. ACM
   1978) and nothing below is needed;
4. Cantor-Zassenhaus equal-degree splitting at the prime with the fewest
   factors, with a generator seeded by that prime (deterministic);
5. quadratic Hensel lifting of the factor tree until the modulus clears
   twice the Landau-Mignotte coefficient bound for the largest subset sum
   of step 3 that is at most n/2: a proper factorization has a side of
   degree at most n/2, and the lift recovers exactly the factors of such
   degrees;
6. subset recombination (Zassenhaus, J. Number Theory 1969), by subset size,
   for factors of degree at most half that of the remaining cofactor: a
   subset is skipped when its degree is larger or its constant term does
   not divide the cofactor's; other monic candidates go to exact division;
7. map factors of G back to factors of F as g(l*X), made monic.

Polynomials are dense lists of ints, ascending powers; the exact division
of step 6 is ``RationalPolynomial``'s.  The degree cap keeps
the subset stage honest; inputs here are minimal polynomials of elements of
small orders, so the cap is generous.

The module is also the package's one home for primes and integer
factorization: ``is_probable_prime`` and ``factor_int`` (trial division,
then Pollard-Brent under a work budget), which factors discriminants.
``dedekind_p_maximal`` is Dedekind's criterion, by gcds over F_p, and
``modp_degrees`` gives the (e, f) pairs of a monic polynomial mod p, the
ramification data of ``ivp.ramification_profile``; neither splits a factor,
so their cost does not grow with p.
"""

from __future__ import annotations

import random
from functools import cache
from itertools import combinations, compress, islice, zip_longest
from math import comb, gcd, isqrt
from typing import Sequence

from .errors import DiscFactorizationError, FactorDegreeError, PruferError, SplitDrawsExhaustedError, ZeroPolynomialError
from .poly import RationalPolynomial, binary_power, squarefree_decomposition

FACTOR_DEGREE_CAP = 32


# -- arithmetic in (Z/m)[x], dense ascending coefficient lists --------------


def _trim(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def _zp_add(a: list[int], b: list[int], m: int) -> list[int]:
    return _trim([(x + y) % m for x, y in zip_longest(a, b, fillvalue=0)])


def _zp_sub(a: list[int], b: list[int], m: int) -> list[int]:
    return _zp_add(a, [-c for c in b], m)


def _zp_mul(a: list[int], b: list[int], m: int) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
    return _trim([c % m for c in out])

def _zp_scale(a: list[int], k: int, m: int) -> list[int]:
    return _trim([(c * k) % m for c in a])


def _zp_divmod_monic(a: list[int], b: list[int], m: int) -> tuple[list[int], list[int]]:
    """Divide by a monic polynomial over Z/m (valid for any modulus)."""
    if not b or b[-1] % m != 1:
        raise PruferError("modular division needs a monic divisor")
    a = [c % m for c in a]
    db = len(b) - 1
    if len(a) - 1 < db:
        return [], _trim(a)
    quot = [0] * (len(a) - db)
    # Coefficients below the leading one are reduced once, at the end.
    for k in range(len(a) - db - 1, -1, -1):
        c = quot[k] = a[k + db] % m
        if c:
            for j in range(db):
                a[k + j] -= c * b[j]
    return _trim(quot), _trim([c % m for c in a[:db]])


def _gp_monic(a: list[int], p: int) -> list[int]:
    a = _trim([c % p for c in a])
    if not a or a[-1] == 1:
        return a
    inv = pow(a[-1], p - 2, p)
    return [(c * inv) % p for c in a]


def _gp_divmod(a: list[int], b: list[int], p: int) -> tuple[list[int], list[int]]:
    if not b:
        raise ZeroDivisionError("modular polynomial division by zero")
    inv = pow(b[-1], p - 2, p)
    bm = [(c * inv) % p for c in b]
    q, r = _zp_divmod_monic(a, bm, p)
    return _zp_scale(q, inv, p), r


def _gp_rem(a: list[int], b: list[int], p: int) -> list[int]:
    """a mod b over F_p, for b monic and a of any integers; no quotient is
    formed, and coefficients are reduced once, at the end."""
    db = len(b) - 1
    a = list(a)
    for k in range(len(a) - db - 1, -1, -1):
        c = a[k + db] % p
        if c:
            for j in range(db):
                a[k + j] -= c * b[j]
    return _trim([c % p for c in a[:db]])


def _gp_gcd(a: list[int], b: list[int], p: int) -> list[int]:
    """Monic gcd over F_p; each Euclid step divides by a monic divisor and
    keeps only the remainder."""
    a, b = _gp_monic(a, p), _gp_monic(b, p)
    while b:
        a, b = b, _gp_monic(_gp_rem(a, b, p), p)
    return a


def _gp_xgcd(a: list[int], b: list[int], p: int) -> tuple[list[int], list[int], list[int]]:
    """(g, s, t) with s*a + t*b = g (g monic) over F_p."""
    r0, r1 = _trim([c % p for c in a]), _trim([c % p for c in b])
    s0, s1 = [1], []
    t0, t1 = [], [1]
    while r1:
        q, r = _gp_divmod(r0, r1, p)
        r0, r1 = r1, r
        s0, s1 = s1, _zp_sub(s0, _zp_mul(q, s1, p), p)
        t0, t1 = t1, _zp_sub(t0, _zp_mul(q, t1, p), p)
    if not r0:
        return [], s0, t0
    inv = pow(r0[-1], p - 2, p)
    return _zp_scale(r0, inv, p), _zp_scale(s0, inv, p), _zp_scale(t0, inv, p)


def _gp_powmod(a: list[int], e: int, f: list[int], p: int) -> list[int]:
    """a^e mod f over F_p, for f monic and e >= 1."""
    return binary_power(_gp_rem(a, f, p), e, lambda x, y: _gp_rem(_zp_mul(x, y, p), f, p))


def _gp_deriv(a: list[int], p: int) -> list[int]:
    return _trim([(i * c) % p for i, c in enumerate(a)][1:])


def _distinct_degree(f: list[int], p: int) -> list[tuple[int, list[int]]]:
    """The pairs (d, g_d) for a monic squarefree f over F_p, where
    g_d = gcd(f, X^(p^d) - X) is the product of the degree-d irreducible
    factors of f; only pairs with g_d != 1 are listed.  Each step raises
    X^(p^(d-1)) to the p-th power mod f, so the cost is polynomial in log p.
    """
    out = []
    h = [0, 1]
    d = 0
    # Once deg f < 2(d + 1), what is left of f has no factor of degree <= d,
    # so it is irreducible (or 1).
    while len(f) - 1 >= 2 * (d + 1):
        d += 1
        h = _gp_powmod(h, p, f, p)
        g = _gp_gcd(f, _zp_sub(h, [0, 1], p), p)
        if len(g) > 1:
            out.append((d, g))
            f = _zp_divmod_monic(f, g, p)[0]
            h = _gp_rem(h, f, p)
    if len(f) > 1:
        out.append((len(f) - 1, f))
    return out


# Each draw splits with probability at least 1/2, so running out of draws
# has odds below 2^-64; it is a refusal (SPLIT_DRAWS_EXHAUSTED), not a guess.
_EQUAL_DEGREE_DRAWS = 64


def _equal_degree(g: list[int], d: int, p: int, rng: random.Random) -> list[list[int]]:
    """Monic irreducible factors of g, a monic product of distinct degree-d
    irreducibles over F_p with p odd, by Cantor-Zassenhaus (Math. Comp. 1981):
    gcd(g, a^((p^d - 1)/2) - 1) for random a with deg a < deg g."""
    n = len(g) - 1
    if n == d:
        return [g]
    for _ in range(_EQUAL_DEGREE_DRAWS):
        a = _trim([rng.randrange(p) for _ in range(n)])
        u = _gp_gcd(g, _zp_sub(_gp_powmod(a, (p**d - 1) // 2, g, p), [1], p), p)
        if 0 < len(u) - 1 < n:
            return _equal_degree(u, d, p, rng) + _equal_degree(_zp_divmod_monic(g, u, p)[0], d, p, rng)
    raise SplitDrawsExhaustedError(f"equal-degree splitting mod {p} found no split in {_EQUAL_DEGREE_DRAWS} draws")


# -- Hensel lifting ---------------------------------------------------------


def _hensel_step(
    f: list[int], g: list[int], h: list[int], s: list[int], t: list[int], q: int
) -> tuple[list[int], list[int]]:
    """One quadratic lift of f = g h from mod q to mod q^2, for f, g, h
    monic and s g + t h = 1 mod q: the new g and h."""
    q2 = q * q
    fm = [c % q2 for c in f]
    e = _zp_sub(fm, _zp_mul(g, h, q2), q2)
    qq, rr = _zp_divmod_monic(_zp_mul(s, e, q2), h, q2)
    g_new = _zp_add(_zp_add(g, _zp_mul(t, e, q2), q2), _zp_mul(qq, g, q2), q2)
    h_new = _zp_add(h, rr, q2)
    if len(g_new) != len(g) or len(h_new) != len(h):
        raise PruferError("Hensel step changed a factor degree")
    return g_new, h_new


def _hensel_bezout_step(
    g: list[int], h: list[int], s: list[int], t: list[int], q2: int
) -> tuple[list[int], list[int]]:
    """Lift s g + t h = 1 to mod q2 = q^2, for g and h already lifted there
    and s, t given mod q."""
    b = _zp_sub(_zp_add(_zp_mul(s, g, q2), _zp_mul(t, h, q2), q2), [1], q2)
    cc, dd = _zp_divmod_monic(_zp_mul(s, b, q2), h, q2)
    return _zp_sub(s, dd, q2), _zp_sub(_zp_sub(t, _zp_mul(t, b, q2), q2), _zp_mul(cc, g, q2), q2)


def _hensel_lift_tree(f: list[int], factors: list[list[int]], p: int, target: int) -> list[list[int]]:
    """Lift a coprime monic factorization of f mod p to the first modulus
    p^(2^k) >= target.  ``f`` is monic with coefficients already reduced
    modulo that final modulus (or plain integers)."""
    if len(factors) == 1:
        final = p
        while final < target:
            final *= final
        return [_trim([c % final for c in f])]
    mid = len(factors) // 2
    left, right = factors[:mid], factors[mid:]
    g = [1]
    for u in left:
        g = _zp_mul(g, u, p)
    h = [1]
    for u in right:
        h = _zp_mul(h, u, p)
    one, s, t = _gp_xgcd(g, h, p)
    if one != [1]:
        raise PruferError("Hensel tree halves are not coprime")
    q = p
    while q < target:
        g, h = _hensel_step(f, g, h, s, t, q)
        q *= q
        # After the last step s and t are not needed again.
        if q < target:
            s, t = _hensel_bezout_step(g, h, s, t, q)
    return _hensel_lift_tree(g, left, p, target) + _hensel_lift_tree(h, right, p, target)


# -- integer polynomial helpers ---------------------------------------------


def _symmetric(c: int, m: int) -> int:
    c %= m
    return c - m if c > m // 2 else c


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
# Trial division and the search for a good prime stop below this bound.
_SMALL_PRIME_LIMIT = 100000
# Pollard-Brent iterations factor_int spends on one composite cofactor.
POLLARD_BUDGET = 500000


def is_probable_prime(n: int) -> bool:
    """Miller-Rabin on the first twelve prime bases: exact for n below about
    3.18 * 10^23, a probable-prime test above."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _pollard_brent(n: int, budget: int) -> int | None:
    """One nontrivial factor of composite odd n, or None once ``budget``
    iterations, counted over all the constants c tried, are spent."""
    count = 0
    for c in range(1, 20):
        y, m = 2, 128
        g, r, q = 1, 1, 1
        x = ys = y
        while g == 1 and count < budget:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * (x - y) % n
                g = gcd(q, n)
                k += m
            r *= 2
            count += r
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(x - ys, n)
                count += 1
                if count >= budget:
                    break
        if 1 < g < n:
            return g
        if count >= budget:
            return None
    return None


def factor_int(n: int) -> dict[int, int]:
    """Prime factorization of |n| as {prime: exponent}.

    Trial division by the primes below 10^5, then Pollard-Brent,
    POLLARD_BUDGET iterations a cofactor; raises DiscFactorizationError if a
    composite one survives.
    """
    n = abs(int(n))
    if n == 0:
        raise ZeroDivisionError("factoring zero")
    out: dict[int, int] = {}
    for p in _primes_below_limit():
        if p * p > n:
            break
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    if n == 1:
        return out
    stack = [n]
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if is_probable_prime(m):
            out[m] = out.get(m, 0) + 1
            continue
        d = _pollard_brent(m, POLLARD_BUDGET)
        if d is None:
            raise DiscFactorizationError(f"composite cofactor {m} resisted the budget")
        stack.append(d)
        stack.append(m // d)
    return out


@cache
def _primes_below_limit() -> tuple[int, ...]:
    """The primes below _SMALL_PRIME_LIMIT, sieved on first use so that
    importing the module does no work."""
    sieve = bytearray([1]) * _SMALL_PRIME_LIMIT
    sieve[:2] = b"\0\0"
    for i in range(2, isqrt(_SMALL_PRIME_LIMIT - 1) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytes(len(range(i * i, _SMALL_PRIME_LIMIT, i)))
    return tuple(compress(range(_SMALL_PRIME_LIMIT), sieve))


def _small_primes():
    """The odd primes below _SMALL_PRIME_LIMIT, in increasing order."""
    return islice(_primes_below_limit(), 1, None)


# poly_factor proves its input squarefree by a reduction mod one of the
# first _SQUAREFREE_PRIMES odd primes; only without one does it run Yun's
# algorithm.  Distinct-degree splittings at up to _DEGREE_PRIMES good primes
# bound the factor degrees, the primes after the first only when the first
# gives at least _MANY_FACTORS factors.
_SQUAREFREE_PRIMES = 20
_DEGREE_PRIMES = 3
_MANY_FACTORS = 3
# The primes below 100, at which poly_factor tries Eisenstein's criterion.
_EISENSTEIN_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97)


def _separable_mod(g: list[int], p: int) -> bool:
    """Whether a monic integer polynomial stays squarefree mod p."""
    return _gp_gcd(g, _gp_deriv(g, p), p) == [1]


def _degree_sums(split: list[tuple[int, list[int]]]) -> int:
    """The subset sums of the factor degrees of a distinct-degree splitting,
    as a bit mask: bit k is set when some product of factors has degree k."""
    sums = 1
    for d, g in split:
        for _ in range((len(g) - 1) // d):
            sums |= sums << d
    return sums


def _factor_count(split: list[tuple[int, list[int]]]) -> int:
    return sum((len(g) - 1) // d for d, g in split)


def _factor_squarefree_monic_int(g_coeffs: list[int], p: int, more_primes) -> list[list[int]]:
    """Irreducible monic integer factors of a monic squarefree integer poly
    of degree at least 2, with p and then ``more_primes`` the odd primes at
    which it stays squarefree, in increasing order."""
    n = len(g_coeffs) - 1
    # The degree of each factor over Q is a subset sum of the factor degrees
    # mod every good prime; only 0 and n left means G is irreducible.
    irreducible = 1 | 1 << n
    split = _distinct_degree(_gp_monic(g_coeffs, p), p)
    sums = _degree_sums(split)
    count = _factor_count(split)
    if count >= _MANY_FACTORS:
        for q in islice(more_primes, _DEGREE_PRIMES - 1):
            other = _distinct_degree(_gp_monic(g_coeffs, q), q)
            sums &= _degree_sums(other)
            if (fewer := _factor_count(other)) < count:
                p, split, count = q, other, fewer
            if sums == irreducible:
                break
    if sums == irreducible:
        return [list(g_coeffs)]
    rng = random.Random(p)
    modular = sorted(
        (u for d, g in split for u in _equal_degree(g, d, p, rng)),
        key=lambda u: (len(u), tuple(u)),
    )
    # The largest subset sum at most n/2 (step 5 of the module docstring).
    top = (sums & ((2 << n // 2) - 1)).bit_length() - 1
    norm2 = isqrt(sum(c * c for c in g_coeffs)) + 1
    bound = comb(top, top // 2) * norm2 + 1
    target = 2 * bound + 1
    final_mod = p
    while final_mod < target:
        final_mod *= final_mod
    lifted = _hensel_lift_tree(g_coeffs, modular, p, target)
    # Subset recombination against the remaining cofactor, for its side of
    # degree at most half its own, which the lift recovers.  The first
    # candidate that divides is irreducible: a smaller factor has a smaller
    # subset, tried first.  Candidates are monic, so division stays over Z;
    # degree and constant term are tested before the product is formed, and
    # the pool stays sorted by degree, so the sizes stop once the smallest
    # subset of the next size is too large.
    remaining = RationalPolynomial.from_int_coeffs(g_coeffs)
    pool = lifted
    found: list[list[int]] = []
    size = 1
    while size < len(pool):
        degrees = [len(u) - 1 for u in pool]
        half = remaining.degree // 2
        if sum(degrees[:size]) > half:
            break
        rest_low = remaining.integer_numerators[0]
        hit = False
        for combo in combinations(range(len(pool)), size):
            degree = sum(map(degrees.__getitem__, combo))
            if degree > half:
                continue
            low = 1
            for i in combo:
                low = low * pool[i][0] % final_mod
            low = _symmetric(low, final_mod)
            if (rest_low % low if low else rest_low) != 0:
                continue
            cand = [1]
            for i in combo:
                cand = _zp_mul(cand, pool[i], final_mod)
            cand = _trim([_symmetric(c, final_mod) for c in cand])
            quot, rem = divmod(remaining, RationalPolynomial.from_int_coeffs(cand))
            if not rem.is_zero:
                continue
            found.append(cand)
            remaining = quot
            pool = [u for i, u in enumerate(pool) if i not in combo]
            hit = True
            break
        if not hit:
            size += 1
    if remaining.degree > 0:
        found.append(list(remaining.integer_numerators))
    return found


def _factor_primitive(prim: Sequence[int], limit: int | None = None) -> list[RationalPolynomial] | None:
    """The monic irreducible factors over Q of a primitive integer polynomial
    P of degree at least 1 with positive leading coefficient, or None when
    its monic scaling G is squarefree modulo none of the first ``limit`` odd
    primes (by default, none below the trial-division bound).  One such
    prime proves P squarefree; a P that is not squarefree has none."""
    n = len(prim) - 1
    # Degree 1, or Eisenstein at a prime p below 100 (step 1 of the module
    # docstring): p divides the gcd of the coefficients below the leading
    # one and p^2 does not divide the constant term; p cannot divide the
    # leading one, since P is primitive.
    low = gcd(*prim[:-1])
    if n == 1 or low > 1 and any(low % p == 0 and prim[0] % (p * p) for p in _EISENSTEIN_PRIMES):
        return [RationalPolynomial.from_int_coeffs(prim).monic()]
    lead = prim[-1]
    # G(X) = lead^(n-1) * P(X/lead) is monic with integer coefficients, and
    # each factor g of G gives the factor g(lead * X) of P.
    g_coeffs = [c * lead ** (n - 1 - i) for i, c in enumerate(prim[:-1])] + [1]
    # G is monic, so it keeps its degree mod every p.
    odd = _small_primes()
    p = next((p for p in islice(odd, limit) if _separable_mod(g_coeffs, p)), None)
    if p is None:
        if limit is None:
            raise PruferError("no squarefree reduction prime found")
        return None
    factors = _factor_squarefree_monic_int(g_coeffs, p, (q for q in odd if _separable_mod(g_coeffs, q)))
    return [RationalPolynomial.from_int_coeffs([c * lead**i for i, c in enumerate(g)]).monic() for g in factors]


def poly_factor(f: RationalPolynomial) -> list[tuple[RationalPolynomial, int]]:
    """Factor f over Q into monic irreducibles with multiplicities.

    The factors are sorted by (degree, coefficient tuple) so the output is
    reproducible; f equals its leading coefficient times the product of
    factor^multiplicity.  Degree is capped at FACTOR_DEGREE_CAP, also for an
    f that Eisenstein's criterion at a prime below 100 proves irreducible,
    which is returned with no modular work.
    """
    check_factor_degree(f)
    if f.degree == 0:
        return []
    factors = _factor_primitive(f.content_and_primitive()[1], _SQUAREFREE_PRIMES)
    if factors is not None:
        out = [(g, 1) for g in factors]
    else:
        out = [
            (g, mult)
            for part, mult in squarefree_decomposition(f)
            for g in _factor_primitive(part.content_and_primitive()[1])
        ]
    out.sort(key=lambda pair: pair[0].sort_key())
    return out


def check_factor_degree(f: RationalPolynomial) -> None:
    """Raise unless ``poly_factor`` takes f: f nonzero, of degree at most
    FACTOR_DEGREE_CAP."""
    if f.is_zero:
        raise ZeroPolynomialError("cannot factor the zero polynomial")
    if f.degree > FACTOR_DEGREE_CAP:
        raise FactorDegreeError(f"degree {f.degree} exceeds the factorization cap {FACTOR_DEGREE_CAP}")


def _gp_radical(f: list[int], p: int) -> list[int]:
    """The product of the distinct irreducible factors of a monic f over F_p.
    s = f / gcd(f, f') takes those of multiplicity prime to p.  s^(deg f)
    holds each of them at least as often as f does and nothing else, so
    dividing f by gcd(f, s^(deg f)) removes them all in one step, and the
    rest is r(X^p) = r(X)^p."""
    df = _gp_deriv(f, p)
    if not df:
        return f if len(f) == 1 else _gp_radical(f[::p], p)
    s = _zp_divmod_monic(f, _gp_gcd(f, df, p), p)[0]
    f = _zp_divmod_monic(f, _gp_gcd(f, _gp_powmod(s, len(f) - 1, f, p), p), p)[0]
    return _zp_mul(s, _gp_radical(f, p), p)


def modp_degrees(coeffs: Sequence[int], p: int) -> list[tuple[int, int]]:
    """The sorted pairs (e, f), one for each monic irreducible factor of a
    monic integer polynomial mod p, of multiplicity e and degree f.

    Nothing is split past distinct degrees.  At multiplicity e, the radical
    r of what remains holds the factors of multiplicity >= e; dividing r out
    leaves the higher multiplicities, and r / gcd(r, rest) is the product of
    the factors of multiplicity exactly e.  The radical is squarefree even
    where the polynomial is inseparable, so this is safe at every p, and the
    cost is polynomial in log p.
    """
    rest = _gp_monic(list(coeffs), p)
    if not rest:
        raise ZeroPolynomialError("mod-p factorization of the zero polynomial")
    out = []
    e = 0
    while len(rest) > 1:
        e += 1
        r = _gp_radical(rest, p)
        rest = _zp_divmod_monic(rest, r, p)[0]
        exact = _zp_divmod_monic(r, _gp_gcd(r, rest, p), p)[0]
        out.extend((e, d) for d, g in _distinct_degree(exact, p) for _ in range((len(g) - 1) // d))
    return sorted(out)


def dedekind_p_maximal(mu: RationalPolynomial, p: int) -> bool:
    """Dedekind's criterion (Cohen, GTM 138, Thm 6.1.4): is Z[X]/(mu) p-maximal,
    for mu monic with integer coefficients and p prime?  With g the product of
    the distinct irreducible factors of mu mod p and h = mu / g, lifted to
    Z[X], exactly when gcd(F, h) = 1 mod p for F = (g h - mu) / p; every
    factor of h divides g.  Nothing is split, so the cost does not grow with p.
    """
    f = list(mu.integer_numerators)
    g = _gp_radical(_trim([c % p for c in f]), p)
    h = _zp_divmod_monic(f, g, p)[0]
    big_f = [c // p for c in _zp_sub(_zp_mul(g, h, p * p), f, p * p)]
    return len(_gp_gcd(big_f, h, p)) == 1
