"""Factorization of univariate polynomials over Q, from scratch.

Pipeline for a squarefree primitive integer polynomial F:

1. scale to a monic integer polynomial G(X) = l^(n-1) * F(X/l), l = lc(F);
2. pick a small odd prime p where G stays squarefree mod p;
3. Berlekamp over F_p with exhaustive gcd splitting (deterministic);
4. quadratic Hensel lifting of the factor tree until the modulus clears
   twice the Landau-Mignotte coefficient bound;
5. subset recombination, each monic candidate tested by exact division;
6. map factors of G back to factors of F as g(l*X), made monic by the caller.

Polynomials are dense lists of ints, ascending powers; the exact division
of step 5 is ``RationalPolynomial``'s.  The degree cap keeps
the subset stage honest; inputs here are minimal polynomials of elements of
small orders, so the cap is generous.

The module is also the package's one home for primes and integer
factorization: ``is_probable_prime`` and ``factor_int`` (trial division,
then Pollard-Brent under a work budget), which factors discriminants.
``dedekind_p_maximal`` is Dedekind's criterion, by gcds over F_p.
"""

from __future__ import annotations

from itertools import combinations
from math import comb, gcd, isqrt
from typing import Sequence

from .errors import DiscFactorizationError, FactorDegreeError, PruferError, ZeroPolynomialError
from .linalg import modp_left_kernel
from .poly import RationalPolynomial, squarefree_decomposition

FACTOR_DEGREE_CAP = 32


# -- arithmetic in (Z/m)[x], dense ascending coefficient lists --------------


def _trim(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def _zp_add(a: list[int], b: list[int], m: int) -> list[int]:
    n = max(len(a), len(b))
    out = [0] * n
    for i, c in enumerate(a):
        out[i] = c
    for i, c in enumerate(b):
        out[i] = (out[i] + c) % m
    for i in range(len(b), n):
        out[i] %= m
    return _trim(out)


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
    for k in range(len(a) - db - 1, -1, -1):
        c = a[k + db] % m
        quot[k] = c
        if c:
            for j in range(db + 1):
                a[k + j] = (a[k + j] - c * b[j]) % m
    return _trim(quot), _trim(a[:db])


def _gp_monic(a: list[int], p: int) -> list[int]:
    a = _trim([c % p for c in a])
    if not a:
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


def _gp_gcd(a: list[int], b: list[int], p: int) -> list[int]:
    a = _trim([c % p for c in a])
    b = _trim([c % p for c in b])
    while b:
        a, b = b, _gp_divmod(a, b, p)[1]
    return _gp_monic(a, p)


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


def _gp_mulmod(a: list[int], b: list[int], f: list[int], p: int) -> list[int]:
    return _gp_divmod(_zp_mul(a, b, p), f, p)[1]


def _gp_powmod(a: list[int], e: int, f: list[int], p: int) -> list[int]:
    result = [1]
    base = _gp_divmod(a, f, p)[1]
    while e:
        if e & 1:
            result = _gp_mulmod(result, base, f, p)
        base = _gp_mulmod(base, base, f, p)
        e >>= 1
    return result


def _gp_deriv(a: list[int], p: int) -> list[int]:
    return _trim([(i * c) % p for i, c in enumerate(a)][1:])


def _berlekamp(f: list[int], p: int) -> list[list[int]]:
    """Monic irreducible factors of a monic squarefree f over F_p."""
    n = len(f) - 1
    if n <= 1:
        return [f]
    xp = _gp_powmod([0, 1], p, f, p)
    rows = []
    cur = [1]
    for _ in range(n):
        rows.append(list(cur) + [0] * (n - len(cur)))
        cur = _gp_mulmod(cur, xp, f, p)
    frobenius = [[(rows[i][j] - (1 if i == j else 0)) % p for j in range(n)] for i in range(n)]
    kernel = modp_left_kernel(frobenius, p)
    r = len(kernel)
    if r == 1:
        return [f]
    factors = [f]
    for v in kernel:
        if len(factors) == r:
            break
        vpoly = _trim(list(v))
        if len(vpoly) <= 1:
            continue
        for s in range(p):
            if len(factors) == r:
                break
            vs = list(vpoly)
            vs[0] = (vs[0] - s) % p
            vs = _trim(vs)
            refined = []
            for u in factors:
                if len(u) - 1 <= 1:
                    refined.append(u)
                    continue
                g = _gp_gcd(u, vs, p)
                if 0 < len(g) - 1 < len(u) - 1:
                    refined.append(g)
                    refined.append(_gp_divmod(u, g, p)[0])
                else:
                    refined.append(u)
            factors = refined
    if len(factors) != r:
        raise PruferError("Berlekamp splitting did not reach the factor count")
    return sorted((_gp_monic(u, p) for u in factors), key=lambda u: (len(u), tuple(u)))


# -- Hensel lifting ---------------------------------------------------------


def _hensel_step(
    f: list[int], g: list[int], h: list[int], s: list[int], t: list[int], q: int
) -> tuple[list[int], list[int], list[int], list[int]]:
    """One quadratic lift: from (mod q) data to (mod q^2); f, g, h monic."""
    q2 = q * q
    fm = [c % q2 for c in f]
    e = _zp_sub(fm, _zp_mul(g, h, q2), q2)
    qq, rr = _zp_divmod_monic(_zp_mul(s, e, q2), h, q2)
    g_new = _zp_add(_zp_add(g, _zp_mul(t, e, q2), q2), _zp_mul(qq, g, q2), q2)
    h_new = _zp_add(h, rr, q2)
    if len(g_new) != len(g) or len(h_new) != len(h):
        raise PruferError("Hensel step changed a factor degree")
    b = _zp_sub(_zp_add(_zp_mul(s, g_new, q2), _zp_mul(t, h_new, q2), q2), [1], q2)
    cc, dd = _zp_divmod_monic(_zp_mul(s, b, q2), h_new, q2)
    s_new = _zp_sub(s, dd, q2)
    t_new = _zp_sub(_zp_sub(t, _zp_mul(t, b, q2), q2), _zp_mul(cc, g_new, q2), q2)
    return g_new, h_new, s_new, t_new


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
        g, h, s, t = _hensel_step(f, g, h, s, t, q)
        q *= q
    return _hensel_lift_tree(g, left, p, target) + _hensel_lift_tree(h, right, p, target)


# -- integer polynomial helpers ---------------------------------------------


def _symmetric(c: int, m: int) -> int:
    c %= m
    return c - m if c > m // 2 else c


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
# Trial division and the search for a good prime stop below this bound.
_SMALL_PRIME_LIMIT = 100000


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


def factor_int(n: int, budget: int = 500000) -> dict[int, int]:
    """Prime factorization of |n| as {prime: exponent}.

    Trial division below 10^5, then Pollard-Brent with a work budget; raises
    DiscFactorizationError if a composite cofactor survives.
    """
    n = abs(int(n))
    if n == 0:
        raise ZeroDivisionError("factoring zero")
    out: dict[int, int] = {}
    for p in range(2, _SMALL_PRIME_LIMIT):
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
        d = _pollard_brent(m, budget)
        if d is None:
            raise DiscFactorizationError(f"composite cofactor {m} resisted the budget")
        stack.append(d)
        stack.append(m // d)
    return out


def _small_primes():
    return (n for n in range(3, _SMALL_PRIME_LIMIT, 2) if is_probable_prime(n))


def _factor_squarefree_monic_int(g_coeffs: list[int]) -> list[list[int]]:
    """Irreducible monic integer factors of a monic squarefree integer poly."""
    n = len(g_coeffs) - 1
    if n <= 1:
        return [list(g_coeffs)]
    chosen = None
    for p in _small_primes():
        gp = _trim([c % p for c in g_coeffs])
        if len(gp) - 1 != n:
            continue
        if len(_gp_gcd(gp, _gp_deriv(gp, p), p)) - 1 == 0:
            chosen = p
            break
    if chosen is None:
        raise PruferError("no squarefree reduction prime found")
    p = chosen
    modular = _berlekamp(_gp_monic([c % p for c in g_coeffs], p), p)
    if len(modular) == 1:
        return [list(g_coeffs)]
    norm2 = isqrt(sum(c * c for c in g_coeffs)) + 1
    bound = comb(n, n // 2) * norm2 + 1
    target = 2 * bound + 1
    final_mod = p
    while final_mod < target:
        final_mod *= final_mod
    lifted = _hensel_lift_tree(g_coeffs, modular, p, target)
    # Subset recombination against the remaining cofactor.  Each candidate
    # is monic, so division by it stays over Z and is exact when it divides.
    remaining = RationalPolynomial.from_int_coeffs(g_coeffs)
    pool = lifted
    found: list[list[int]] = []
    size = 1
    while 2 * size <= len(pool):
        hit = False
        for combo in combinations(range(len(pool)), size):
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


def _factor_squarefree_int(f_coeffs: list[int]) -> list[list[int]]:
    """Irreducible factors over Q of a squarefree integer polynomial with
    positive leading coefficient, each as an integer coefficient list known
    only up to a scalar; ``poly_factor`` makes them monic."""
    n = len(f_coeffs) - 1
    if n <= 1:
        return [list(f_coeffs)]
    lead = f_coeffs[-1]
    # G(X) = lead^(n-1) * F(X/lead) is monic with integer coefficients, and
    # each factor g of G gives the factor g(lead * X) of F.
    g_coeffs = [c * lead ** (n - 1 - i) for i, c in enumerate(f_coeffs[:-1])] + [1]
    return [[c * lead**i for i, c in enumerate(g)] for g in _factor_squarefree_monic_int(g_coeffs)]


def poly_factor(f: RationalPolynomial) -> list[tuple[RationalPolynomial, int]]:
    """Factor f over Q into monic irreducibles with multiplicities.

    The factors are sorted by (degree, coefficient tuple) so the output is
    reproducible; f equals its leading coefficient times the product of
    factor^multiplicity.  Degree is capped at FACTOR_DEGREE_CAP.
    """
    if f.is_zero:
        raise ZeroPolynomialError("cannot factor the zero polynomial")
    if f.degree > FACTOR_DEGREE_CAP:
        raise FactorDegreeError(f"degree {f.degree} exceeds the factorization cap {FACTOR_DEGREE_CAP}")
    out: list[tuple[RationalPolynomial, int]] = []
    for part, mult in squarefree_decomposition(f):
        _, prim = part.content_and_primitive()
        for coeffs in _factor_squarefree_int(list(prim)):
            out.append((RationalPolynomial.from_int_coeffs(coeffs).monic(), mult))
    out.sort(key=lambda pair: pair[0].sort_key())
    return out


def _gp_radical(f: list[int], p: int) -> list[int]:
    """The product of the distinct irreducible factors of a monic f over F_p:
    f / gcd(f, f') takes those of multiplicity prime to p, and once they are
    divided out the rest is r(X^p) = r(X)^p."""
    df = _gp_deriv(f, p)
    if not df:
        return f if len(f) == 1 else _gp_radical(f[::p], p)
    s = _gp_divmod(f, _gp_gcd(f, df, p), p)[0]
    while len(g := _gp_gcd(f, s, p)) > 1:
        f = _gp_divmod(f, g, p)[0]
    return _zp_mul(s, _gp_radical(f, p), p)


def modp_factor(coeffs: Sequence[int], p: int) -> list[tuple[tuple[int, ...], int]]:
    """Factor a monic integer polynomial mod p into monic irreducibles with
    multiplicities, sorted by (degree, coefficient tuple).

    Berlekamp splits the radical, which is squarefree even where f is
    inseparable, so it is safe at ramified primes; each multiplicity is
    counted by division.
    """
    f = _gp_monic([c % p for c in coeffs], p)
    if not f:
        raise ZeroPolynomialError("mod-p factorization of the zero polynomial")
    out = []
    for fac in _berlekamp(_gp_radical(f, p), p) if len(f) > 1 else []:
        e, (quot, rem) = 0, _gp_divmod(f, fac, p)
        while not rem:
            e += 1
            quot, rem = _gp_divmod(quot, fac, p)
        out.append((tuple(fac), e))
    return out


def dedekind_p_maximal(mu: RationalPolynomial, p: int) -> bool:
    """Dedekind's criterion (Cohen, GTM 138, Thm 6.1.4): is Z[X]/(mu) p-maximal,
    for mu monic with integer coefficients and p prime?  With g the product of
    the distinct irreducible factors of mu mod p and h = mu / g, lifted to
    Z[X], exactly when gcd(F, h) = 1 mod p for F = (g h - mu) / p; every
    factor of h divides g.  Nothing is split, so the cost does not grow with p.
    """
    f = list(mu.integer_numerators)
    g = _gp_radical(_trim([c % p for c in f]), p)
    h = _gp_divmod(f, g, p)[0]
    big_f = [c // p for c in _zp_sub(_zp_mul(g, h, p * p), f, p * p)]
    return len(_gp_gcd(big_f, h, p)) == 1
