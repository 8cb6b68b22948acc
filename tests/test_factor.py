import random
from fractions import Fraction
from math import comb, gcd

import pytest
from hypothesis import given, strategies as st

import prufer.factor
from prufer.errors import DiscFactorizationError, FactorDegreeError, ZeroPolynomialError
from prufer.factor import (
    _gp_deriv,
    _gp_divmod,
    _gp_gcd,
    _gp_monic,
    _gp_powmod,
    _gp_radical,
    _gp_rem,
    _pollard_brent,
    _zp_mul,
    dedekind_p_maximal,
    factor_int,
    is_probable_prime,
    modp_degrees,
    poly_factor,
)
from prufer.poly import RationalPolynomial


def P(*coeffs):
    return RationalPolynomial(coeffs)


def test_factor_difference_of_squares():
    assert poly_factor(P(-1, 0, 1)) == [(P(-1, 1), 1), (P(1, 1), 1)]


def test_factor_x4_minus_1():
    fs = poly_factor(P(-1, 0, 0, 0, 1))
    assert fs == [(P(-1, 1), 1), (P(1, 1), 1), (P(1, 0, 1), 1)]


def test_factor_irreducible_quadratic():
    f = P(-1, -1, 1)  # X^2 - X - 1
    assert poly_factor(f) == [(f, 1)]


def test_factor_with_multiplicity():
    f = P(1, 0, 1) ** 2 * P(-3, 1)
    assert poly_factor(f) == [(P(-3, 1), 1), (P(1, 0, 1), 2)]


def test_factor_handles_leading_coefficient():
    f = 6 * P(-1, 1) * P(1, 1)
    fs = poly_factor(f)
    assert fs == [(P(-1, 1), 1), (P(1, 1), 1)]
    prod = RationalPolynomial([f.leading_coefficient])
    for g, m in fs:
        prod = prod * g ** m
    assert prod == f


def test_factor_cyclotomic_nine():
    f = P(1, 0, 0, 1, 0, 0, 1)  # X^6 + X^3 + 1, irreducible
    assert poly_factor(f) == [(f, 1)]


def test_factor_needs_recombination():
    # (X^2 - 2)(X^2 - 3): splits into four linear factors mod many p,
    # the recombination step must merge them back into two quadratics
    f = P(-2, 0, 1) * P(-3, 0, 1)
    assert poly_factor(f) == [(P(-3, 0, 1), 1), (P(-2, 0, 1), 1)]


def test_factor_rational_coefficients():
    f = P(Fraction(-1, 4), 0, 1)  # (X - 1/2)(X + 1/2)
    assert poly_factor(f) == [(P(Fraction(-1, 2), 1), 1), (P(Fraction(1, 2), 1), 1)]


def test_factor_degree_cap():
    coeffs = [-2] + [0] * 32 + [1]  # X^33 - 2
    with pytest.raises(FactorDegreeError):
        poly_factor(RationalPolynomial(coeffs))


def test_factor_zero():
    with pytest.raises(ZeroPolynomialError):
        poly_factor(RationalPolynomial.zero_poly)


def test_is_probable_prime():
    def by_trial_division(n):
        return n >= 2 and all(n % d for d in range(2, int(n**0.5) + 1))

    assert [n for n in range(3000) if is_probable_prime(n)] == [n for n in range(3000) if by_trial_division(n)]
    assert is_probable_prime(1000000007) and is_probable_prime(2**61 - 1)
    # Carmichael numbers and a strong pseudoprime to bases 2, 3, 5 and 7.
    assert not any(is_probable_prime(n) for n in (561, 41041, 3215031751, 1000003 * 3000017))


def test_modp_factor_square():
    # X^2 + 1 = (X + 1)^2 mod 2
    assert modp_degrees((1, 0, 1), 2) == [(2, 1)]


def test_modp_factor_split():
    # X^2 + 1 = (X + 2)(X + 3) mod 5
    assert modp_degrees((1, 0, 1), 5) == [(1, 1), (1, 1)]


def test_modp_factor_inert():
    # X^2 + 1 irreducible mod 3
    assert modp_degrees((1, 0, 1), 3) == [(1, 2)]


def test_modp_factor_inseparable():
    assert modp_degrees((0, 0, 1), 2) == [(2, 1)]


@given(
    st.sampled_from((2, 3, 5, 7, 101)),
    st.lists(st.integers(-100, 100), min_size=1, max_size=6),
    st.lists(st.integers(-100, 100), max_size=8),
)
def test_gp_powmod_is_repeated_multiplication(p, low, a):
    f = [c % p for c in low] + [1]
    product = _gp_rem(a, f, p)
    for e in range(1, 71):
        assert _gp_powmod(a, e, f, p) == product
        product = _gp_rem(_zp_mul(product, a, p), f, p)


X12_MINUS_2 = (-2,) + (0,) * 11 + (1,)


@pytest.mark.parametrize(
    "p, pairs",
    [
        (1000003, [(1, 6), (1, 6)]),
        (5140373041, [(1, 3)] * 4),
        (10**18 + 9, [(1, 3)] * 4),
    ],
)
def test_modp_degrees_large_primes(p, pairs):
    # Splitting over F_p by walking its elements would take time linear in p.
    assert modp_degrees(X12_MINUS_2, p) == pairs


def test_modp_degrees_mixed_multiplicities():
    # (X + 1)^3 (X^2 + X + 1)^2 X (X^2 + 1) mod 3, where X^2 + 1 is inert
    # and X^2 + X + 1 = (X - 1)^2.
    f = P(1, 1) ** 3 * P(1, 1, 1) ** 2 * P(0, 1) * P(1, 0, 1)
    assert modp_degrees(f.integer_numerators, 3) == [(1, 1), (1, 2), (3, 1), (4, 1)]


@st.composite
def monic_products(draw):
    pool = [P(-1, 1), P(1, 1), P(-2, 1), P(2, 1), P(1, 0, 1), P(-1, -1, 1), P(3, 0, 1)]
    picks = draw(st.lists(st.sampled_from(range(len(pool))), min_size=1, max_size=4))
    f = RationalPolynomial.one_poly
    for i in picks:
        f = f * pool[i]
    return f


@given(monic_products())
def test_factor_round_trip(f):
    prod = RationalPolynomial([f.leading_coefficient])
    for g, m in poly_factor(f):
        assert g.is_monic
        assert m >= 1
        prod = prod * g ** m
    assert prod == f


@given(monic_products())
def test_factors_are_sorted_and_irreducible(f):
    fs = poly_factor(f)
    keys = [g.sort_key() for g, _ in fs]
    assert keys == sorted(keys)
    for g, _ in fs:
        # irreducible means factoring again returns the factor itself
        assert poly_factor(g) == [(g, 1)]


def _pollard_brent_with_abs(n, budget):
    """The Pollard-Brent loop as it was first written, on |x - y|."""
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
                    q = q * abs(x - y) % n
                g = gcd(q, n)
                k += m
            r *= 2
            count += r
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(abs(x - ys), n)
                count += 1
                if count >= budget:
                    break
        if 1 < g < n:
            return g
        if count >= budget:
            return None
    return None


def _random_prime(rng, lo, hi):
    n = rng.randrange(lo, hi) | 1
    while not is_probable_prime(n):
        n += 2
    return n


def test_pollard_brent_without_abs_matches_the_abs_loop():
    # q changes only by sign mod n, so every gcd, and so every factor found
    # and every budget refusal, is the same.
    rng = random.Random(14)
    cases = []
    for _ in range(40):
        bits = rng.randint(8, 28)
        n = 1
        for _ in range(rng.randint(2, 3)):
            n *= _random_prime(rng, 2 ** (bits - 1), 2**bits)
        cases.append((n, rng.choice([20, 200, 100000])))
    # The shape of the benchmark's refusal: Z[sqrt(pq)] with p, q near 10^18.
    semiprime = _random_prime(rng, 10**18, 2 * 10**18) * _random_prime(rng, 10**18, 2 * 10**18)
    cases.append((semiprime, 3000))
    results = [_pollard_brent(n, budget) for n, budget in cases]
    assert results == [_pollard_brent_with_abs(n, budget) for n, budget in cases]
    assert None in results and any(results)


def _factor_int_over_every_integer(n):
    """``factor_int`` as it was when its trial division walked every integer
    below 10^5, composites included."""
    n = abs(n)
    out = {}
    for p in range(2, 100000):
        if p * p > n:
            break
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    stack = [n]
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if is_probable_prime(m):
            out[m] = out.get(m, 0) + 1
            continue
        d = _pollard_brent(m, prufer.factor.POLLARD_BUDGET)
        if d is None:
            raise DiscFactorizationError(f"composite cofactor {m} resisted the budget")
        stack.append(d)
        stack.append(m // d)
    return out


def test_factor_int_over_primes_matches_every_integer(monkeypatch):
    # Same factors, same exponents, in the same insertion order.
    rng = random.Random(26)
    cases = list(range(-60, 0)) + list(range(1, 200))
    for _ in range(60):
        n = rng.choice([1, -1])
        for _ in range(rng.randint(1, 5)):
            n *= _random_prime(rng, 2, rng.choice([100, 10**4, 10**5, 10**7])) ** rng.randint(1, 4)
        cases.append(n)
    # |disc| of Z[2^(1/n)], n = 2..12, and the discriminant of Z[sqrt(-420 * 7^2)].
    cases += [n**n * 2 ** (n - 1) for n in range(2, 13)] + [-4 * 420 * 49]
    # 4pq as in the benchmark's refusal: p, q near 10^6 factor; near 10^18
    # both walks reach Pollard-Brent and refuse under a small budget.
    cases.append(4 * _random_prime(rng, 10**6, 2 * 10**6) * _random_prime(rng, 10**6, 2 * 10**6))
    for n in cases:
        assert list(factor_int(n).items()) == list(_factor_int_over_every_integer(n).items()), n
    monkeypatch.setattr(prufer.factor, "POLLARD_BUDGET", 2000)
    semiprime = 4 * _random_prime(rng, 10**18, 2 * 10**18) * _random_prime(rng, 10**18, 2 * 10**18)
    for walk in (factor_int, _factor_int_over_every_integer):
        with pytest.raises(DiscFactorizationError):
            walk(semiprime)


@pytest.mark.parametrize(
    "f",
    [P(-2, *[0] * 11, 1), P(108, *[0] * 5, 1), P(-72, *[0] * 11, 1)],
    ids=["x12-2", "x6+108", "x12-72"],
)
def test_degree_patterns_prove_irreducible_without_lifting(calls_to, f):
    # Mod 5 and mod 7, X^12 - 2 and X^12 - 72 have factors of degrees 4, 4, 4
    # and 3, 3, 6, and X^6 + 108 of degrees 2, 2, 2 and 3, 3: no degree
    # strictly between 0 and n is a sum of factor degrees at both primes, so
    # none has a proper factor over Q.  X^12 - 2 is Eisenstein at 2 and is
    # proven before the patterns; 72 = 2^3 * 3^2 keeps X^12 - 72 from being
    # Eisenstein, so it takes the patterns.
    lifts = calls_to(prufer.factor, "_hensel_lift_tree")
    assert poly_factor(f) == [(f, 1)]
    assert lifts == []


@pytest.mark.parametrize(("n", "a"), [(7, -2), (11, -2), (11, -4)], ids=["7", "11", "x11-4"])
def test_x_to_the_n_minus_2_lifts_one_step(calls_to, n, a):
    # X^7 - 2 splits as 1 + 6 mod 3 and X^11 - 4 as 1 + 10 mod 7, so the
    # lift need only recover a linear factor, whose coefficients are at most
    # the 2-norm sqrt(17) of X^11 - 4; p^2 already clears twice that bound.
    # X^n - 2 is Eisenstein at 2 and is proven with no lift at all; X^11 - 4
    # is not Eisenstein at 2, as 4 = 2^2, and lifts.
    steps = calls_to(prufer.factor, "_hensel_step")
    f = P(a, *[0] * (n - 1), 1)
    assert poly_factor(f) == [(f, 1)]
    assert len(steps) <= 1


@pytest.mark.parametrize(
    "f",
    [P(-2, *[0] * (n - 1), 1) for n in range(3, 13)] + [P(-3, *[0] * 8, 1), P(-162, *[0] * 7, 1)],
    ids=[f"x{n}-2" for n in range(3, 13)] + ["x9-3", "x8-162"],
)
def test_eisenstein_polynomials_need_no_modular_work(calls_to, f):
    # X^n - 2 and X^9 - 3 are Eisenstein at 2 and 3, and X^8 - 162 at 2, as
    # 162 = 2 * 3^4: none is reduced mod any prime.
    separable = calls_to(prufer.factor, "_separable_mod")
    splits = calls_to(prufer.factor, "_distinct_degree")
    assert poly_factor(f) == [(f, 1)]
    assert separable == [] and splits == []


def test_irreducible_without_a_proving_pattern_still_lifts(calls_to):
    # X^4 + 1 has Galois group (Z/2)^2, so mod every odd prime its factors
    # have degree at most 2: only lifting and recombination prove it.
    lifts = calls_to(prufer.factor, "_hensel_lift_tree")
    f = P(1, 0, 0, 0, 1)
    assert poly_factor(f) == [(f, 1)]
    assert lifts


@pytest.mark.parametrize(("n", "target"), [(4, 11), (8, 27), (16, 283)])
def test_lift_target_is_the_landau_mignotte_bound(calls_to, n, target):
    # X^n + 1 is cyclotomic of 2-power order, so mod every odd prime it
    # splits into factors of degree at most n/2, and top = n/2 is a subset
    # sum.  A factor of degree top has coefficients below
    # B = C(top, top/2) * (floor(||f||_2) + 1) + 1 (Landau-Mignotte), here
    # with floor(sqrt(2)) + 1 = 2, and the lift's target is 2B + 1, so that
    # symmetric residues recover them.  The modulus p^(2^k) overshoots the
    # target on these inputs, so no output shows a smaller bound; the
    # target itself does.
    top = n // 2
    assert target == 2 * comb(top, top // 2) * 2 + 3
    targets = calls_to(prufer.factor, "_hensel_lift_tree", lambda f, factors, p, target: target)
    f = P(1, *[0] * (n - 1), 1)
    assert poly_factor(f) == [(f, 1)]
    assert targets and set(targets) == {target}


def test_recombination_divisions(monkeypatch):
    # The minimal polynomial of the primitive element found on
    # Z[i] x Z[2^(1/3)] x Z[3^(1/4)].  Recombination skips a subset whose
    # degree no prime allows or whose constant term does not divide that of
    # the cofactor, and makes 2 exact divisions here.  Before it did, it made
    # 6, and Yun's algorithm, which a squarefree reduction mod 7 now
    # replaces, 13 more.
    factors = [P(1, 0, 1), P(-2, 0, 0, 1), P(-3, 0, 0, 0, 1)]
    mu = factors[0] * factors[1] * factors[2]
    divisions = []
    exact = RationalPolynomial.__divmod__

    def counting(a, b):
        divisions.append(b)
        return exact(a, b)

    monkeypatch.setattr(RationalPolynomial, "__divmod__", counting)
    assert poly_factor(mu) == [(g, 1) for g in factors]
    assert len(divisions) == 2


def _radical_by_peeling(f, p):
    """``_gp_radical`` as it was first written: one multiplicity of the
    factors prime to p divided out per gcd."""
    df = _gp_deriv(f, p)
    if not df:
        return f if len(f) == 1 else _radical_by_peeling(f[::p], p)
    s = _gp_divmod(f, _gp_gcd(f, df, p), p)[0]
    while len(g := _gp_gcd(f, s, p)) > 1:
        f = _gp_divmod(f, g, p)[0]
    return _zp_mul(s, _radical_by_peeling(f, p), p)


def _seeded_monic(rng, p):
    """A monic integer polynomial of degree at most 30 that is a product of
    small monic factors, some raised to a power of at least p and some in X^p."""
    f = P(1)
    for _ in range(rng.randint(1, 3)):
        g = P(*[rng.randint(-4, 4) for _ in range(rng.randint(1, 3))], 1)
        if rng.random() < 0.3:
            spread = [0] * (g.degree * p + 1)
            spread[::p] = g.integer_numerators
            g = RationalPolynomial(spread)
        m = rng.choice([1, 1, 2, p, p + 1])
        if f.degree + g.degree * m <= 30:
            f = f * g**m
    return f


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_radical_matches_peeling(monkeypatch, p):
    rng = random.Random(p)
    cases = [_seeded_monic(rng, p) for _ in range(40)]
    radicals = [_gp_radical(_gp_monic(list(f.integer_numerators), p), p) for f in cases]
    verdicts = [dedekind_p_maximal(f, p) for f in cases]
    degrees = [modp_degrees(f.integer_numerators, p) for f in cases]
    # Some factor mod p has a multiplicity divisible by p, where the radical
    # recurses on the p-th root, and Dedekind's criterion goes both ways.
    assert any(e % p == 0 for pairs in degrees for e, _ in pairs)
    assert True in verdicts and False in verdicts
    monkeypatch.setattr(prufer.factor, "_gp_radical", _radical_by_peeling)
    assert radicals == [_radical_by_peeling(_gp_monic(list(f.integer_numerators), p), p) for f in cases]
    assert verdicts == [dedekind_p_maximal(f, p) for f in cases]
    assert degrees == [modp_degrees(f.integer_numerators, p) for f in cases]


def test_radical_gcds_do_not_grow_with_multiplicity(calls_to):
    # X^n - 2 = X^n mod 2: peeling took one gcd per multiplicity, n + 2 in
    # all; one gcd with X^n removes them together.
    gcds = calls_to(prufer.factor, "_gp_gcd")
    counts = []
    for n in (7, 11, 31):
        gcds.clear()
        assert _gp_radical(_gp_monic([-2, *[0] * (n - 1), 1], 2), 2) == [0, 1]
        counts.append(len(gcds))
    assert counts == [counts[0]] * 3 and counts[0] <= 2
