"""Cross-checks of the factorisers against sympy, an independent implementation.

sympy is a test-only dependency; without it the module is skipped.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, strategies as st

import prufer.factor
from prufer.factor import _distinct_degree, _equal_degree, _gp_monic, factor_int, modp_degrees, poly_factor
from prufer.poly import RationalPolynomial

sympy = pytest.importorskip("sympy")
X = sympy.Symbol("x")

monic = st.lists(st.integers(-30, 30), min_size=0, max_size=8).map(lambda c: tuple(c) + (1,))


def sympy_modp_factors(coeffs, p):
    """[(ascending monic coefficients mod p, multiplicity)] from sympy."""
    poly = sympy.Poly(list(reversed(coeffs)), X, modulus=p)
    _, factors = poly.factor_list()
    return [(tuple(int(c) % p for c in reversed(g.all_coeffs())), m) for g, m in factors]


@given(monic, st.sampled_from([2, 3, 5, 7, 11, 13, 101]))
def test_modp_degrees_matches_sympy(coeffs, p):
    expected = sorted((m, len(g) - 1) for g, m in sympy_modp_factors(coeffs, p))
    assert modp_degrees(coeffs, p) == expected


@given(monic, st.sampled_from([3, 5, 7, 11, 13, 101]))
def test_squarefree_split_matches_sympy(coeffs, p):
    expected = sympy_modp_factors(coeffs, p)
    assume(all(m == 1 for _, m in expected))
    rng = random.Random(p)
    split = [u for d, g in _distinct_degree(_gp_monic(list(coeffs), p), p) for u in _equal_degree(g, d, p, rng)]
    assert sorted(tuple(u) for u in split) == sorted(g for g, _ in expected)


# A factor is (coefficients below the top, leading coefficient, multiplicity).
random_factor = st.tuples(st.lists(st.integers(-9, 9), min_size=1, max_size=6), st.integers(1, 3), st.integers(1, 3))
scale = st.tuples(st.integers(1, 12).map(lambda k: k * (-1) ** k), st.integers(1, 12))


def _monic(*lower):
    return (list(lower), 1, 1)


def _radical(n, a):
    return _monic(a, *[0] * (n - 1))


# Irreducible over Q: X^n - 2 and X^n + 3 by Eisenstein's criterion, X^4 + 1,
# X^8 + 1 and X^16 + 1 as cyclotomic polynomials, X^4 - 10X^2 + 1 and the
# Swinnerton-Dyer polynomial of sqrt2 + sqrt3 + sqrt5 + sqrt7 as minimal
# polynomials of primitive elements of multiquadratic fields, and X^6 + 108.
# None of the last six is irreducible mod any prime.
X4_PLUS_1 = _monic(1, 0, 0, 0)
X8_PLUS_1 = _monic(1, *[0] * 7)
X16_PLUS_1 = _monic(1, *[0] * 15)
SD2 = _monic(1, 0, -10, 0)
X6_PLUS_108 = _radical(6, 108)
# Irreducible mod 3, where X^4 + 1 is a product of two quadratics.
X5_MINUS_X_MINUS_1 = _monic(-1, -1, 0, 0, 0)
SD4 = _monic(46225, 0, -5596840, 0, 13950764, 0, -7453176, 0, 1513334, 0, -141912, 0, 6476, 0, -136, 0)
# Near-misses of Eisenstein's criterion.  X^4 + 4 = (X^2 + 2X + 2)(X^2 - 2X + 2)
# and X^2 - 4 fail it at 2 only because 4 divides the constant term;
# X^2 + 3X + 2 = (X + 1)(X + 2) fails it only because 2 does not divide 3;
# X^2 + 6X + 8 = (X + 2)(X + 4) fails both ways, and X^6 + 108, above, fails
# at 2 and at 3, as 4 and 9 divide 108.  3X^2 + 2X + 2 is Eisenstein
# at 2 but not monic; with X replaced by X/3, X/2 and 2X it becomes
# X^2 + 2X + 6, Eisenstein at 2, and 3X^2 + 4X + 8 and 6X^2 + 2X + 1, which
# are not Eisenstein at any prime.
NON_MONIC_EISENSTEIN = ([2, 2], 3, 1)
EISENSTEIN_NEAR_MISSES = (
    _radical(4, 4),
    _radical(2, -4),
    _monic(2, 3),
    _monic(8, 6),
    NON_MONIC_EISENSTEIN,
    _monic(6, 2),
    ([8, 4], 3, 1),
    ([1, 2], 6, 1),
)
# 3X^2 + 2X + 2 is also tried times these rationals.
NON_MONIC_EISENSTEIN_SCALES = ((-5, 7), (1, 3), (6, 1), (2, 9))
KNOWN_FACTOR_LISTS = (
    [[_radical(n, a)] for n in range(1, 33) for a in (-2, 3)]
    + [[g] for g in (X4_PLUS_1, X8_PLUS_1, X16_PLUS_1, SD2, X6_PLUS_108, SD4)]
    + [
        [X4_PLUS_1, SD2],
        [X8_PLUS_1, X16_PLUS_1],
        [X6_PLUS_108, _radical(5, -2)],
        [SD4, X4_PLUS_1],
        [_radical(12, -2), _radical(12, 3)],
        [(X4_PLUS_1[0], 1, 2), X8_PLUS_1],
        [(SD2[0], 1, 3), (X6_PLUS_108[0], 1, 2)],
        [X4_PLUS_1, X5_MINUS_X_MINUS_1],
    ]
    + [[g] for g in EISENSTEIN_NEAR_MISSES]
    + [[_radical(4, 4), _monic(2, 3)], [(NON_MONIC_EISENSTEIN[0], 3, 2), _radical(2, -4)]]
)


def _with_known_factor_lists(test):
    for factors in KNOWN_FACTOR_LISTS:
        test = example(factors, (1, 1))(test)
    for scale in NON_MONIC_EISENSTEIN_SCALES:
        test = example([NON_MONIC_EISENSTEIN], scale)(test)
    return test


@_with_known_factor_lists
@given(st.lists(random_factor, min_size=1, max_size=4).filter(lambda fs: sum(len(c) * m for c, _, m in fs) <= 16), scale)
def test_poly_factor_matches_sympy(factors, scale):
    f = RationalPolynomial([Fraction(*scale)])
    for lower, lead, mult in factors:
        f = f * RationalPolynomial(tuple(lower) + (lead,)) ** mult
    _, expected = sympy.Poly(list(reversed(f.integer_numerators)), X).factor_list()
    expected = sorted((tuple(int(c) for c in reversed(g.all_coeffs())), m) for g, m in expected)
    assert sorted((g.integer_numerators, m) for g, m in poly_factor(f)) == expected


def test_small_side_can_need_most_modular_factors(calls_to):
    # (X^4 + 1)(X^5 - X - 1) lifts mod 3 from factors of degrees 2, 2 and 5.
    # Its side of degree at most 9/2 is X^4 + 1, two of the three, so the
    # recombination must try subsets of more than half the pool.
    lifts = calls_to(
        prufer.factor, "_hensel_lift_tree", lambda f, factors, p, target: (p, [len(u) - 1 for u in factors])
    )
    small, large = RationalPolynomial(X4_PLUS_1[0] + [1]), RationalPolynomial(X5_MINUS_X_MINUS_1[0] + [1])
    assert poly_factor(small * large) == [(small, 1), (large, 1)]
    assert lifts[0] == (3, [2, 2, 5])


# Primes on both sides of the trial-division bound 10^5, so Pollard-Brent
# meets prime cofactors, their squares and cubes, and products of two.
prime = st.integers(2, 10**9).map(lambda k: int(sympy.prevprime(k + 1)))
prime_power = st.tuples(prime, st.integers(1, 3))


@given(st.lists(prime_power, min_size=0, max_size=4), st.sampled_from([1, -1]))
def test_factor_int_matches_sympy(powers, sign):
    n = sign
    for p, e in powers:
        n *= p**e
    assert factor_int(n) == sympy.factorint(abs(n))
