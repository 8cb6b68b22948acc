"""Cross-checks of the factorisers against sympy, an independent implementation.

sympy is a test-only dependency; without it the module is skipped.
"""

import random

import pytest
from hypothesis import assume, given, strategies as st

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


small_monic_factor = st.lists(st.integers(-6, 6), min_size=1, max_size=2).map(lambda c: tuple(c) + (1,))


@given(st.lists(small_monic_factor, min_size=1, max_size=3))
def test_poly_factor_matches_sympy(factors):
    f = RationalPolynomial.one_poly
    for g in factors:
        f = f * RationalPolynomial(g)
    assert f.degree <= 6
    _, expected = sympy.Poly(list(reversed(f.integer_numerators)), X).factor_list()
    expected = sorted((tuple(int(c) for c in reversed(g.all_coeffs())), m) for g, m in expected)
    assert sorted((g.integer_numerators, m) for g, m in poly_factor(f)) == expected


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
