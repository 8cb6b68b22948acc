"""A golden of ``poly_factor`` on a seeded set of polynomials, compared as
printed text: the factors, their multiplicities and their order.

The set holds X^n + a for n <= 16 and |a| <= 200, the X^n - 2 family and
its neighbours, near-misses of Eisenstein's criterion (reducible, or
Eisenstein only after a change of variable), scalar and variable rescalings
of them, and products of two or three members.  The sympy comparison in
``test_oracle.py`` sorts both factor lists, so only this file pins the order.

``factor_goldens.json`` was recorded from the implementation that proved
every irreducible factor by degree patterns or by Hensel lifting and
recombination.  Regenerate only on purpose:
``python tests/test_factor_goldens.py > tests/factor_goldens.json``
(with ``src`` on ``PYTHONPATH``).
"""

import json
import pathlib
import random
from fractions import Fraction

from prufer.factor import poly_factor
from prufer.poly import RationalPolynomial

GOLDENS = pathlib.Path(__file__).resolve().parent / "factor_goldens.json"


def _binomial(n: int, a: int) -> RationalPolynomial:
    return RationalPolynomial([a] + [0] * (n - 1) + [1])


def _rescaled(f: RationalPolynomial, c: Fraction, r: Fraction) -> RationalPolynomial:
    """c * f(r X)."""
    return RationalPolynomial([c * k * r**i for i, k in enumerate(f.coefficients)])


def _polynomials() -> list:
    rng = random.Random(34)
    named = [_binomial(n, -2) for n in range(1, 17)]
    named += [_binomial(9, -3), _binomial(8, -162), _binomial(11, -4), _binomial(12, -72), _binomial(7, -4)]
    named += [_binomial(4, 1), _binomial(8, 1), _binomial(16, 1), _binomial(6, 108), _binomial(4, 36)]
    near = [
        _binomial(4, 4),
        _binomial(2, -4),
        RationalPolynomial([8, 6, 1]),
        RationalPolynomial([2, 3, 1]),
        _binomial(6, 108),
        RationalPolynomial([2, 2, 3]),
        RationalPolynomial([1, 0, -10, 0, 1]),
        RationalPolynomial([12, 0, 1]),
        RationalPolynomial([18, 6, 1]),
        RationalPolynomial([4, 2, 2]),
    ]
    randoms = [_binomial(rng.randint(1, 16), rng.choice((-1, 1)) * rng.randint(1, 200)) for _ in range(120)]
    base = named + near + randoms
    scalings = (Fraction(1), Fraction(-5, 7), Fraction(1, 3), Fraction(6), Fraction(2, 9), Fraction(-4, 3))
    rescaled = [
        _rescaled(f, rng.choice(scalings), rng.choice(scalings))
        for f in near + [rng.choice(base) for _ in range(30)]
    ]
    products = []
    while len(products) < 130:
        parts = [rng.choice(base) for _ in range(rng.randint(2, 3))]
        if sum(f.degree for f in parts) > 20:
            continue
        product = parts[0]
        for f in parts[1:]:
            product = product * f
        products.append(product)
    return base + rescaled + products


def observed() -> list:
    """[str(f), repr(poly_factor(f))] for each polynomial of the set."""
    return [[str(f), repr(poly_factor(f))] for f in _polynomials()]


def test_factor_goldens():
    assert observed() == json.loads(GOLDENS.read_text(encoding="utf-8"))


if __name__ == "__main__":
    print(json.dumps(observed(), indent=1))
