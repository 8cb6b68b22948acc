"""Goldens for the two exact linear-algebra answers every verdict rests on.

The minimal polynomials and the reducedness witnesses below were recorded
from the Fraction-elimination implementation that the integer elimination
replaced; they fail if the basis, sign or scale of any result moves.
"""

import json
import pathlib
import random
from fractions import Fraction

import pytest

from prufer.orders import (
    element,
    equation_order,
    is_reduced,
    minimal_polynomial,
    product_order,
)
from prufer.poly import RationalPolynomial

GOLDENS = pathlib.Path(__file__).resolve().parent / "minimal_polynomial_goldens.json"

# The coordinates in the goldens file were drawn, order after order in file
# order, four elements each, as Fraction(randint(-3, 3), randint(1, 3)).
SEED = 5


def _equation(*coeffs):
    return equation_order(RationalPolynomial(coeffs))


def _radical(n, a):
    return _equation(a, *([0] * (n - 1)), 1)


@pytest.fixture(scope="module")
def golden_orders(corpus):
    orders = dict(corpus)
    for n in range(2, 13):
        orders[f"x^{n}-2"] = _radical(n, -2)
    orders["z_i*z_cbrt2"] = product_order(_equation(1, 0, 1), _equation(-2, 0, 0, 1))
    return orders


def test_minimal_polynomial_goldens(golden_orders):
    doc = json.loads(GOLDENS.read_text(encoding="utf-8"))
    assert list(doc) == list(golden_orders)
    rng = random.Random(SEED)
    for name, cases in doc.items():
        order = golden_orders[name]
        for coords, expected in cases:
            drawn = [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(order.dim)]
            assert [str(c) for c in drawn] == coords, name
            assert str(minimal_polynomial(order, element(drawn))) == expected, (name, coords)


def test_reducedness_witness_goldens(corpus):
    xmod2 = corpus["z_x_mod_x2"]
    z_i = corpus["z_i"]
    cases = [
        (_equation(4, 0, -4, 0, 1), (-2, 0, 1, 0), 2),  # (X^2-2)^2
        (_equation(0, 0, 0, 1), (0, 1, 0), 3),  # X^3
        (_equation(1, -1, -1, 1), (-1, 0, 1), 2),  # (X-1)^2 (X+1)
        (_equation(0, 0, 1, 0, 1), (0, 1, 0, 1), 2),  # X^2 (X^2+1)
        (_equation(-3, -5, -7, -3, -1, 1), (-3, -2, -2, 1, 0), 2),  # (X^2+X+1)^2 (X-3)
        (product_order(xmod2, z_i), (0, 1, 0, 0), 2),
        (product_order(product_order(z_i, xmod2), _equation(-2, 0, 0, 1)), (0, 0, 0, 1, 0, 0, 0), 2),
    ]
    for order, witness, exponent in cases:
        reduced, (x, k) = is_reduced(order)
        assert not reduced
        assert x.coords == witness
        assert k == exponent
