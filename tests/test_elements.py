"""Integer element arithmetic against a Fraction reference.

An ``AlgebraElement`` is integer coordinates over one denominator.  Each
operation is recomputed here coordinate by coordinate in Fraction arithmetic
and must agree, on every corpus order, on the maximal orders of the corpus
fields and on the maximal order of X^4 + 36 (index 288).
"""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from prufer.closure import maximal_order
from prufer.orders import AlgebraElement, ZOrder, element, equation_order, evaluate_poly, mul
from prufer.poly import RationalPolynomial

FIELDS = ("cubic_index2", "z", "z_3i", "z_golden", "z_i", "z_sqrt5")

rationals = st.builds(Fraction, st.integers(min_value=-12, max_value=12), st.sampled_from([1, 1, 2, 3, 4, 6]))


@pytest.fixture(scope="module")
def maximal_orders(corpus):
    embedded = {name: maximal_order(corpus[name]) for name in FIELDS}
    embedded["X^4 + 36"] = maximal_order(equation_order(RationalPolynomial.parse("X^4 + 36")))
    assert embedded["X^4 + 36"].index == 288
    return embedded


@pytest.fixture(scope="module")
def orders(corpus, maximal_orders):
    return {**corpus, **{f"maximal {name}": emb.order for name, emb in maximal_orders.items()}}


def _coords(data, dim):
    return data.draw(st.lists(rationals, min_size=dim, max_size=dim))


def _reference_mul(order, x, y):
    out = [Fraction(0)] * order.dim
    for i, xi in enumerate(x):
        for j, yj in enumerate(y):
            for k, t in enumerate(order.table[i][j]):
                out[k] += xi * yj * t
    return tuple(out)


@given(st.data())
def test_arithmetic_matches_fractions(orders, data):
    order = orders[data.draw(st.sampled_from(sorted(orders)))]
    x, y, k = _coords(data, order.dim), _coords(data, order.dim), data.draw(rationals)
    a, b = element(x), element(y)
    assert a.coords == tuple(x)
    assert (a + b).coords == tuple(p + q for p, q in zip(x, y))
    assert (a - b).coords == tuple(p - q for p, q in zip(x, y))
    assert (-a).coords == tuple(-p for p in x)
    assert evaluate_poly(order, RationalPolynomial((0, k)), a).coords == tuple(k * p for p in x)
    assert mul(order, a, b).coords == _reference_mul(order, x, y)
    assert a.is_integral_vector == all(p.denominator == 1 for p in x)
    assert a.is_zero == all(p == 0 for p in x)


small = st.integers(min_value=-5, max_value=5)
coefficient_lists = st.one_of(
    st.just([]),
    st.lists(small.filter(bool), min_size=1, max_size=6),
    st.lists(small, min_size=1, max_size=8),
    st.dictionaries(st.integers(min_value=0, max_value=30), small, max_size=4).map(
        lambda terms: [terms.get(i, 0) for i in range(max(terms, default=-1) + 1)]
    ),
)


@given(st.data(), coefficient_lists, st.sampled_from([1, 2, 3, 6]))
def test_evaluate_poly_matches_horner(orders, data, coeffs, den):
    # Zero, dense and sparse polynomials over a denominator, at rational
    # points, on every order of the corpus (m2z and hurwitz noncommutative).
    order = orders[data.draw(st.sampled_from(sorted(orders)))]
    x = _coords(data, order.dim)
    f = [Fraction(c, den) for c in coeffs]
    expected = (Fraction(0),) * order.dim
    for c in reversed(f):
        expected = tuple(a + c * u for a, u in zip(_reference_mul(order, expected, x), order.one))
    assert evaluate_poly(order, RationalPolynomial(f), element(x)).coords == expected


def test_evaluate_poly_product_count(monkeypatch, corpus):
    products = []
    original = ZOrder._mul_coords

    def counting(self, x, y):
        products.append(1)
        return original(self, x, y)

    monkeypatch.setattr(ZOrder, "_mul_coords", counting)
    a = element([1, 2, -1, 3])
    evaluate_poly(corpus["m2z"], RationalPolynomial((1, 2, 3, 4, 5, 6)), a)
    assert len(products) == 5
    # X^1000 at the idempotent e11: y^1000 by squaring, not 1000 products.
    products.clear()
    e11 = element([1, 0, 0, 0])
    assert evaluate_poly(corpus["m2z"], RationalPolynomial.parse("X^1000"), e11) == e11
    assert len(products) <= 2 * (1000).bit_length()


@given(st.data())
def test_to_ambient_matches_fractions(maximal_orders, data):
    emb = maximal_orders[data.draw(st.sampled_from(sorted(maximal_orders)))]
    x = _coords(data, emb.order.dim)
    columns = zip(*(row.coords for row in emb.basis))
    expected = tuple(sum((c * r for c, r in zip(x, column)), Fraction(0)) for column in columns)
    assert emb.to_ambient(element(x)).coords == expected


@given(
    st.lists(st.integers(min_value=-20, max_value=20), min_size=1, max_size=6),
    st.integers(min_value=-12, max_value=12).filter(bool),
    st.integers(min_value=1, max_value=6),
)
def test_unnormalised_pairs_equal_their_rational_element(nums, den, scale):
    a = AlgebraElement(tuple(c * scale for c in nums), den * scale)
    b = element([Fraction(c, den) for c in nums])
    assert a == b
    assert hash(a) == hash(b)
    assert a.coords == tuple(Fraction(c, den) for c in nums)
    assert a.denominator > 0
    assert a.is_integral_vector == all(Fraction(c, den).denominator == 1 for c in nums)


def test_lowest_terms():
    assert AlgebraElement((2, 4), 2) == element((1, 2))
    assert hash(AlgebraElement((2, 4), 2)) == hash(element((1, 2)))
    assert AlgebraElement((3, -6), -9) == element((Fraction(-1, 3), Fraction(2, 3)))
    assert AlgebraElement((0, 0), 5) == AlgebraElement((0, 0))
    assert len({AlgebraElement((2, 4), 2), element(("1", "2")), AlgebraElement((1, 2))}) == 1
    with pytest.raises(TypeError):
        AlgebraElement((Fraction(1, 2), 0))
    with pytest.raises(ZeroDivisionError):
        AlgebraElement((1, 0), 0)
