from fractions import Fraction

import pytest

from prufer.closure import (
    discriminant,
    factor_int,
    is_integral,
    is_integrally_closed_order,
    maximal_order,
    p_radical,
    ring_of_multipliers,
)
from prufer.errors import BudgetExceededError, DiscFactorizationError, PruferError
from prufer.orders import element, equation_order, load_order, minimal_polynomial, mul
from prufer.poly import RationalPolynomial
from prufer.splitting import component_order, decompose


def P(*coeffs):
    return RationalPolynomial(coeffs)


@pytest.mark.parametrize(
    "name,disc",
    [
        ("z", 1),
        ("z_i", -4),
        ("z_3i", -36),
        ("z_sqrt5", 20),
        ("z_golden", 5),
        ("zxz", 1),
        ("z_x_mod_x2", 0),
        ("cubic_index2", -503),
    ],
)
def test_discriminants(corpus, name, disc):
    assert discriminant(corpus[name]) == disc


def test_is_integral(m2z, z_golden):
    # (1 + sqrt5)/2 written in the Z[sqrt5] basis
    z5 = equation_order(P(-5, 0, 1))
    assert is_integral(z5, element((Fraction(1, 2), Fraction(1, 2))))
    assert not is_integral(z5, element((Fraction(1, 2), 0)))
    # the escaping matrix witness satisfies X^2 - X - 1
    assert is_integral(m2z, element((0, 2, Fraction(1, 2), 1)))
    assert is_integral(z_golden, z_golden.identity())


def test_factor_int():
    assert factor_int(360) == {2: 3, 3: 2, 5: 1}
    assert factor_int(1) == {}
    assert factor_int(97) == {97: 1}
    assert factor_int(2**20) == {2: 20}


def test_factor_int_budget():
    n = 1000000000000000003 * 1000000000000000009
    with pytest.raises(DiscFactorizationError):
        factor_int(n)


def test_p_radical_z_sqrt5(z_sqrt5):
    rad = p_radical(z_sqrt5, 2)
    # the radical at 2 is (2, 1 + sqrt5)
    assert rad.basis == ((1, 1), (0, 2))
    assert rad.determinant() == 2


def test_p_radical_z_3i(corpus):
    rad = p_radical(corpus["z_3i"], 3)
    # t = 3i squares to -9, so t itself is in the radical at 3
    assert (0, 1) in rad
    assert (1, 0) not in rad


def test_ring_of_multipliers_z_sqrt5(z_sqrt5):
    rad = p_radical(z_sqrt5, 2)
    grown = ring_of_multipliers(z_sqrt5, rad)
    assert grown.index == 2
    assert discriminant(grown.order) == 5
    rows = [tuple(r) for r in grown.basis_in_ambient]
    assert (Fraction(1, 2), Fraction(1, 2)) in rows or (1, 0) in rows


def test_maximal_order_z_sqrt5(z_sqrt5):
    emb = maximal_order(z_sqrt5)
    assert emb.index == 2
    assert discriminant(emb.order) == 5
    # disc scales by the square of the index
    assert discriminant(z_sqrt5) == emb.index**2 * discriminant(emb.order)


def test_maximal_order_z_3i(corpus):
    emb = maximal_order(corpus["z_3i"])
    assert emb.index == 3
    assert discriminant(emb.order) == -4
    assert discriminant(corpus["z_3i"]) == emb.index**2 * discriminant(emb.order)


@pytest.mark.parametrize("name", ["z", "z_i", "z_golden", "cubic_index2"])
def test_already_maximal(corpus, name):
    emb = maximal_order(corpus[name])
    assert emb.index == 1


def test_maximal_order_idempotent(z_sqrt5):
    emb = maximal_order(z_sqrt5)
    again = maximal_order(emb.order)
    assert again.index == 1


def test_maximal_order_to_ambient(z_sqrt5):
    emb = maximal_order(z_sqrt5)
    lifted = emb.to_ambient(emb.order.basis_element(1).coords)
    # some basis vector of the maximal order has half-integer ambient coords
    denominators = {emb.to_ambient(emb.order.basis_element(k).coords).denominator for k in range(2)}
    assert 2 in denominators
    assert minimal_polynomial(z_sqrt5, lifted).is_monic


def _assert_table_multiplies_rows(emb, ambient, one):
    """The suborder's table is the ambient product of its basis rows, and
    its identity is ``one``."""
    rows = [element(row) for row in emb.basis_in_ambient]
    for r, row_r in enumerate(rows):
        for s, row_s in enumerate(rows):
            assert emb.to_ambient(emb.order.table[r][s]) == mul(ambient, row_r, row_s), (r, s)
    assert emb.to_ambient(emb.order.one) == one


@pytest.mark.parametrize("f", ["X^2-5", "X^2+9", "X^4-12", "X^6+108", "X^8-162", "X^4+36"])
def test_maximal_order_table_multiplies_its_rows(f):
    order = equation_order(RationalPolynomial.parse(f))
    _assert_table_multiplies_rows(maximal_order(order), order, order.identity())


def test_maximal_order_table_multiplies_its_rows_cubic(corpus):
    order = corpus["cubic_index2"]
    _assert_table_multiplies_rows(maximal_order(order), order, order.identity())


def test_component_tables_multiply_their_rows(equation_product):
    order = equation_product((1, 0, 1), (-2, 0, 0, 1))  # Z[i] x Z[2^(1/3)]
    dec = decompose(order)
    for i, e in enumerate(dec.idempotents):
        comp = component_order(order, dec, i)
        _assert_table_multiplies_rows(comp, order, e)
        with pytest.raises(PruferError):
            comp.index  # a component is not of full rank


def test_is_integrally_closed_order(z_sqrt5, z_i):
    closed, witness = is_integrally_closed_order(z_i)
    assert closed and witness is None
    closed, witness = is_integrally_closed_order(z_sqrt5)
    assert not closed
    assert witness.coords == (Fraction(1, 2), Fraction(1, 2))
    assert is_integral(z_sqrt5, witness)
    assert not witness.is_integral_vector


def test_dedekind_essential_index_two(corpus):
    # t^3 = t^2 + 2t + 8: maximal, yet every power basis has even index
    cubic = corpus["cubic_index2"]
    assert discriminant(cubic) == -503
    assert maximal_order(cubic).index == 1
    closed, witness = is_integrally_closed_order(cubic)
    assert closed and witness is None
