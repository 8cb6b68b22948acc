from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from prufer.errors import MalformedInputError
from prufer.orders import AlgebraElement, ZOrder, element, evaluate_poly, mul
from prufer.quaternions import (
    HURWITZ_UNIT,
    closure_check,
    four_square_lemma_check,
    four_square_violations,
    hurwitz_member,
    norm_in_D_check,
    quaternion_integral,
    reduced_char_poly,
)

# Hamilton's table on the basis 1, i, j, k: entry (s, c) says e_a * e_b = s * e_c.
_HAMILTON = (
    ((1, 0), (1, 1), (1, 2), (1, 3)),
    ((1, 1), (-1, 0), (1, 3), (-1, 2)),
    ((1, 2), (-1, 3), (-1, 0), (1, 1)),
    ((1, 3), (1, 2), (-1, 1), (-1, 0)),
)
H = ZOrder(
    4,
    tuple(tuple(tuple(s if t == c else 0 for t in range(4)) for s, c in row) for row in _HAMILTON),
    (1, 0, 0, 0),
    ("1", "i", "j", "k"),
)

ONE = AlgebraElement((1, 0, 0, 0))
I = AlgebraElement((0, 1, 0, 0))
J = AlgebraElement((0, 0, 1, 0))
K = AlgebraElement((0, 0, 0, 1))
ZERO = AlgebraElement((0, 0, 0, 0))


def _norm(q):
    return sum((c * c for c in q.coords), Fraction(0))


def test_hamilton_table():
    assert mul(H, I, J) == K
    assert mul(H, J, K) == I
    assert mul(H, K, I) == J
    assert mul(H, J, I) == -K
    assert mul(H, I, I) == mul(H, J, J) == mul(H, K, K) == -ONE
    assert mul(H, mul(H, I, J), K) == -ONE


def test_coercion_and_coords():
    q = element((1, "1/2", Fraction(1, 3), 0))
    assert q.coords == (Fraction(1), Fraction(1, 2), Fraction(1, 3), Fraction(0))


def test_linear_arithmetic():
    q = AlgebraElement((1, 2, 3, 4))
    r = AlgebraElement((0, 1, 0, -1))
    assert (q + r).coords == (1, 3, 3, 3)
    assert (q - r).coords == (1, 1, 3, 5)
    assert (-q).coords == (-1, -2, -3, -4)
    assert AlgebraElement(q.integer_numerators, 2).coords == (Fraction(1, 2), 1, Fraction(3, 2), 2)


def test_conjugate_norm_trace():
    q = AlgebraElement((3, 5, 7, 9), 2)
    f = reduced_char_poly(q)
    assert f.coefficients[0] == 41  # the norm
    assert -f.coefficients[1] == 3  # the trace
    conjugate = AlgebraElement((3, -5, -7, -9), 2)
    assert mul(H, q, conjugate) == AlgebraElement((41, 0, 0, 0))


def test_char_poly_of_unit():
    f = reduced_char_poly(HURWITZ_UNIT)
    assert str(f) == "1 - X + X^2"
    # the unit is a primitive sixth root of unity
    w = HURWITZ_UNIT
    assert mul(H, w, w) == w - ONE
    assert mul(H, mul(H, w, w), w) == -ONE


def test_char_poly_kills_element():
    q = AlgebraElement((3, 5, 7, 9), 2)
    assert evaluate_poly(H, reduced_char_poly(q), q) == ZERO


@pytest.mark.parametrize(
    "coords, member",
    [
        ((1, 2, 3, 4), True),
        ((Fraction(1, 2),) * 4, True),
        ((Fraction(1, 2), Fraction(3, 2), Fraction(-1, 2), Fraction(9, 2)), True),
        ((Fraction(1, 3), 0, 0, 0), True),  # odd denominators are units here
        ((Fraction(1, 2), 0, 0, 0), False),
        ((Fraction(1, 2), Fraction(1, 2), 0, 0), False),
        ((0, 0, 0, Fraction(1, 4)), False),
    ],
)
def test_hurwitz_member_cases(coords, member):
    assert hurwitz_member(element(coords)) is member


def test_quaternion_integral_cases():
    q = AlgebraElement((1, 1, 1, 3), 2)
    assert quaternion_integral(q)
    assert hurwitz_member(q)
    r = AlgebraElement((1, 1, 1, 1), 4)
    assert not quaternion_integral(r)
    assert not hurwitz_member(r)


def test_four_square_lemma_small_exponents():
    assert four_square_lemma_check(2)
    assert four_square_lemma_check(3)


def test_four_square_lemma_matches_direct_enumeration():
    # independent route: walk all 16^4 = 65536 tuples explicitly
    modulus = 16
    odd_solution = False
    for a in range(modulus):
        for b in range(modulus):
            for c in range(modulus):
                partial = a * a + b * b + c * c
                for d in range(modulus):
                    if (partial + d * d) % modulus == 0 and (a | b | c | d) & 1:
                        odd_solution = True
    assert four_square_lemma_check(2) is (not odd_solution)


def test_four_square_lemma_rejects_bad_exponent():
    with pytest.raises(MalformedInputError):
        four_square_lemma_check(1)
    with pytest.raises(MalformedInputError):
        four_square_lemma_check(4)


def test_violations_exponent_one():
    hits = four_square_violations(1)
    assert hits == [(a, b, c, d) for a in (1, 3) for b in (1, 3) for c in (1, 3) for d in (1, 3)]
    for a, b, c, d in hits:
        assert (a * a + b * b + c * c + d * d) % 4 == 0
        assert (a | b | c | d) & 1


def test_violations_exponent_two_empty():
    assert four_square_violations(2) == []
    assert four_square_lemma_check(2)


def test_violations_reject_bad_exponent():
    with pytest.raises(MalformedInputError):
        four_square_violations(0)
    with pytest.raises(MalformedInputError):
        four_square_violations(3)


def test_closure_check_frozen_run():
    report = closure_check(2000, seed=1)
    assert report.samples == 2000
    assert report.integral_count == 491
    assert report.member_count == 491
    assert report.counterexamples == ()
    assert report.consistent


def test_closure_check_deterministic():
    assert closure_check(500, seed=7) == closure_check(500, seed=7)


def test_closure_check_rejects_bad_args():
    with pytest.raises(MalformedInputError):
        closure_check(0, seed=1)


def test_norm_in_D_check():
    assert norm_in_D_check(500)
    with pytest.raises(MalformedInputError):
        norm_in_D_check(0)


def hurwitz_members():
    ints = st.integers(min_value=-9, max_value=9)
    odd = st.sampled_from((1, 3, 5))
    coord = st.builds(Fraction, ints, odd)
    return st.builds(
        lambda a, b, c, d, half: element(tuple(x + Fraction(half, 2) for x in (a, b, c, d))),
        coord,
        coord,
        coord,
        coord,
        st.sampled_from((0, 1)),
    )


@given(hurwitz_members(), hurwitz_members())
def test_members_closed_under_ring_ops(x, y):
    assert hurwitz_member(x)
    assert hurwitz_member(y)
    assert hurwitz_member(x + y)
    assert hurwitz_member(mul(H, x, y))


@given(hurwitz_members(), hurwitz_members())
def test_norm_is_multiplicative(x, y):
    assert _norm(mul(H, x, y)) == _norm(x) * _norm(y)


@given(hurwitz_members())
def test_members_are_integral(q):
    assert quaternion_integral(q)


@given(hurwitz_members())
def test_char_poly_cayley_hamilton(q):
    f = reduced_char_poly(q)
    # q^2 + f_1 q + f_0, with f_1 q and f_0 as integer vectors over f's denominator.
    nums, den = f.integer_numerators, f.denominator
    linear = AlgebraElement(tuple(nums[1] * c for c in q.integer_numerators), den * q.denominator)
    assert mul(H, q, q) + linear + AlgebraElement((nums[0], 0, 0, 0), den) == ZERO


# -- against a Fraction reference -------------------------------------------


def _in_z2(x: Fraction) -> bool:
    return x.denominator % 2 == 1


def _reference_member(coords) -> bool:
    return all(_in_z2(x) for x in coords) or all(_in_z2(x - Fraction(1, 2)) for x in coords)


def _reference_integral(coords) -> bool:
    return _in_z2(2 * coords[0]) and _in_z2(sum(x * x for x in coords))


quaternions = st.lists(
    st.builds(Fraction, st.integers(min_value=-40, max_value=40), st.sampled_from([1, 2, 3, 4, 6, 8, 10, 12, 16])),
    min_size=4,
    max_size=4,
).map(element)


# A member with one coordinate moved by 1/2: mixes Z_(2) and Z_(2) + 1/2.
near_members = st.builds(
    lambda q, i: q + AlgebraElement(tuple(int(j == i) for j in range(4)), 2), hurwitz_members(), st.integers(0, 3)
)


@given(st.one_of(quaternions, hurwitz_members(), near_members))
def test_member_and_integral_agree_with_fraction_reference(q):
    assert hurwitz_member(q) is _reference_member(q.coords)
    assert quaternion_integral(q) is _reference_integral(q.coords)


@given(quaternions)
def test_reduced_char_poly_agrees_with_fraction_reference(q):
    a = q.coords
    assert reduced_char_poly(q).coefficients == (sum(x * x for x in a), -2 * a[0], 1)
