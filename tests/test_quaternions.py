from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from prufer.errors import MalformedInputError
from prufer.quaternions import (
    HURWITZ_UNIT,
    Quaternion,
    closure_check,
    four_square_lemma_check,
    four_square_violations,
    hurwitz_member,
    norm_in_D_check,
    quaternion_integral,
)

ONE = Quaternion.of(1)
I = Quaternion.of(0, 1)
J = Quaternion.of(0, 0, 1)
K = Quaternion.of(0, 0, 0, 1)


def test_hamilton_table():
    assert I * J == K
    assert J * K == I
    assert K * I == J
    assert J * I == -K
    assert I * I == J * J == K * K == -ONE
    assert I * J * K == -ONE


def test_coercion_and_coords():
    q = Quaternion.of(1, "1/2", Fraction(1, 3))
    assert q.coords == (Fraction(1), Fraction(1, 2), Fraction(1, 3), Fraction(0))


def test_linear_arithmetic():
    q = Quaternion.of(1, 2, 3, 4)
    r = Quaternion.of(0, 1, 0, -1)
    assert (q + r).coords == (1, 3, 3, 3)
    assert (q - r).coords == (1, 1, 3, 5)
    assert (-q).coords == (-1, -2, -3, -4)
    assert q.scale(Fraction(1, 2)).coords == (Fraction(1, 2), 1, Fraction(3, 2), 2)


def test_conjugate_norm_trace():
    q = Quaternion.of(Fraction(3, 2), Fraction(5, 2), Fraction(7, 2), Fraction(9, 2))
    assert q.norm() == 41
    assert q.trace() == 3
    conjugate = Quaternion.of(q.a0, -q.a1, -q.a2, -q.a3)
    assert q * conjugate == Quaternion.of(41)
    assert Quaternion.of(conjugate.a0, -conjugate.a1, -conjugate.a2, -conjugate.a3) == q


def test_char_poly_of_unit():
    f = HURWITZ_UNIT.char_poly()
    assert str(f) == "1 - X + X^2"
    # the unit is a primitive sixth root of unity
    w = HURWITZ_UNIT
    assert w * w == w - ONE
    assert w * w * w == -ONE


def test_char_poly_kills_element():
    q = Quaternion.of(Fraction(3, 2), Fraction(5, 2), Fraction(7, 2), Fraction(9, 2))
    f = q.char_poly()
    acc = Quaternion.of(0)
    power = ONE
    for c in f.coefficients:
        acc = acc + power.scale(c)
        power = power * q
    assert acc == Quaternion.of(0)


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
    assert hurwitz_member(Quaternion.of(*coords)) is member


def test_quaternion_integral_cases():
    q = Quaternion.of(Fraction(1, 2), Fraction(1, 2), Fraction(1, 2), Fraction(3, 2))
    assert quaternion_integral(q)
    assert hurwitz_member(q)
    r = Quaternion.of(Fraction(1, 4), Fraction(1, 4), Fraction(1, 4), Fraction(1, 4))
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
        lambda a, b, c, d, half: Quaternion.of(
            *(x + Fraction(half, 2) for x in (a, b, c, d))
        ),
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
    assert hurwitz_member(x * y)


@given(hurwitz_members(), hurwitz_members())
def test_norm_is_multiplicative(x, y):
    assert (x * y).norm() == x.norm() * y.norm()


@given(hurwitz_members())
def test_members_are_integral(q):
    assert quaternion_integral(q)


@given(hurwitz_members())
def test_char_poly_cayley_hamilton(q):
    assert q * q - q.scale(q.trace()) + ONE.scale(q.norm()) == Quaternion.of(0)
