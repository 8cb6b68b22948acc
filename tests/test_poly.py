from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

import prufer.poly
from prufer.errors import MalformedInputError, ZeroPolynomialError
from prufer.orders import element, evaluate_poly
from prufer.poly import (
    RationalPolynomial,
    binary_power,
    parse_rational,
    poly_gcd,
    poly_xgcd,
    rational_text,
    squarefree_decomposition,
)

fractions = st.fractions(min_value=Fraction(-10), max_value=Fraction(10), max_denominator=6)
rational_polys = st.lists(fractions, min_size=0, max_size=5).map(RationalPolynomial)
nonzero_polys = rational_polys.filter(lambda f: not f.is_zero)


def P(*coeffs):
    return RationalPolynomial(coeffs)


@given(st.integers(min_value=2, max_value=10**6), st.integers())
def test_binary_power_is_the_k_fold_product_mod_m(m, x):
    x %= m
    product = x
    for k in range(1, 71):
        assert binary_power(x, k, lambda u, v: u * v % m) == product
        product = product * x % m


@given(st.lists(fractions, min_size=1, max_size=3).map(RationalPolynomial))
def test_polynomial_power_is_the_k_fold_product(f):
    product = f
    for k in range(1, 71):
        assert f**k == product
        product *= f


def test_polynomial_power_zero_and_negative():
    assert P(1, 2) ** 0 == RationalPolynomial.one_poly
    with pytest.raises(ValueError):
        P(1, 2) ** -1


def test_construction_strips_leading_zeros():
    f = P(1, 2, 0, 0)
    assert f.degree == 1
    assert f.coefficients == (Fraction(1), Fraction(2))


def test_zero_and_constants():
    z = RationalPolynomial.zero_poly
    assert z.is_zero and z.degree == -1
    one = RationalPolynomial.one_poly
    assert one.degree == 0 and one.is_monic
    assert RationalPolynomial.x_power(3) == P(0, 0, 0, 1)


def test_from_int_coeffs():
    f = RationalPolynomial.from_int_coeffs((3, -4, 1))
    assert f.has_integer_coefficients
    assert f.coefficients == (Fraction(3), Fraction(-4), Fraction(1))


def test_arithmetic():
    f = P(1, 1)
    assert f * f == P(1, 2, 1)
    assert f + f == P(2, 2)
    assert f - f == RationalPolynomial.zero_poly
    assert 2 * f == P(2, 2)
    assert f ** 3 == P(1, 3, 3, 1)


def test_divmod_exact():
    f = P(1, 0, 0, 1)  # X^3 + 1
    g = P(1, 1)
    q, r = divmod(f, g)
    assert q == P(1, -1, 1)
    assert r.is_zero
    assert f // g == q
    assert (f % g).is_zero


def test_divmod_remainder():
    f = P(1, 0, 1)  # X^2 + 1
    g = P(-1, 1)  # X - 1
    q, r = divmod(f, g)
    assert q * g + r == f
    assert r == P(2)


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        divmod(P(1, 1), RationalPolynomial.zero_poly)


def test_monic():
    f = P(2, 4).monic()
    assert f == P(Fraction(1, 2), 1)


def test_evaluate_and_compose(z_line):
    f = P(-1, 0, 1)  # X^2 - 1
    assert evaluate_poly(z_line, f, element([3])) == element([8])
    g = P(1, 1)
    # f(g(3)) = (3 + 1)^2 - 1 = 15, the value of X^2 + 2X at 3.
    assert evaluate_poly(z_line, f, evaluate_poly(z_line, g, element([3]))) == element([15])


def test_denominator_and_content():
    f = P(Fraction(2, 3), Fraction(4, 3))
    content, prim = f.content_and_primitive()
    assert content == Fraction(2, 3)
    assert prim == (1, 2)
    assert f.denominator == 3
    with pytest.raises(ZeroPolynomialError):
        RationalPolynomial.zero_poly.content_and_primitive()


def test_str_forms():
    assert str(RationalPolynomial.zero_poly) == "0"
    assert str(P(1, -1, 1)) == "1 - X + X^2"
    assert str(P(0, Fraction(-1, 2), Fraction(1, 2))) == "-1/2*X + 1/2*X^2"
    assert str(P(5)) == "5"
    assert str(P(0, 1)) == "X"


def _reference_str(coeffs):
    """The writer's format, one term per nonzero coefficient in ascending order."""
    terms = []
    for k, c in enumerate(coeffs):
        if c == 0:
            continue
        mag = abs(c)
        body = str(mag) if k == 0 else ("X" if k == 1 else f"X^{k}")
        if k and mag != 1:
            body = f"{mag}*{body}"
        if terms:
            sign = "- " if c < 0 else "+ "
        else:
            sign = "-" if c < 0 else ""
        terms.append(sign + body)
    return " ".join(terms) or "0"


sparse_terms = st.dictionaries(st.integers(min_value=0, max_value=400), fractions, max_size=5)


@given(sparse_terms)
def test_str_matches_reference_on_sparse_polynomials(terms):
    coeffs = [terms.get(k, Fraction(0)) for k in range(max(terms, default=-1) + 1)]
    assert str(RationalPolynomial(coeffs)) == _reference_str(coeffs)


@given(st.integers() | st.integers(min_value=10**40) | st.integers(max_value=-(10**40)), st.integers(min_value=1))
@example(0, 7)
@example(-6, 4)
def test_rational_text_is_what_fraction_prints(num, den):
    assert rational_text(num, den) == str(Fraction(num, den))


def _read(reader, text):
    try:
        value = reader(text)
    except (ValueError, ZeroDivisionError):
        return None
    return value if isinstance(value, tuple) else (value.numerator, value.denominator)


RATIONAL_TEXT = (
    st.text(alphabet="0123456789+-/ ._eE\t\u0663\u09ed\u0ed2\uff15", max_size=12)
    | st.from_regex(r"\s?[+-]?\d{0,3}(\.\d{0,2})?([eE][+-]?\d)?\s?", fullmatch=True)
    | st.from_regex(r"[+-]?\d{1,4}/\d{1,4}", fullmatch=True)
)


@settings(max_examples=100)
@given(RATIONAL_TEXT)
@example("1_000")
@example(" 1/2 ")
@example("1 /2")
@example("0.5")
@example("1e3")
@example("-0")
@example("\u0663\u0663")
@example("1\x1c")
@example("1/0")
@example("9" * 5000)
def test_parse_rational_reads_what_fraction_reads(text):
    assert _read(parse_rational, text) == _read(Fraction, text)


@pytest.mark.parametrize(
    "text",
    ["0", "X", "5", "1 - X + X^2", "-1/2*X + 1/2*X^2", "2 + 3*X^4", "-X", "1/3"],
)
def test_parse_round_trip(text):
    f = RationalPolynomial.parse(text)
    assert str(f) == text


@pytest.mark.parametrize(
    "text",
    ["1/2*X^2 + -1/2*X^4", "X ++ 1", "", "X^-1", "1 + + 1", "X^2 2", "1 /2"],
)
def test_parse_rejects_noncanonical(text):
    with pytest.raises(MalformedInputError):
        RationalPolynomial.parse(text)


# A dense parse of the first would need a list of 10^11 coefficients; the
# next three have more digits than int() converts, and the last divides by 0.
@pytest.mark.parametrize(
    "text",
    ["X^99999999999", "1 + X^" + "9" * 5000, "9" * 5000 + "*X", "1/" + "9" * 5000 + "*X", "1/0*X"],
    ids=["exponent-10^11", "exponent-5000-digits", "coefficient-5000-digits", "denominator-5000-digits", "zero-denominator"],
)
def test_parse_refuses_huge_numbers(text):
    with pytest.raises(MalformedInputError, match="PARSE_ERROR"):
        RationalPolynomial.parse(text)


@given(st.lists(st.tuples(st.integers(min_value=0, max_value=4), fractions), min_size=1, max_size=6))
def test_parse_sums_repeated_powers(terms):
    text = " ".join(f"{'-' if c < 0 else '+'} {abs(c)}*X^{k}" for k, c in terms)
    expected = sum((P(*[0] * k, c) for k, c in terms), RationalPolynomial.zero_poly)
    assert RationalPolynomial.parse(text) == expected


def test_parse_degree_cap_is_inclusive(monkeypatch):
    monkeypatch.setattr(prufer.poly, "MAX_PARSE_DEGREE", 5)
    assert RationalPolynomial.parse("1 + X^5").degree == 5
    with pytest.raises(MalformedInputError, match="PARSE_ERROR: degree 6"):
        RationalPolynomial.parse("1 + X^6")


def test_sort_key_orders_by_degree_then_coeffs():
    fs = [P(0, 0, 1), P(0, 1), P(1, 1)]
    assert sorted(fs, key=lambda f: f.sort_key()) == [P(0, 1), P(1, 1), P(0, 0, 1)]


def test_poly_gcd():
    f = P(-1, 0, 1)  # (X-1)(X+1)
    g = P(1, -2, 1)  # (X-1)^2
    assert poly_gcd(f, g) == P(-1, 1)


def test_poly_gcd_coprime():
    assert poly_gcd(P(1, 1), P(2, 1)) == RationalPolynomial.one_poly


def test_poly_xgcd_identity():
    f = P(-1, 0, 1)
    g = P(1, -2, 1)
    d, s, t = poly_xgcd(f, g)
    assert s * f + t * g == d
    assert d == P(-1, 1)


def test_squarefree_decomposition():
    f = P(-1, 1) ** 2 * P(2, 1)
    dec = squarefree_decomposition(f)
    assert dec == [(P(2, 1), 1), (P(-1, 1), 2)]


@given(rational_polys)
def test_parse_inverts_str(f):
    assert RationalPolynomial.parse(str(f)) == f


@given(rational_polys, nonzero_polys)
def test_divmod_invariant(f, g):
    q, r = divmod(f, g)
    assert q * g + r == f
    assert r.is_zero or r.degree < g.degree


@given(nonzero_polys, nonzero_polys)
def test_gcd_divides_both(f, g):
    d = poly_gcd(f, g)
    assert (f % d).is_zero
    assert (g % d).is_zero


@given(nonzero_polys, nonzero_polys)
def test_xgcd_bezout(f, g):
    d, s, t = poly_xgcd(f, g)
    assert s * f + t * g == d


@given(nonzero_polys)
def test_squarefree_decomposition_reassembles(f):
    prod = RationalPolynomial([f.leading_coefficient])
    for part, mult in squarefree_decomposition(f):
        prod = prod * part ** mult
    assert prod == f


def _fraction_long_division(f, g):
    """Schoolbook long division in Fraction arithmetic: the reference the
    integer pseudo-division must match."""
    rem = list(f.coefficients)
    div = g.coefficients
    quot = [Fraction(0)] * max(len(rem) - len(div) + 1, 0)
    for k in range(len(quot) - 1, -1, -1):
        c = quot[k] = rem[k + len(div) - 1] / div[-1]
        for j, d in enumerate(div):
            rem[k + j] -= c * d
    return RationalPolynomial(quot), RationalPolynomial(rem[: len(div) - 1])


wide_fractions = st.builds(
    Fraction, st.integers(min_value=-60, max_value=60), st.sampled_from([1, 2, 3, 4, 5, 6, 7, 9, 12, 35])
)
wide_polys = st.lists(wide_fractions, min_size=0, max_size=8).map(RationalPolynomial)


@given(st.one_of(rational_polys, wide_polys), st.one_of(nonzero_polys, wide_polys.filter(lambda f: not f.is_zero)))
def test_divmod_matches_fraction_long_division(f, g):
    assert divmod(f, g) == _fraction_long_division(f, g)
    assert f // g == _fraction_long_division(f, g)[0]
    assert f % g == _fraction_long_division(f, g)[1]
