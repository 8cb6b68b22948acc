import random
from fractions import Fraction
from math import prod

import pytest
from hypothesis import assume, given, strategies as st

import prufer.closure
import prufer.factor
from prufer.closure import (
    _first_non_integral,
    discriminant,
    factor_int,
    maximal_order,
    p_radical,
    ring_of_multipliers,
)
from prufer.decision import decide_pruefer, verify_certificate
from prufer.factor import dedekind_p_maximal, poly_factor
from prufer.errors import BudgetExceededError, DiscFactorizationError, NotApplicableError, PruferError
from prufer.lattice import hnf_reduce, integer_left_kernel
from prufer.orders import (
    AlgebraElement,
    element,
    equation_order,
    is_commutative,
    load_order,
    minimal_polynomial,
    mul,
    product_order,
)
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


def _is_integral(order, x):
    return minimal_polynomial(order, x).has_integer_coefficients


def test_is_integral(m2z, z_golden):
    # (1 + sqrt5)/2 written in the Z[sqrt5] basis
    z5 = equation_order(P(-5, 0, 1))
    assert _is_integral(z5, element((Fraction(1, 2), Fraction(1, 2))))
    assert not _is_integral(z5, element((Fraction(1, 2), 0)))
    # the escaping matrix witness satisfies X^2 - X - 1
    assert _is_integral(m2z, element((0, 2, Fraction(1, 2), 1)))
    assert _is_integral(z_golden, z_golden.identity())


def test_factor_int():
    assert factor_int(360) == {2: 3, 3: 2, 5: 1}
    assert factor_int(1) == {}
    assert factor_int(97) == {97: 1}
    assert factor_int(2**20) == {2: 20}


def test_factor_int_budget():
    n = 1000000000000000003 * 1000000000000000009
    with pytest.raises(DiscFactorizationError):
        factor_int(n)


def test_factor_int_budget_is_a_total(monkeypatch):
    # Each constant c alone finds a factor within 1600 iterations; the
    # budget covers all of them together, so the cap is 1600, not 19 * 1600.
    n = 1000003 * 3000017
    with monkeypatch.context() as patch:
        patch.setattr(prufer.factor, "POLLARD_BUDGET", 1600)
        with pytest.raises(DiscFactorizationError):
            factor_int(n)
    assert factor_int(n) == {1000003: 1, 3000017: 1}


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
    grown = ring_of_multipliers(z_sqrt5, rad, 2)
    assert grown.index == 2
    assert discriminant(grown.order) == 5
    rows = [x.coords for x in grown.basis]
    assert (Fraction(1, 2), Fraction(1, 2)) in rows or (1, 0) in rows


def test_stable_step_returns_the_order_itself(corpus):
    # At 2, Z[i]'s radical (2, 1 + i) has multiplier ring Z[i]: U = 2O, so
    # no new table is built.
    z_i = corpus["z_i"]
    step = ring_of_multipliers(z_i, p_radical(z_i, 2), 2)
    assert step.order is z_i
    assert step.basis == (z_i.basis_element(0), z_i.basis_element(1))
    assert step.index == 1


def test_ring_of_multipliers_needs_p_in_the_ideal(z_sqrt5):
    with pytest.raises(NotApplicableError):
        ring_of_multipliers(z_sqrt5, p_radical(z_sqrt5, 2), 3)  # 3*Z^2 is not inside
    with pytest.raises(NotApplicableError):
        ring_of_multipliers(z_sqrt5, hnf_reduce([[1, 0], [0, 2]]), 2)  # not an ideal


def _reference_multipliers(order, ideal):
    """{x : x*I <= I} by the integer kernel of an (n + n^2) x n^2 system:
    with d = [Z^n : I], x = y/d and the unknowns y, z_j solve
    y*(b_i w_j) = z_j*(d*I) for every i, j."""
    n = order.dim
    d = ideal.determinant()
    w = [list(row) for row in ideal.basis]
    matrix = []
    for i in range(n):
        b = [1 if t == i else 0 for t in range(n)]
        matrix.append([c for j in range(n) for c in order._mul_coords(b, w[j])])
    for j in range(n):
        for k in range(n):
            row = [0] * (n * n)
            row[j * n : (j + 1) * n] = [-d * c for c in w[k]]
            matrix.append(row)
    kernel = integer_left_kernel(matrix)
    lattice = hnf_reduce([vec[:n] for vec in kernel], n)
    return tuple(AlgebraElement(row, d) for row in lattice.basis)


def _assert_multipliers_match_reference(order):
    """Along each round-2 chain, at 2, 3 and every p with p^2 | disc, the
    mod-p multiplier ring is the one the integer kernel gives.  A chain on a
    non-reduced order (disc 0) never stops growing, so there only the first
    step is compared, at 2, 3 and 5."""
    disc = discriminant(order)
    primes = {2, 3, 5} if disc == 0 else {2, 3} | {p for p, v in factor_int(disc).items() if v >= 2}
    for p in sorted(primes):
        current = order
        while True:
            rad = p_radical(current, p)
            step = ring_of_multipliers(current, rad, p)
            assert step.basis == _reference_multipliers(current, rad), p
            if step.index == 1 or disc == 0:
                break
            current = step.order


@pytest.mark.parametrize("name", ["cubic_index2", "z", "z_3i", "z_golden", "z_i", "z_sqrt5", "z_x_mod_x2", "zxz"])
def test_ring_of_multipliers_matches_reference_corpus(corpus, name):
    assert is_commutative(corpus[name])[0]
    _assert_multipliers_match_reference(corpus[name])


@pytest.mark.parametrize("f", ["X^2-5", "X^2+9", "X^4-12", "X^4+36", "X^6+108"])
def test_ring_of_multipliers_matches_reference_fields(f):
    _assert_multipliers_match_reference(equation_order(RationalPolynomial.parse(f)))


def test_x11_minus_2_decides_and_verifies():
    # The integer-kernel round 2 never finished at p = 11 here (a 132 x 121 HNF).
    order = equation_order(RationalPolynomial.parse("X^11-2"))
    cert = decide_pruefer(order)
    assert cert.verdict == "YES"
    assert verify_certificate(order, cert) is True


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
    lifted = emb.to_ambient(emb.order.basis_element(1))
    # some basis vector of the maximal order has half-integer ambient coords
    denominators = {emb.to_ambient(emb.order.basis_element(k)).denominator for k in range(2)}
    assert 2 in denominators
    assert minimal_polynomial(z_sqrt5, lifted).is_monic


def _assert_table_multiplies_rows(emb, ambient, one):
    """The suborder's table is the ambient product of its basis rows, and
    its identity is ``one``."""
    rows = emb.basis
    for r, row_r in enumerate(rows):
        for s, row_s in enumerate(rows):
            assert emb.to_ambient(AlgebraElement(emb.order.table[r][s])) == mul(ambient, row_r, row_s), (r, s)
    assert emb.to_ambient(emb.order.identity()) == one


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
    assert _first_non_integral(maximal_order(z_i)) is None
    witness = _first_non_integral(maximal_order(z_sqrt5))
    assert witness.coords == (Fraction(1, 2), Fraction(1, 2))
    assert _is_integral(z_sqrt5, witness)
    assert not witness.is_integral_vector


def test_dedekind_essential_index_two(corpus):
    # t^3 = t^2 + 2t + 8: maximal, yet every power basis has even index
    cubic = corpus["cubic_index2"]
    assert discriminant(cubic) == -503
    assert maximal_order(cubic).index == 1
    assert _first_non_integral(maximal_order(cubic)) is None


def _dedekind_cases(seed, trials):
    """Monic irreducible integer polynomials of degree <= 6, most of them
    with a ramified shape: X^d + p*(...) + p^k*c, or (X - c)^d moved by
    multiples of p."""
    rng = random.Random(seed)
    for _ in range(trials):
        d = rng.randint(1, 6)
        p = rng.choice([2, 3, 5, 7])
        shape = rng.random()
        if shape < 0.3:
            coeffs = [rng.randint(-30, 30) for _ in range(d)]
        elif shape < 0.7:
            coeffs = [p ** rng.randint(1, 3) * rng.choice([1, -1, 2, 3])] + [p * rng.randint(-2, 2) for _ in range(d - 1)]
        else:
            base = (P(-rng.randint(-2, 2), 1) ** d).integer_numerators
            coeffs = [c + p ** rng.randint(1, 3) * rng.randint(-1, 1) for c in base[:-1]]
        mu = RationalPolynomial.from_int_coeffs(coeffs + [1])
        if [m for _, m in poly_factor(mu)] == [1]:
            yield mu


def test_dedekind_criterion_matches_one_round_two_step():
    # Z[X]/(mu) is p-maximal exactly when the multiplier ring of its
    # p-radical is the order itself.
    pairs = non_maximal = 0
    for mu in _dedekind_cases(seed=14, trials=250):
        order = equation_order(mu)
        for p, v in sorted(factor_int(discriminant(order)).items()):
            if v < 2:
                continue
            stable = ring_of_multipliers(order, p_radical(order, p), p).index == 1
            assert dedekind_p_maximal(mu, p) == stable, (str(mu), p)
            pairs += 1
            non_maximal += not stable
    assert pairs >= 150 and non_maximal >= 60


def test_dedekind_criterion_at_a_large_prime():
    # The minimal polynomial of 2^(1/10) (1 + 2 x + x^3 + 2 x^4 + ...) at a
    # prime p with p^2 | disc.  Splitting mu mod p into irreducibles by
    # Berlekamp walks the p residues; the criterion needs only gcds.
    mu = P(298862, 144680, -126280, -95300, 2320, 14440, 1710, -720, -120, 0, 1)
    order, p = equation_order(mu), 5140373041
    assert factor_int(discriminant(order))[p] == 2
    assert dedekind_p_maximal(mu, p) == (ring_of_multipliers(order, p_radical(order, p), p).index == 1)


def test_x12_minus_2_needs_no_round_two_step(calls_to):
    # Z[2^(1/12)] is maximal; its discriminant 2^34 3^12 has only 2 and 3
    # in the square part, and Dedekind's criterion settles both, for the
    # decision and for the verifier.
    steps = calls_to(prufer.closure, "ring_of_multipliers")
    radicals = calls_to(prufer.closure, "p_radical")
    order = equation_order(P(-2, *[0] * 11, 1))
    cert = decide_pruefer(order)
    assert cert.verdict == "YES" and verify_certificate(order, cert)
    assert steps == [] and radicals == []


def test_x6_plus_108_still_takes_round_two_steps(calls_to):
    # Z[X]/(X^6 + 108) fails the criterion at 2 and 3.  The maximal order
    # takes 13 round-2 steps; the decision stops after the first, which
    # already enlarges the order, and its witness x^5/2 lies in that step.
    steps = calls_to(prufer.closure, "ring_of_multipliers")
    radicals = calls_to(prufer.closure, "p_radical")
    order = equation_order(P(108, 0, 0, 0, 0, 0, 1))
    bad = _first_non_integral(maximal_order(order))
    assert [str(c) for c in bad.coords] == ["1/2", "0", "0", "1/12", "0", "0"]
    assert len(steps) == 13 and len(radicals) == 13
    steps.clear()
    radicals.clear()
    cert = decide_pruefer(order)
    assert cert.to_json() == (
        '{"verdict": "NO", "reason": "COMPONENT_NOT_MAXIMAL", "witness": {"element": '
        '["0", "0", "0", "0", "0", "1/2"], "min_poly": "229582512 + X^6", "component": 0}, '
        '"citation": "component-not-integrally-closed"}'
    )
    assert len(steps) == 1 and len(radicals) == 1
    assert verify_certificate(order, cert)


# The minimal polynomial of sqrt2 + sqrt3 + sqrt5 + sqrt7, a Swinnerton-Dyer
# polynomial of degree 16.
SD4 = P(46225, 0, -5596840, 0, 13950764, 0, -7453176, 0, 1513334, 0, -141912, 0, 6476, 0, -136, 0, 1)


def test_sd4_decides_no_after_one_round_two_step(calls_to):
    # The maximal order of Z[X]/(SD4) takes 47 round-2 steps; a NO needs one.
    steps = calls_to(prufer.closure, "ring_of_multipliers")
    order = equation_order(SD4)
    cert = decide_pruefer(order)
    assert (cert.verdict, cert.reason) == ("NO", "COMPONENT_NOT_MAXIMAL")
    assert len(steps) == 1
    assert verify_certificate(order, cert)


def test_decision_stops_early_yet_agrees_with_the_maximal_order():
    # A NO from the first enlarging step exactly when the whole round 2
    # enlarges; its witness is integral over Z and outside the order.  Each
    # maximal order found is decided too: its primitive element rarely
    # generates it, so round 2 there takes steps of index 1, which must not
    # count as enlarging.
    verdicts = []
    for mu in _dedekind_cases(seed=26, trials=150):
        equation = equation_order(mu)
        closure = maximal_order(equation)
        for order in (equation, closure.order) if closure.index > 1 else (equation,):
            cert = decide_pruefer(order)
            assert (cert.verdict == "NO") == (order is equation and closure.index > 1), str(mu)
            assert verify_certificate(order, cert), str(mu)
            verdicts.append(cert.verdict)
            if cert.verdict == "YES":
                continue
            witness = element(cert.witness["element"])
            mu_w = minimal_polynomial(order, witness)
            assert not witness.is_integral_vector, str(mu)
            assert mu_w.is_monic and mu_w.has_integer_coefficients, str(mu)
            assert cert.witness["min_poly"] == str(mu_w)
    assert verdicts.count("NO") >= 80 and verdicts.count("YES") >= 140


# Monic polynomials of degree 2-6 with coefficients in [-20, 20].
monic_sextics = st.integers(2, 6).flatmap(lambda n: st.lists(st.integers(-20, 20), min_size=n, max_size=n))


@given(monic_sextics, monic_sextics)
def test_maximal_order_discriminant_invariants(f_low, g_low):
    # For A = Z[X]/(f) and its maximal order O, disc(f) = [O : A]^2 disc(O),
    # disc(O) = 0 or 1 mod 4 (Stickelberger), and the trace form of a product
    # is the orthogonal sum of its factors' forms.  A refusal fails the test.
    f, g = P(*f_low, 1), P(*g_low, 1)
    assume(poly_factor(f) == [(f, 1)] and poly_factor(g) == [(g, 1)])
    maximal = []
    for h in (f, g):
        emb = maximal_order(equation_order(h))
        d = discriminant(emb.order)
        square, rest = divmod(discriminant(equation_order(h)), d)
        assert rest == 0 and square == emb.index**2
        assert d % 4 in (0, 1)
        maximal.append(emb.order)
    a, b = maximal
    assert discriminant(product_order(a, b)) == discriminant(a) * discriminant(b)


def _prime_divisors(m):
    return [p for p in range(2, m + 1) if m % p == 0 and all(p % q for q in range(2, p))]


def _phi(m):
    return m * prod(p - 1 for p in _prime_divisors(m)) // prod(_prime_divisors(m))


def _cyclotomic(m):
    f = RationalPolynomial.x_power(m) - RationalPolynomial.one_poly
    for d in range(1, m):
        if m % d == 0:
            f = f // _cyclotomic(d)
    return f


@pytest.mark.parametrize("m", [m for m in range(3, 31) if m % 4 != 2 and _phi(m) <= 8])
def test_cyclotomic_discriminant_closed_form(m):
    # disc Q(zeta_m) = (-1)^(phi/2) m^phi / prod_{p | m} p^(phi/(p-1)) for
    # m != 2 mod 4; phi(m) <= 8 bounds m by 30.
    phi, primes = _phi(m), _prime_divisors(m)
    expected = (-1) ** (phi // 2) * m**phi // prod(p ** (phi // (p - 1)) for p in primes)
    assert discriminant(maximal_order(equation_order(_cyclotomic(m))).order) == expected
