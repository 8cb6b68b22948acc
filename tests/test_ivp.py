import collections
import itertools
import pathlib
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

import prufer

from prufer.closure import field_polynomial, maximal_order, power_index
from prufer.errors import (
    BudgetExceededError,
    DimensionMismatchError,
    IndexDivisibleError,
    MalformedInputError,
    NotApplicableError,
)
from prufer.factor import poly_factor
from prufer.ivp import (
    MATRIX_PAIRS,
    TRANSFORM_WORK_CAP,
    RamificationProfile,
    _matrix_primes,
    _null_ideal_contains,
    _orbit_divides,
    _orbit_minimal_polynomials,
    _orbit_representatives,
    _vanishes_mod,
    _vanishes_mod_prime,
    int_member_finite,
    int_member_order,
    membership_plan,
    pointwise_integrally_closed,
    pruefer_transform,
    ramification_profile,
    transform_sequence,
)
from prufer.orders import ZOrder, element, equation_order, evaluate_poly, load_order, minimal_polynomial, power
from prufer.poly import RationalPolynomial, poly_xgcd
from prufer.splitting import crt_idempotents, shell_vectors


def P(*coeffs):
    return RationalPolynomial(coeffs)


half = Fraction(1, 2)


# -- membership on finite sets -----------------------------------------------


def test_member_finite_true(m2z):
    f = P(0, half)  # X/2
    ok, witness = int_member_finite(m2z, [element((0, 2, 2, 2))], f)
    assert ok and witness is None


def test_member_finite_false_returns_witness(m2z):
    f = P(0, half)
    ok, witness = int_member_finite(m2z, [element((0, 4, 1, 2))], f)
    assert not ok
    point, value = witness
    assert point.coords == (0, 4, 1, 2)
    assert value.coords == (0, 2, half, 1)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_member_finite_diagonal_pair(m2z, k):
    f = RationalPolynomial((Fraction(-1, 2), Fraction(1, 2 * k)))  # (X - k) / 2k
    ok, _ = int_member_finite(m2z, [element((k, 0, 0, -k))], f)
    assert ok
    ok, _ = int_member_finite(m2z, [element((0, k, k, 0))], f)
    assert not ok


def test_member_finite_empty_set(m2z):
    with pytest.raises(MalformedInputError):
        int_member_finite(m2z, [], P(0, 1))


def test_member_finite_dim_mismatch(m2z):
    with pytest.raises(DimensionMismatchError):
        int_member_finite(m2z, [element((1, 0))], P(0, 1))


# -- membership over the whole order -----------------------------------------


def test_member_order_integer_poly(z_i):
    assert int_member_order(z_i, P(7, -3, 2))


def test_member_order_zero(z_i):
    assert int_member_order(z_i, RationalPolynomial.zero_poly)


def test_member_order_binomial_on_z(z_line):
    assert int_member_order(z_line, P(0, -half, half))  # X(X-1)/2
    assert not int_member_order(z_line, P(0, half))  # X/2


def test_member_order_gaussian(z_i):
    # (X^4 - X^2)/2 is integer valued on Z[i], (X^2 - X)/2 is not
    assert int_member_order(z_i, P(0, 0, -half, 0, half))
    assert not int_member_order(z_i, P(0, -half, half))


def test_member_order_matrix(m2z):
    assert not int_member_order(m2z, P(0, half))
    # X^2 (X-1)^2 (X^2+X+1) is the lcm of all minimal polynomials mod 2,
    # so its half is integer valued on 2x2 integer matrices
    f = P(0, 0, 1) * P(-1, 1) ** 2 * P(1, 1, 1) * half
    assert int_member_order(m2z, f)
    g = P(0, 1) * P(-1, 1) ** 2 * P(1, 1, 1) * half
    assert not int_member_order(m2z, g)


def test_member_order_budget_error(m2z):
    # X^2/2 on a rank-4 order: the 15 points of the degree-2 simplex beat the
    # 16 residues mod 2, and the budget counts the 15.
    with pytest.raises(BudgetExceededError) as exc:
        int_member_order(m2z, P(0, 0, half), budget=10)
    assert exc.value.required == 15
    assert exc.value.budget == 10
    assert membership_plan(m2z, P(0, 0, half))[2] == 15


def test_member_order_rejects_a_nonpositive_budget(z_i):
    with pytest.raises(MalformedInputError):
        int_member_order(z_i, P(0, half), budget=0)
    # The budget is checked before the early answer for an integer polynomial.
    for budget in (0, -1):
        with pytest.raises(MalformedInputError):
            int_member_order(z_i, P(0, 0, 1), budget=budget)


BIG_PRIME = 10**24 + 7  # 25 digits


def test_member_order_huge_prime_denominator(corpus):
    # X/P needs only the dim + 1 vertices of the degree-1 simplex, however large P is.
    f = P(0, Fraction(1, BIG_PRIME))
    for name, order in corpus.items():
        required = order.dim + 1
        assert membership_plan(order, f)[2] == required, name
        assert int_member_order(order, f, budget=required) is False, name
        with pytest.raises(BudgetExceededError) as exc:
            int_member_order(order, f, budget=required - 1)
        assert exc.value.required == required


def _fresh_import(module):
    """The sorted names in sys.modules after a fresh interpreter imports module."""
    src = pathlib.Path(prufer.__file__).resolve().parent.parent
    out = subprocess.run(
        [sys.executable, "-c", f"import sys, {module}; print(*sorted(sys.modules))"],
        capture_output=True,
        text=True,
        check=True,
        env={"PYTHONPATH": str(src)},
    )
    return out.stdout.split()


def test_import_leaves_numpy_out():
    # prufer.cli imports every module of the package, and none of them numpy.
    loaded = _fresh_import("prufer.cli")
    package = pathlib.Path(prufer.__file__).parent
    assert {f"prufer.{path.stem}" for path in package.glob("*.py") if path.stem != "__init__"} <= set(loaded)
    assert "numpy" not in loaded


def test_import_of_orders_loads_only_what_it_uses():
    # The package root re-exports nothing, so it pulls in no other module.
    loaded = [name for name in _fresh_import("prufer.orders") if name.split(".")[0] == "prufer"]
    assert loaded == ["prufer", "prufer.errors", "prufer.lattice", "prufer.linalg", "prufer.orders", "prufer.poly"]


# Every element of these orders is a root of a monic integer polynomial of
# this degree: the dimension, or the reduced characteristic polynomial's 2
# for M_2(Z) and the Hurwitz order.
MIN_POLY_DEGREE = {
    "cubic_index2": 3,
    "hurwitz": 2,
    "m2z": 2,
    "z": 1,
    "z_3i": 2,
    "z_golden": 2,
    "z_i": 2,
    "z_sqrt5": 2,
    "z_x_mod_x2": 2,
    "zxz": 2,
}


def _int_poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _universal(d, m):
    """prod over p^k || d of prod_(i <= m) (X^(p^i) - X)^k, which maps A into dA."""
    u = [1]
    p = 2
    while d > 1:
        while d % p == 0:
            d //= p
            for i in range(1, m + 1):
                u = _int_poly_mul(u, [0, -1] + [0] * (p**i - 2) + [1])
        p += 1
    return u


def _vanishes_everywhere(order, g, d):
    """g(a) = 0 mod dA for every a in [0, d)^dim, by the multiplication table."""
    n = order.dim
    entries = [
        (i, j, k, t)
        for i, row in enumerate(order.table)
        for j, cell in enumerate(row)
        for k, t in enumerate(cell)
        if t
    ]
    for a in itertools.product(range(d), repeat=n):
        acc = [0] * n
        for c in reversed(g):
            prod = [c * o for o in order.one]
            for i, j, k, t in entries:
                prod[k] += acc[i] * a[j] * t
            acc = [v % d for v in prod]
        if any(acc):
            return False
    return True


@pytest.mark.parametrize("name", sorted(MIN_POLY_DEGREE))
@settings(max_examples=8)
@given(st.data())
def test_member_order_composite_agrees_with_direct_evaluation(corpus, name, data):
    order = corpus[name]
    # Composite d whose d^dim residues stay few enough to evaluate directly.
    d = data.draw(st.sampled_from([d for d in (6, 10, 12, 30, 36) if d**order.dim <= 1300]))
    member = data.draw(st.booleans())
    shift = data.draw(st.integers(0, 10**6))
    h = data.draw(st.lists(st.integers(-50, 50), min_size=1, max_size=3))
    # u * (X + c) + d*h is a member; adding a constant 1..d-1 times X^j makes
    # a non-member, since that constant times the identity is not in dA.
    g = _int_poly_mul(_universal(d, MIN_POLY_DEGREE[name]), [shift % d, 1])
    for i, c in enumerate(h):
        g[i] += d * c
    if not member:
        g[shift % len(g)] += 1 + shift % (d - 1)
    verdict = int_member_order(order, RationalPolynomial([Fraction(c, d) for c in g]))
    assert verdict is member
    assert verdict is _vanishes_everywhere(order, g, d)


@pytest.mark.parametrize("name", sorted(MIN_POLY_DEGREE))
@settings(max_examples=20)
@given(st.data())
def test_prime_modulus_check_agrees_with_evaluation(corpus, name, data):
    order = corpus[name]
    p = data.draw(st.sampled_from([p for p in (2, 3, 5, 7, 11) if p**order.dim <= 2500]))
    if data.draw(st.booleans()):
        g = data.draw(st.lists(st.integers(-20, 20), min_size=1, max_size=12))
    else:
        # prod_(i <= m) (X^(p^i) - X) * h vanishes on A/pA once m reaches
        # the degree of the minimal polynomials; a nudged coefficient and a
        # factor X move it off and on the null ideal.
        m = data.draw(st.integers(1, MIN_POLY_DEGREE[name]))
        h = data.draw(st.lists(st.integers(-5, 5), min_size=1, max_size=3))
        g = _int_poly_mul(_universal(p, m), h)
        if data.draw(st.booleans()):
            g[data.draw(st.integers(0, len(g) - 1))] += data.draw(st.integers(1, p - 1))
        if data.draw(st.booleans()):
            g = [0] + g
    verdict = _vanishes_mod_prime(order, g, p)
    assert verdict is _vanishes_mod(order, g, p, itertools.product(range(p), repeat=order.dim))
    assert verdict is _vanishes_everywhere(order, g, p)


# The null ideal of M_2(F_3) is ((X^9 - X)(X^3 - X)) (Brawley-Carlitz-Levine
# 1975); A/3A is M_2(F_3) for A = M_2(Z) and for the Hurwitz order.
X3_X, X9_X = _universal(3, 1), [0, -1] + [0] * 7 + [1]
NULL_IDEAL_CASES = [
    (_universal(3, 2), True),
    (_int_poly_mul(X9_X, X9_X), True),
    (_int_poly_mul(X9_X, [-1, 0, 1]), False),
    (_int_poly_mul(X3_X, X3_X), False),
]


@pytest.mark.parametrize("name", ["m2z", "hurwitz"])
@pytest.mark.parametrize("g, member", NULL_IDEAL_CASES)
def test_null_ideal_of_2x2_matrices_mod_3(corpus, name, g, member):
    order = corpus[name]
    f = RationalPolynomial([Fraction(c, 3) for c in g])
    assert membership_plan(order, f) == ([3], 1, 81)
    assert int_member_order(order, f) is member


@pytest.mark.parametrize("name", sorted(MIN_POLY_DEGREE))
@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_orbits_partition_the_residues(corpus, name, p):
    order = corpus[name]
    if p**order.dim > 2500:
        pytest.skip("p^dim above 2500")
    one = order.one
    seen = collections.Counter()
    for x in _orbit_representatives(one, p):
        # x = 0 has the orbit {c 1}; every other x has p(p - 1) images.
        scales = range(1, p) if any(x) else [1]
        seen.update(
            tuple((s * a + c * b) % p for a, b in zip(x, one)) for s in scales for c in range(p)
        )
    assert set(seen.values()) == {1}
    assert sorted(seen) == list(itertools.product(range(p), repeat=order.dim))


def _count_relations(patch_everywhere):
    """The minimal polynomials ``modp_span_add`` finds, one per Krylov sequence."""
    relations, original = [], prufer.linalg.modp_span_add

    def counting(rows, v, p):
        if (relation := original(rows, v, p)) is not None:
            relations.append(relation)
        return relation

    patch_everywhere(prufer.linalg, "modp_span_add", counting)
    return relations


def test_prime_modulus_takes_one_minimal_polynomial_per_orbit(m2z, patch_everywhere):
    # 1 + (5^3 - 1)/(5 - 1) = 32 orbits cover the 625 residues of M_2(F_5),
    # and no residue generates it, so the walk takes every orbit.
    relations = _count_relations(patch_everywhere)
    g = _int_poly_mul(_universal(5, 2), [0, 1])
    assert _vanishes_mod_prime(m2z, g, 5)
    assert len(relations) == 32


def test_prime_moduli_dispatch_by_the_residue_ring(m2z, calls_to):
    prime = calls_to(prufer.ivp, "_vanishes_mod_prime", lambda order, nums, q: q)
    horner = calls_to(prufer.ivp, "_vanishes_mod", lambda order, nums, q, points: q)
    null = calls_to(prufer.ivp, "_null_ideal_contains", lambda nums, q, pairs: (q, pairs))
    # d = 20: the prime power 4 goes through Horner, and the prime 5 through
    # the null ideal of M_2(F_5), with no orbit walked.
    g = _int_poly_mul(_universal(20, 2), [0, 1])
    f = RationalPolynomial([Fraction(c, 20) for c in g])
    assert membership_plan(m2z, f)[:2] == ([4, 5], 1)
    assert int_member_order(m2z, f)
    assert (prime, horner, null) == ([], [4], [(5, MATRIX_PAIRS)])


def test_a_generator_mod_p_settles_the_prime_after_one_krylov_sequence(patch_everywhere, calls_to):
    # 2^(1/4) generates A/17A for A = Z[2^(1/4)], and X^4 - 2 is a product of
    # two irreducible quadratics mod 17: the null ideal is (X^289 - X), one
    # division instead of 1 + (17^3 - 1)/16 = 308 orbits.
    order = equation_order(P(-2, 0, 0, 0, 1))
    relations = _count_relations(patch_everywhere)
    degrees = calls_to(prufer.ivp, "modp_degrees", lambda coeffs, p: (tuple(coeffs), p))
    x = P(0, 1)
    x289_x = RationalPolynomial.x_power(289) - x
    assert int_member_order(order, x * x289_x / 17)
    assert relations == [[15, 0, 0, 0, 1]]
    assert degrees == [((15, 0, 0, 0, 1), 17)]
    assert not int_member_order(order, (RationalPolynomial.x_power(17) - x) / 17)
    assert not int_member_order(order, (x289_x + 1) / 17)


@pytest.mark.parametrize("name, p, orbits", [("m2z", 2, 8), ("cubic_index2", 2, 4)])
def test_no_generator_mod_p_walks_every_orbit(corpus, patch_everywhere, calls_to, name, p, orbits):
    # M_2(F_2) has no element of degree 4, and 2 is a common index divisor of
    # cubic_index2 (A/2A = F_2^3): every one of 1 + (p^(n-1) - 1)/(p - 1)
    # orbits is walked, and no null ideal is taken.
    order = corpus[name]
    relations = _count_relations(patch_everywhere)
    null = calls_to(prufer.ivp, "_null_ideal_contains")
    g = _int_poly_mul(_universal(p, MIN_POLY_DEGREE[name]), [0, 1])
    f = RationalPolynomial([Fraction(c, p) for c in g])
    assert membership_plan(order, f)[:2] == ([p], 1)
    assert int_member_order(order, f)
    assert len(relations) == orbits
    assert max(len(mu) for mu in relations) <= order.dim
    assert null == []


def _square_zero_order():
    """Z + Zx + Zy with x^2 = xy = y^2 = 0: mod p every residue has a minimal
    polynomial of degree at most 2, so none generates A/pA."""
    e, z = [(1, 0, 0), (0, 1, 0), (0, 0, 1)], (0, 0, 0)
    return ZOrder(dim=3, table=((e[0], e[1], e[2]), (e[1], z, z), (e[2], z, z)), one=(1, 0, 0))


# Maximal orders of fields of degree 2 to 6: Q(sqrt 3); Q(2^(1/3)); Dedekind's
# cubic X^3 + X^2 - 2X + 8, where 2 is a common index divisor; Q(2^(1/4));
# Q(2^(1/5)); Q(zeta_9), totally ramified at 3.
AGREEMENT_FIELDS = {
    "sqrt3": (-3, 0, 1),
    "cbrt2": (-2, 0, 0, 1),
    "dedekind": (8, -2, 1, 1),
    "root4_2": (-2, 0, 0, 0, 1),
    "root5_2": (-2, 0, 0, 0, 0, 1),
    "zeta9": (1, 0, 0, 1, 0, 0, 1),
}


@pytest.fixture(scope="module")
def agreement_orders(corpus):
    orders = dict(corpus, square_zero=_square_zero_order())
    for name, coeffs in AGREEMENT_FIELDS.items():
        orders[name] = maximal_order(equation_order(P(*coeffs))).order
    return orders


def _walk_every_orbit(order, g, p):
    """The orbit walk without the stop at a generator."""
    passed = set()
    return all(_orbit_divides(g, mu, p, passed) for mu in _orbit_minimal_polynomials(order, p))


def _prime_path(order, p):
    """Which check int_member_order makes at the prime modulus p."""
    if _matrix_primes(order, [p]):
        return "matrix"
    if any(len(mu) > order.dim for mu in _orbit_minimal_polynomials(order, p)):
        return "generator"
    return "walk"


def _check_agreement(order, p, data):
    # A universal g vanishes on A/pA once m reaches the largest degree of a
    # minimal polynomial, at most dim; a nudged coefficient and a factor X
    # move it off and on the null ideal.
    if data.draw(st.booleans()):
        g = data.draw(st.lists(st.integers(-20, 20), min_size=1, max_size=12))
    else:
        m = data.draw(st.integers(1, order.dim))
        h = data.draw(st.lists(st.integers(-5, 5), min_size=1, max_size=3))
        g = _int_poly_mul(_universal(p, m), h)
        if data.draw(st.booleans()):
            g[data.draw(st.integers(0, len(g) - 1))] += data.draw(st.integers(1, p - 1))
        if data.draw(st.booleans()):
            g = [0] + g
    if _matrix_primes(order, [p]):
        verdict = _null_ideal_contains(g, p, MATRIX_PAIRS)
    else:
        verdict = _vanishes_mod_prime(order, g, p)
    assert verdict is _walk_every_orbit(order, g, p)
    assert verdict is _vanishes_mod(order, g, p, itertools.product(range(p), repeat=order.dim))


AGREEMENT_PRIMES = (2, 3, 5, 7, 11, 13)


@pytest.mark.parametrize("name", [*sorted(MIN_POLY_DEGREE), "square_zero", *AGREEMENT_FIELDS])
@settings(max_examples=8)
@given(st.data())
def test_null_ideal_agrees_with_the_orbit_walk_and_evaluation(agreement_orders, name, data):
    order = agreement_orders[name]
    p = data.draw(st.sampled_from([p for p in AGREEMENT_PRIMES if p**order.dim <= 10**4]))
    _check_agreement(order, p, data)


@pytest.mark.parametrize(
    "name, p, path",
    [
        ("z_i", 2, "generator"),  # ramified: F_2[t]/(t^2)
        ("z_3i", 3, "generator"),  # Z[3i]/3 = F_3[t]/(t^2)
        ("z_x_mod_x2", 3, "generator"),
        ("square_zero", 2, "walk"),
        ("square_zero", 3, "walk"),
        ("cubic_index2", 2, "walk"),
        ("dedekind", 2, "walk"),
        ("hurwitz", 2, "walk"),  # even, and not semisimple: no M_2 rule
        ("hurwitz", 3, "matrix"),
        ("m2z", 3, "matrix"),
        ("zeta9", 3, "generator"),
    ],
)
@settings(max_examples=12)
@given(st.data())
def test_null_ideal_agrees_at_the_named_primes(agreement_orders, name, p, path, data):
    order = agreement_orders[name]
    assert _prime_path(order, p) == path
    _check_agreement(order, p, data)


# -- pointwise closure --------------------------------------------------------


def test_pointwise_escaping_witness(m2z):
    res = pointwise_integrally_closed(m2z, element((0, 4, 1, 2)))
    assert not res.closed
    assert res.witness_kind == "escaping"
    assert res.subalgebra_dim == 2
    assert res.witness.coords == (0, 2, half, 1)
    assert minimal_polynomial(m2z, res.witness) == P(-1, -1, 1)


def test_pointwise_closed_point(m2z):
    res = pointwise_integrally_closed(m2z, element((0, 2, 2, 2)))
    assert res.closed
    assert res.witness is None and res.witness_kind is None


def test_pointwise_nilpotent_witness(corpus):
    zx2 = corpus["z_x_mod_x2"]
    res = pointwise_integrally_closed(zx2, element((0, 1)))
    assert not res.closed
    assert res.witness_kind == "nilpotent"
    sq = power(zx2, res.witness, 2)
    assert sq.is_zero
    assert not res.witness.is_zero


def test_pointwise_never_searches(m2z, search_calls):
    # Each irreducible factor g of mu_a spans a field, so round 2 runs on
    # Z[X]/(g) without a primitive-element search.
    res = pointwise_integrally_closed(m2z, element((0, 4, 1, 2)))
    assert res.witness_kind == "escaping"
    assert search_calls == []


def test_pointwise_identity_is_closed(z_i):
    res = pointwise_integrally_closed(z_i, z_i.identity())
    assert res.closed
    assert res.subalgebra_dim == 1


def test_pointwise_rejects_outside_point(z_i):
    with pytest.raises(MalformedInputError):
        pointwise_integrally_closed(z_i, element((half, 0)))


@pytest.mark.parametrize("k", [1, 2, 3])
def test_pointwise_matrix_pairs(m2z, k):
    diag = pointwise_integrally_closed(m2z, element((k, 0, 0, -k)))
    anti = pointwise_integrally_closed(m2z, element((0, k, k, 0)))
    assert diag.closed
    assert not anti.closed
    assert anti.witness_kind == "escaping"
    # the escaping element is idempotent: (a + k)/2k projects onto an eigenline
    assert minimal_polynomial(m2z, anti.witness) == P(0, -1, 1)


def _polynomial_idempotent(g, mu):
    """eps = (1 - s g) mod mu with s g + t (mu/g) = 1: the idempotent of the
    factor g kept as a polynomial, as the pointwise test once did."""
    _, s, _ = poly_xgcd(g, mu // g)
    return (RationalPolynomial.one_poly - s * g) % mu


def _reference_escaping_witness(order, a):
    """The first (x eps mod mu)(a), x on a basis of the maximal order of
    Q[X]/(g) for each factor g of a squarefree mu_a, that lies outside A."""
    mu = minimal_polynomial(order, a)
    for g, _ in poly_factor(mu):
        eps = _polynomial_idempotent(g, mu)
        basis = [element([1])] if g.degree == 1 else maximal_order(equation_order(g)).basis
        for x in basis:
            lift = (RationalPolynomial.from_int_coeffs(x.integer_numerators, x.denominator) * eps) % mu
            b = evaluate_poly(order, lift, a)
            if not b.is_integral_vector:
                return b
    return None


M2Z_POINTS = [(0, 4, 1, 2), (0, 2, 2, 2)] + [(k, 0, 0, -k) for k in (1, 2, 3)] + [(0, k, k, 0) for k in (1, 2, 3)]


@pytest.mark.parametrize(
    "name", ["cubic_index2", "z", "z_3i", "z_golden", "z_i", "z_sqrt5", "z_x_mod_x2", "zxz", "m2z"]
)
def test_pointwise_witness_matches_the_polynomial_idempotent(corpus, name):
    # mu(a) = 0, so x(a) e_i with e_i = (1 - s g)(a) from the one CRT split
    # is exactly the old (x eps mod mu)(a).
    order = corpus[name]
    points = list(itertools.islice(shell_vectors(order.dim, 2), 16)) + (M2Z_POINTS if name == "m2z" else [])
    kinds = []
    for vec in points:
        a = element(vec)
        res = pointwise_integrally_closed(order, a)
        kinds.append(res.witness_kind)
        if res.witness_kind == "nilpotent":
            continue
        mu = minimal_polynomial(order, a)
        factors = [g for g, _ in poly_factor(mu)]
        for g, e in zip(factors, crt_idempotents(order, a, mu, factors)):
            assert e == evaluate_poly(order, _polynomial_idempotent(g, mu), a)
        assert res.witness == _reference_escaping_witness(order, a), vec
    if name in ("z_3i", "z_sqrt5", "m2z"):
        assert "escaping" in kinds


# -- ramification profiles ----------------------------------------------------


def test_profile_construction():
    prof = RamificationProfile(2, ((2, 1),))
    assert prof.E == (2,) and prof.F == (1,)
    assert prof.e_max == 2 and prof.f_max == 1
    assert prof.s == 2 and prof.r == 2
    assert prof.degree == 2


def test_profile_single():
    prof = RamificationProfile.single(5, 1, 1)
    assert prof.pairs == ((1, 1),)
    assert prof.s == 1 and prof.r == 5


def test_profile_normalizes_pair_order():
    prof = RamificationProfile(2, ((1, 2), (2, 1), (1, 1)))
    assert prof.pairs == ((1, 1), (1, 2), (2, 1))


def test_profile_mixed_invariants():
    prof = RamificationProfile(3, ((2, 1), (1, 2)))
    assert prof.s == 2  # max ramification index is 2, s = 2!
    assert prof.r == 9  # max residue degree is 2, r = 3^(2!)
    assert prof.degree == 4


def test_profile_r_is_refused_above_the_digit_cap():
    # 7^(7!) has 4260 digits and still prints; 11^(7!) has 5249 and is
    # refused after it is formed.  3^(13!) would have about 3·10^9 digits:
    # 13! alone refuses it, before any power is taken.
    assert RamificationProfile.single(7, 1, 7).r == 7**5040
    with pytest.raises(BudgetExceededError, match="^BUDGET_EXCEEDED: r = 11\\^\\(7!\\)"):
        RamificationProfile.single(11, 1, 7).r
    with pytest.raises(BudgetExceededError, match="more than 4300 digits"):
        RamificationProfile.single(3, 1, 13).r


def test_profile_validation():
    with pytest.raises(MalformedInputError):
        RamificationProfile(2, ())
    with pytest.raises(MalformedInputError):
        RamificationProfile(2, ((0, 1),))


@pytest.mark.parametrize(
    "name,p,pairs",
    [
        ("z", 2, ((1, 1),)),
        ("z", 7, ((1, 1),)),
        ("z_i", 2, ((2, 1),)),
        ("z_i", 3, ((1, 2),)),
        ("z_i", 5, ((1, 1), (1, 1))),
        ("z_golden", 2, ((1, 2),)),
        ("z_golden", 3, ((1, 2),)),
        ("z_golden", 5, ((2, 1),)),
        ("cubic_index2", 3, ((1, 3),)),
    ],
)
def test_ramification_profiles(corpus, name, p, pairs):
    prof = ramification_profile(corpus[name], p)
    assert prof.pairs == pairs
    assert prof.degree == corpus[name].dim


def test_ramification_gaussian_invariants(z_i):
    prof = ramification_profile(z_i, 2)
    assert (prof.E, prof.F, prof.s, prof.r) == ((2,), (1,), 2, 2)
    prof = ramification_profile(z_i, 5)
    assert (prof.s, prof.r) == (1, 5)
    prof = ramification_profile(z_i, 3)
    assert prof.r == 9


def test_ramification_requires_prime(z_i):
    with pytest.raises(MalformedInputError):
        ramification_profile(z_i, 4)


@pytest.mark.parametrize("p", [1, 4, 91])
def test_profile_requires_prime(z_i, p):
    # At p = 4, (X^4 - X)/4 is 7/2 at X = 2: a composite "prime" gives a
    # transform that is not integer-valued.
    for refuse in (
        lambda: RamificationProfile.single(p, 1, 1),
        lambda: ramification_profile(z_i, p),
    ):
        with pytest.raises(MalformedInputError, match=f"^MALFORMED_INPUT: {p} is not prime$"):
            refuse()


def test_ramification_searches_once(z_i, search_calls):
    ramification_profile(z_i, 5)
    assert search_calls == [2]


def test_ramification_builds_no_equation_order(z_i, calls_to):
    # Dedekind's criterion reads mu alone, and the success path needs no
    # [O : Z[a]]: nothing builds Z[X]/(mu).
    calls = calls_to(prufer.orders, "equation_order")
    assert ramification_profile(z_i, 5).pairs == ((1, 1), (1, 1))
    assert calls == []


def test_ramification_requires_field(zxz):
    # The one field check: the same refusal as the maximal order's.
    with pytest.raises(NotApplicableError, match="^NOT_A_FIELD") as profile_error:
        ramification_profile(zxz, 2)
    with pytest.raises(NotApplicableError) as closure_error:
        maximal_order(zxz)
    assert str(profile_error.value) == str(closure_error.value)


def test_ramification_requires_maximal(z_sqrt5):
    with pytest.raises(NotApplicableError):
        ramification_profile(z_sqrt5, 2)


def test_ramification_essential_index(corpus):
    # no choice of generator avoids index divisible by 2 for this cubic
    with pytest.raises(IndexDivisibleError):
        ramification_profile(corpus["cubic_index2"], 2)


@st.composite
def _ramified_polynomials(draw):
    """Monic irreducible integer polynomials of degree 2 to 5 with a ramified
    shape, as in test_closure's Dedekind cases: X^d + p*(...) + p^k*c, or
    (X - c)^d moved by multiples of p."""
    d = draw(st.integers(2, 5))
    p = draw(st.sampled_from([2, 3, 5, 7]))
    if draw(st.booleans()):
        head = p ** draw(st.integers(1, 3)) * draw(st.sampled_from([1, -1, 2, 3]))
        coeffs = [head] + [p * draw(st.integers(-2, 2)) for _ in range(d - 1)]
    else:
        base = (P(-draw(st.integers(-2, 2)), 1) ** d).integer_numerators
        coeffs = [c + p ** draw(st.integers(1, 3)) * draw(st.integers(-1, 1)) for c in base[:-1]]
    mu = RationalPolynomial.from_int_coeffs(coeffs + [1])
    assume([m for _, m in poly_factor(mu)] == [1])
    return mu


@settings(max_examples=25)
@given(st.one_of(st.sampled_from(["z", "z_i", "z_golden", "z_sqrt5", "z_3i", "cubic_index2"]), _ramified_polynomials()))
def test_index_divisible_exactly_where_p_divides_the_power_index(corpus, field):
    # In a maximal order O, mu_a fails Dedekind's criterion at p exactly when
    # p divides [O : Z[a]]: the refusal must follow the index rule written out.
    order = maximal_order(corpus[field] if isinstance(field, str) else equation_order(field)).order
    a, _ = field_polynomial(order)
    index = power_index(order, a)
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29):
        try:
            ramification_profile(order, p)
            refused = False
        except IndexDivisibleError:
            refused = True
        assert refused == (index % p == 0), (str(field), p, index)


# -- the transform ------------------------------------------------------------


def test_transform_z_at_two():
    prof = RamificationProfile.single(2, 1, 1)
    assert str(pruefer_transform(P(0, 1), prof)) == "-1/2*X + 1/2*X^2"


def test_transform_z_at_three():
    prof = RamificationProfile.single(3, 1, 1)
    assert str(pruefer_transform(P(0, 1), prof)) == "-1/3*X + 1/3*X^3"


def test_transform_ramified_squares():
    # e = 2 forces s = 2: the transform is ((X^2 - X)^2) / 2
    prof = RamificationProfile.single(2, 2, 1)
    assert str(pruefer_transform(P(0, 1), prof)) == "1/2*X^2 - X^3 + 1/2*X^4"


def test_transform_preserves_membership_z(z_line):
    prof = RamificationProfile.single(2, 1, 1)
    f = P(0, -half, half)  # already integer valued
    g = pruefer_transform(f, prof)
    assert int_member_order(z_line, g)


def test_transform_preserves_membership_gaussian(z_i):
    prof = ramification_profile(z_i, 2)
    for f in (P(0, 1), P(3, 1, 2), P(0, 0, 1)):
        g = pruefer_transform(f, prof)
        assert int_member_order(z_i, g)


def test_transform_sequence_golden():
    prof = RamificationProfile.single(2, 1, 1)
    seq = transform_sequence(P(0, 1), prof, 2)
    assert [str(h) for h in seq] == [
        "X",
        "-1/2*X + 1/2*X^2",
        "1/4*X - 1/8*X^2 - 1/4*X^3 + 1/8*X^4",
    ]


def test_transform_degree_cap():
    # deg(f) * r * s is checked before the power is formed.
    with pytest.raises(MalformedInputError, match="degree cap 1000000"):
        pruefer_transform(P(0, 1), RamificationProfile.single(2, 1, 5))
    with pytest.raises(MalformedInputError, match="degree cap"):
        pruefer_transform(P(0, 0, 1), RamificationProfile.single(997, 1, 2))
    # Each sequence step is checked before it is built: f_1 has degree 1009.
    with pytest.raises(MalformedInputError, match="f_2 of the transform sequence would have degree 1018081"):
        transform_sequence(P(0, 1), RamificationProfile.single(1009, 1, 1), 2)
    assert transform_sequence(P(0, 1), RamificationProfile.single(1009, 1, 1), 1)[1].degree == 1009


@pytest.mark.parametrize("k, refused", [(12, False), (13, True)])
def test_transform_sequence_work_is_bounded_before_any_product(monkeypatch, k, refused):
    # deg f_k = 2^k and its coefficients have about 2^k bits: f_13 is refused
    # before a single product, f_12 is still built.
    def no_products(self, other):
        raise AssertionError("a product was formed")

    monkeypatch.setattr(RationalPolynomial, "__mul__", no_products)
    prof = RamificationProfile.single(2, 1, 1)
    if refused:
        with pytest.raises(BudgetExceededError, match="f_13 of the sequence") as exc:
            transform_sequence(P(0, 1), prof, k)
        assert exc.value.budget == TRANSFORM_WORK_CAP < exc.value.required
    else:
        with pytest.raises(AssertionError, match="a product was formed"):
            transform_sequence(P(0, 1), prof, k)


def test_transform_sequence_starts_with_power():
    prof = RamificationProfile.single(2, 2, 1)  # s = 2
    seq = transform_sequence(P(0, 1), prof, 1)
    assert seq[0] == P(0, 1) ** 2
    assert len(seq) == 2


def test_transform_sequence_members_on_z(z_line):
    prof = RamificationProfile.single(2, 1, 1)
    for h in transform_sequence(P(0, 1), prof, 3):
        assert int_member_order(z_line, h)


def test_transform_sequence_rejects_bad_depth():
    prof = RamificationProfile.single(2, 1, 1)
    with pytest.raises(MalformedInputError):
        transform_sequence(P(0, 1), prof, 0)


def test_transform_sequence_refused_before_f_1(monkeypatch):
    # deg f_k = 2^k at p = 2: f_20 is over the cap, and no power is formed.
    def no_power(self, k):
        raise AssertionError("a power was formed before the refusal")

    monkeypatch.setattr(RationalPolynomial, "__pow__", no_power)
    message = "^MALFORMED_INPUT: f_20 of the transform sequence would have degree 1048576, above the cap 1000000$"
    with pytest.raises(MalformedInputError, match=message):
        transform_sequence(P(0, 1), RamificationProfile.single(2, 1, 1), 100)


# -- randomized agreement -----------------------------------------------------


small_polys = st.lists(
    st.fractions(min_value=Fraction(-4), max_value=Fraction(4), max_denominator=3),
    min_size=1,
    max_size=4,
).map(RationalPolynomial)


@given(small_polys)
def test_member_order_agrees_with_direct_evaluation(z_i, f):
    d = f.denominator
    if d**2 > 10**4:
        return
    verdict = int_member_order(z_i, f)
    direct = all(
        evaluate_poly(z_i, f, element((a, b))).is_integral_vector
        for a in range(d)
        for b in range(d)
    )
    assert verdict == direct
