import random
from fractions import Fraction
from itertools import islice, product

import pytest
from hypothesis import assume, given, settings, strategies as st

import prufer.splitting
from prufer.decision import decide_pruefer
from prufer.errors import NotApplicableError, SearchExhaustedError
from prufer.factor import poly_factor
from prufer.linalg import bareiss_det
from prufer.orders import (
    AlgebraElement,
    ZOrder,
    element,
    equation_order,
    evaluate_poly,
    minimal_polynomial,
    mul,
    power_span,
    product_order,
)
from prufer.poly import RationalPolynomial
from prufer.splitting import (
    Decomposition,
    component_order,
    crt_idempotents,
    decompose,
    find_primitive_element,
    shell_vectors,
)


def P(*coeffs):
    return RationalPolynomial(coeffs)


def test_shell_vectors_start():
    vs = list(shell_vectors(2, 1))
    assert vs[0] == (1, 0)
    assert len(vs) == 8  # zero vector is skipped
    assert set(vs) == {(a, b) for a in (-1, 0, 1) for b in (-1, 0, 1)} - {(0, 0)}


def test_shell_vectors_deterministic():
    assert list(shell_vectors(3, 2)) == list(shell_vectors(3, 2))


def _reference_shell_vectors(dim, shell_max):
    """The shell walk with its norm computed as max |c|, uncapped."""
    for m in range(1, shell_max + 1):
        values = [0] + [s * v for v in range(1, m + 1) for s in (1, -1)]
        for rev in product(values, repeat=dim):
            vec = rev[::-1]
            if max(abs(c) for c in vec) == m:
                yield vec


@pytest.mark.parametrize("dim", range(1, 6))
@pytest.mark.parametrize("shell_max", range(1, 4))
def test_shell_vectors_match_reference(dim, shell_max):
    assert list(shell_vectors(dim, shell_max)) == list(_reference_shell_vectors(dim, shell_max))


def test_shell_vectors_stop_at_the_cap(monkeypatch):
    assert sum(1 for _ in shell_vectors(16, 1)) == prufer.splitting.SEARCH_CAP
    monkeypatch.setattr(prufer.splitting, "SEARCH_CAP", 50)
    assert list(shell_vectors(3, 3)) == list(islice(_reference_shell_vectors(3, 3), 50))


def test_find_primitive_element(z_i, zxz):
    a, mu_a, _ = find_primitive_element(z_i)
    assert minimal_polynomial(z_i, a) == mu_a == P(1, 0, 1)
    b, mu_b, _ = find_primitive_element(zxz)
    assert minimal_polynomial(zxz, b) == mu_b and mu_b.degree == 2


def test_decompose_refuses_non_reduced(corpus):
    with pytest.raises(NotApplicableError):
        decompose(corpus["z_x_mod_x2"])


GAUSS = (1, 0, 1)
SQRT2 = (-2, 0, 1)
SQRT5 = (-5, 0, 1)
THREE_I = (9, 0, 1)
CBRT2 = (-2, 0, 0, 1)
CBRT3 = (-3, 0, 0, 1)
QRT3 = (-3, 0, 0, 0, 1)

# The first primitive element in shell order on products of equation orders,
# as the minimal-polynomial search found it.
PRODUCT_PRIMITIVES = [
    ((GAUSS, SQRT2), (0, 1, 0, 1)),
    ((SQRT5, CBRT2), (0, 1, 0, 1, 0)),
    ((GAUSS, QRT3), (0, 1, 0, 1, 0, 0)),
    ((CBRT2, CBRT3), (0, 1, 0, 0, 1, 0)),
    ((QRT3, CBRT2), (0, 1, 0, 0, 0, 1, 0)),
    ((SQRT2, THREE_I, CBRT2), (0, 1, 0, 1, 0, 1, 0)),
    ((GAUSS, SQRT5, CBRT2), (0, 1, 0, 1, 0, 1, 0)),
    ((GAUSS, CBRT2, QRT3), (0, 1, 0, 1, 0, 0, 1, 0, 0)),
]


@pytest.mark.parametrize("polys, expected", PRODUCT_PRIMITIVES)
def test_find_primitive_element_on_products(equation_product, polys, expected):
    a, _, _ = find_primitive_element(equation_product(*polys))
    assert a.coords == expected


def _krylov_rows(order, vec, count):
    """The coordinates of 1, a, ..., a^(count-1), one product at a time."""
    a, rows = AlgebraElement(tuple(vec)), [order.identity()]
    while len(rows) < count:
        rows.append(mul(order, rows[-1], a))
    return [list(x.integer_numerators) for x in rows]


def _reference_primitive(order):
    """The first shell vector whose Krylov rows 1, a, ..., a^(n-1) have a
    nonzero determinant: the search without the subalgebra skip."""
    n = order.dim
    if n == 1:
        return order.identity()
    for vec in shell_vectors(n, shell_max=max(4, n)):
        if bareiss_det(_krylov_rows(order, vec, n)) != 0:
            return AlgebraElement(vec)
    raise SearchExhaustedError("no primitive element")


COMMUTATIVE_CORPUS = ("cubic_index2", "z", "z_3i", "z_golden", "z_i", "z_sqrt5", "z_x_mod_x2", "zxz")


def _reference_cases():
    cases = [pytest.param("corpus", name, id=name) for name in COMMUTATIVE_CORPUS]
    cases += [pytest.param("product", polys, id=f"product-{k}") for k, (polys, _) in enumerate(PRODUCT_PRIMITIVES)]
    cases += [pytest.param("poly", f"X^{n}-2", id=f"X^{n}-2") for n in range(2, 13)]
    cases.append(pytest.param("nilpotent_x_gauss", None, id="z_x_mod_x2 x Z[i]"))
    return cases


@pytest.mark.parametrize("kind, spec", _reference_cases())
def test_search_matches_reference(corpus, equation_product, kind, spec):
    if kind == "corpus":
        order = corpus[spec]
    elif kind == "product":
        order = equation_product(*spec)
    elif kind == "poly":
        order = equation_order(RationalPolynomial.parse(spec))
    else:
        order = product_order(corpus["z_x_mod_x2"], corpus["z_i"])
    a, mu, _ = find_primitive_element(order)
    assert a == _reference_primitive(order)
    # The search returns the minimal polynomial it eliminated on the way.
    assert mu == minimal_polynomial(order, a)


def test_dimension_12_product_tests_few_candidates(calls_to, equation_product):
    # Z[2^(1/3)] x Z[3^(1/4)] x Z[5^(1/5)]: the primitive element is shell
    # candidate 6645; the candidates before it lie in few subalgebras.
    order = equation_product(CBRT2, QRT3, (-5, 0, 0, 0, 0, 1))
    calls = calls_to(prufer.splitting, "power_span")
    a, _, _ = find_primitive_element(order)
    assert a.coords == (0, 1, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0)
    assert len(calls) == 14


def test_z6_search_tests_one_candidate_per_rejected_subalgebra(calls_to, corpus):
    # The unital subalgebras of Q^6 are the Bell(6) = 203 partitions of the
    # coordinates.  Each proper one except Q (inside every span) rejects one
    # candidate, and the primitive element is one more exact test: 202.
    order = corpus["z"]
    for _ in range(5):
        order = product_order(order, corpus["z"])
    calls = calls_to(prufer.splitting, "power_span")
    a, mu, _ = find_primitive_element(order)
    assert a.coords == (3, -2, 2, -1, 1, 0)
    assert len(calls) == 202
    assert mu == minimal_polynomial(order, a)


def test_dimension_16_product_exhausts_the_search(equation_product):
    # Z[i] x Z[sqrt 2] x Z[2^(1/3)] x Z[3^(1/4)] x Z[5^(1/5)] is YES, but the
    # first SEARCH_CAP shell vectors are all 0 on the last block, so none
    # generates Z[5^(1/5)].
    order = equation_product(GAUSS, SQRT2, CBRT2, QRT3, (-5, 0, 0, 0, 0, 1))
    with pytest.raises(SearchExhaustedError):
        find_primitive_element(order)


def test_square_zero_plane_has_no_primitive_element():
    # Q[x, y]/(x, y)^2 on the basis 1, x, y: every (a - c)^2 = 0 for the
    # scalar part c of a, so no element has a minimal polynomial of degree 3.
    e0, e1, e2, zero = (1, 0, 0), (0, 1, 0), (0, 0, 1), (0, 0, 0)
    order = ZOrder(dim=3, table=((e0, e1, e2), (e1, zero, zero), (e2, zero, zero)), one=e0)
    with pytest.raises(SearchExhaustedError):
        find_primitive_element(order)


AGREEMENT_ORDERS = ("cubic_index2", "z", "z_3i", "z_golden", "z_i", "z_sqrt5", "z_x_mod_x2", "zxz", "product")


@given(st.sampled_from(AGREEMENT_ORDERS), st.data())
def test_krylov_test_matches_minimal_polynomial(corpus, equation_product, name, data):
    order = equation_product(GAUSS, CBRT2) if name == "product" else corpus[name]
    n = order.dim
    vec = data.draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n))
    span, rel = power_span(order, vec)
    powers = _krylov_rows(order, vec, n + 1)
    # a is primitive exactly when the n Krylov rows have a nonzero determinant.
    assert (span.rank == n) == (bareiss_det(powers[:n]) != 0)
    # The relation kills the powers, and the span is Q[a]: it has dimension
    # deg(mu_a) and holds a and 1.
    assert [sum(c * row[j] for c, row in zip(rel, powers)) for j in range(n)] == [0] * n
    assert span.rank == len(rel) - 1 == minimal_polynomial(order, element(vec)).degree
    assert vec in span and order.one in span


def test_krylov_test_on_nilpotent_algebra(corpus):
    # Z[X]/(X^2): c0 + c1*X generates the algebra exactly when c1 != 0.
    order = corpus["z_x_mod_x2"]
    assert power_span(order, (0, 1))[0].rank == 2
    assert power_span(order, (5, -2))[0].rank == 2
    span, rel = power_span(order, (3, 0))
    assert rel == [-3, 1]
    assert span.rank == 1 and (7, 0) in span and (0, 1) not in span


def test_decompose_field(z_i):
    dec = decompose(z_i)
    assert len(dec.factors) == 1
    assert dec.min_poly == P(1, 0, 1)
    assert dec.idempotents == (z_i.identity(),)


def test_decompose_split_algebra(zxz):
    dec = decompose(zxz)
    assert len(dec.factors) == 2
    assert all(f.degree == 1 for f in dec.factors)
    assert set(e.coords for e in dec.idempotents) == {(1, 0), (0, 1)}


def test_decompose_idempotent_identities(zxz):
    dec = decompose(zxz)
    es = dec.idempotents
    total = es[0]
    for e in es[1:]:
        total = total + e
    assert total.coords == zxz.identity().coords
    for i, e in enumerate(es):
        assert mul(zxz, e, e).coords == e.coords
        for j, f in enumerate(es):
            if i != j:
                assert mul(zxz, e, f).is_zero


def test_idempotents_in_order(zxz):
    # Z x Z holds its idempotents, so no IDEMPOTENT_ESCAPES: the answer is YES.
    assert all(e.is_integral_vector for e in decompose(zxz).idempotents)
    assert decide_pruefer(zxz).reason == "ALL_COMPONENTS_MAXIMAL"


def test_idempotent_escapes():
    # Z[X]/((X-1)(X-3)): the idempotents live at (X-3)/(1-3) and (X-1)/2
    eo = equation_order(P(3, -4, 1))
    cert = decide_pruefer(eo)
    assert cert.reason == "IDEMPOTENT_ESCAPES"
    witness = element([Fraction(c) for c in cert.witness["element"]])
    assert witness in decompose(eo).idempotents
    assert not witness.is_integral_vector
    sq = mul(eo, witness, witness)
    assert sq.coords == witness.coords


def test_component_order_projects(zxz):
    dec = decompose(zxz)
    comp = component_order(zxz, dec, 0)
    assert comp.order.dim == 1
    lifted = comp.to_ambient(comp.order.identity())
    assert lifted.coords in {(1, 0), (0, 1)}


def test_component_order_of_quadratic_field(z_sqrt5):
    dec = decompose(z_sqrt5)
    assert len(dec.factors) == 1
    comp = component_order(z_sqrt5, dec, 0)
    assert comp.order.dim == 2
    # the component of a field algebra is the whole thing, re-expressed
    x = comp.to_ambient(comp.order.basis_element(1))
    assert minimal_polynomial(z_sqrt5, x).degree == 2


@st.composite
def split_polynomials(draw):
    roots = draw(st.lists(st.integers(min_value=-5, max_value=5), min_size=2, max_size=3, unique=True))
    f = RationalPolynomial.one_poly
    for r in roots:
        f = f * P(-r, 1)
    return f


@given(split_polynomials())
def test_idempotent_identities_randomized(f):
    eo = equation_order(f)
    dec = decompose(eo)
    assert len(dec.factors) == f.degree
    es = dec.idempotents
    total = es[0]
    for e in es[1:]:
        total = total + e
    assert total.coords == eo.identity().coords
    for i, e in enumerate(es):
        assert mul(eo, e, e).coords == e.coords
        for j, g in enumerate(es):
            if i != j:
                assert mul(eo, e, g).is_zero


@given(split_polynomials())
def test_idempotents_kill_complementary_factors(f):
    eo = equation_order(f)
    dec = decompose(eo)
    for e, g in zip(dec.idempotents, dec.factors):
        # e acts as 1 on its component, so g(x) * e = 0 in the algebra
        x = element(tuple([0, 1] + [0] * (eo.dim - 2)))
        gx = evaluate_poly(eo, g, x)
        assert mul(eo, gx, e).is_zero


def _reference_decomposition(order):
    """The split made by factoring the whole mu_a and taking every idempotent
    from one CRT over Q[a]."""
    a, mu, _ = find_primitive_element(order)
    factors = tuple(g for g, _ in poly_factor(mu))
    return Decomposition(a, mu, factors, crt_idempotents(order, a, mu, factors))


def _base_change(order, seed):
    """The order on the basis c = U b for a seeded unimodular U, made of 3n
    moves row_i += s row_j with s in {-1, 0, 1}; V = U^-1 takes coordinates
    on b to coordinates on c."""
    n, rng = order.dim, random.Random(seed)
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    v = [row[:] for row in u]
    for _ in range(3 * n):
        i, j = rng.sample(range(n), 2)
        s = rng.choice((-1, 0, 1))
        u[i] = [x + s * y for x, y in zip(u[i], u[j])]
        for row in v:
            row[j] -= s * row[i]

    def to_c(w):
        return tuple(sum(w[k] * v[k][m] for k in range(n)) for m in range(n))

    def product_on_b(x, y):
        return [sum(x[p] * y[q] * order.table[p][q][k] for p in range(n) for q in range(n)) for k in range(n)]

    table = tuple(tuple(to_c(product_on_b(u[i], u[j])) for j in range(n)) for i in range(n))
    return ZOrder(dim=n, table=table, one=to_c(order.one))


PRODUCT_POOL = (GAUSS, SQRT2, SQRT5, THREE_I, CBRT2, CBRT3, QRT3)


@settings(max_examples=25)
@given(st.lists(st.sampled_from(PRODUCT_POOL), min_size=2, max_size=4))
def test_decompose_matches_factoring_mu_whole(equation_product, polys):
    # Repeats and equal degrees included: Z[i] x Z[sqrt 2], Z[i] x Z[i], ...
    assume(sum(len(f) - 1 for f in polys) <= 12)
    order = equation_product(*polys)
    assert decompose(order) == _reference_decomposition(order)


@pytest.mark.parametrize("k", range(1, 6))
def test_decompose_of_z_power_matches_factoring_mu_whole(corpus, k):
    order = corpus["z"]
    for _ in range(k - 1):
        order = product_order(order, corpus["z"])
    assert decompose(order) == _reference_decomposition(order)


@pytest.mark.parametrize("name", [name for name in COMMUTATIVE_CORPUS if name != "z_x_mod_x2"])
def test_decompose_of_corpus_matches_factoring_mu_whole(corpus, name):
    assert decompose(corpus[name]) == _reference_decomposition(corpus[name])


@pytest.mark.parametrize(
    "polys, seed, crt_degrees",
    [((GAUSS, SQRT2, CBRT2), 1, [5]), ((SQRT5, CBRT2, QRT3), 2, [7]), ((GAUSS, THREE_I, CBRT3), 3, [7])],
)
def test_decompose_in_a_skew_basis_matches_factoring_mu_whole(calls_to, equation_product, polys, seed, crt_degrees):
    # No idempotent is a shell vector here.  In the first two the search's one
    # cut leaves a block of two components, of dimension 5 in 7 and 7 in 9,
    # which the CRT splits; the third has no cut and one CRT over all of Q[a].
    order = _base_change(equation_product(*polys), seed)
    crt = calls_to(prufer.splitting, "crt_idempotents", lambda order, a, mu, factors: mu.degree)
    dec = decompose(order)
    assert crt == crt_degrees
    assert dec == _reference_decomposition(order)


def test_product_splits_along_rejected_zero_divisors(calls_to, equation_product):
    # Z[i] x Z[2^(1/3)] x Z[3^(1/4)]: the search rejects the zero divisors
    # that cut out all three blocks, so each block's mu is already a factor.
    order = equation_product(GAUSS, CBRT2, QRT3)
    degrees = calls_to(prufer.splitting, "poly_factor", lambda f: f.degree)
    crt = calls_to(prufer.splitting, "crt_idempotents")
    assert decide_pruefer(order).verdict == "YES"
    assert sorted(degrees) == [2, 3, 4]
    assert crt == []


def _flat_walk(order):
    """The search as one flat walk: every shell vector in turn, skipped when
    some rejected span's annihilators all vanish on it.  Returns the vectors
    it tested exactly and (a, mu_a, cuts)."""
    n, tested, rejected, cuts = order.dim, [], [], {}
    if n == 1:
        return tested, (order.identity(), RationalPolynomial((-1, 1)), ())
    for vec in shell_vectors(n, max(4, n)):
        if any(all(sum(a * x for a, x in zip(f, vec)) == 0 for f in fs) for _, fs in rejected):
            continue
        tested.append(vec)
        span, relation = power_span(order, vec)
        if span.rank == n:
            return tested, (AlgebraElement(vec), RationalPolynomial.from_int_coeffs(relation, relation[-1]), tuple(cuts))
        if relation[0] == 0 != relation[1]:
            h_b = tuple(sum(c * x for c, x in zip(relation[1:], column)) for column in zip(*span.kept))
            cuts[AlgebraElement(h_b, relation[1])] = None
        rejected = [(b, fs) for b, fs in rejected if b not in span]
        rejected.append((vec, span.annihilators))
    raise SearchExhaustedError("no primitive element")


def _assert_walk_matches_flat_walk(order):
    # Wrapped by hand, not with ``calls_to``: hypothesis refuses
    # function-scoped fixtures, whose state would carry over between examples.
    tested, expected = _flat_walk(order)
    walked = []

    def recording(order, vec):
        walked.append(tuple(vec))
        return power_span(order, vec)

    prufer.splitting.power_span = recording
    try:
        assert find_primitive_element(order) == expected
    finally:
        prufer.splitting.power_span = power_span
    assert walked == tested


@settings(max_examples=30)
@given(st.lists(st.sampled_from(PRODUCT_POOL), min_size=2, max_size=4), st.none() | st.integers(0, 29))
def test_walk_matches_the_flat_walk_on_products(equation_product, polys, seed):
    # Skipping a subtree of the walk skips only vectors the flat walk skips
    # one at a time, in the standard basis and in skew ones.
    assume(sum(len(f) - 1 for f in polys) <= 12)
    order = equation_product(*polys)
    _assert_walk_matches_flat_walk(order if seed is None else _base_change(order, seed))


@pytest.mark.parametrize("k", range(1, 6))
def test_walk_matches_the_flat_walk_on_z_powers(corpus, k):
    order = corpus["z"]
    for _ in range(k - 1):
        order = product_order(order, corpus["z"])
    _assert_walk_matches_flat_walk(order)


@pytest.mark.parametrize("name", [name for name in COMMUTATIVE_CORPUS if name != "z_x_mod_x2"])
def test_walk_matches_the_flat_walk_on_the_corpus(corpus, name):
    _assert_walk_matches_flat_walk(corpus[name])


@pytest.mark.parametrize("cap, found", [(6644, False), (6645, True)])
def test_skipped_subtrees_count_toward_the_cap(monkeypatch, equation_product, cap, found):
    # The primitive element is the 6645th shell vector; all but 14 of the
    # vectors before it lie in skipped subtrees or rejected spans.
    order = equation_product(CBRT2, QRT3, (-5, 0, 0, 0, 0, 1))
    monkeypatch.setattr(prufer.splitting, "SEARCH_CAP", cap)
    if found:
        assert find_primitive_element(order)[0].coords == (0, 1, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0)
    else:
        with pytest.raises(SearchExhaustedError):
            find_primitive_element(order)


@pytest.mark.parametrize(
    "polys, found, max_checks",
    [
        ((CBRT2, QRT3, (-5, 0, 0, 0, 0, 1)), True, 50),
        ((GAUSS, SQRT2, CBRT2, QRT3, (-5, 0, 0, 0, 0, 1)), False, 1000),
    ],
)
def test_search_checks_few_vectors(calls_to, equation_product, polys, found, max_checks):
    # The work, not the time: the walk hands few vectors to the per-vector
    # membership check, on the dimension-12 product that finds its element
    # (6645 shell vectors) and on the dimension-16 one that reaches the cap.
    order = equation_product(*polys)
    checks = calls_to(prufer.splitting, "_inside")
    if found:
        find_primitive_element(order)
    else:
        with pytest.raises(SearchExhaustedError):
            find_primitive_element(order)
    assert 0 < len(checks) <= max_checks
