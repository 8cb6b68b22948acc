import json
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from prufer.decision import decide_pruefer
from prufer.errors import (
    DimensionMismatchError,
    MalformedInputError,
    NoIdentityError,
    NonAssociativeError,
    NotApplicableError,
    PruferError,
    UnitLineError,
)
from prufer.orders import (
    AlgebraElement,
    ZOrder,
    element,
    embedded_order,
    equation_order,
    evaluate_poly,
    is_commutative,
    is_reduced,
    load_order,
    minimal_polynomial,
    mul,
    power,
    product_order,
    trace_gram_matrix,
)
import pathlib

from conftest import order_to_dict
from prufer.poly import RationalPolynomial

ORDERS_DIR = pathlib.Path(__file__).resolve().parent.parent / "orders"


def P(*coeffs):
    return RationalPolynomial(coeffs)


def test_corpus_loads(corpus):
    dims = {name: o.dim for name, o in corpus.items()}
    assert dims == {
        "cubic_index2": 3,
        "hurwitz": 4,
        "m2z": 4,
        "z": 1,
        "z_3i": 2,
        "z_golden": 2,
        "z_i": 2,
        "z_sqrt5": 2,
        "z_x_mod_x2": 2,
        "zxz": 2,
    }


def test_load_order_from_path_and_dict(z_i):
    doc = json.loads((ORDERS_DIR / "z_i.json").read_text())
    assert load_order(doc) == z_i


def test_order_to_dict_round_trip(corpus):
    for order in corpus.values():
        assert load_order(order_to_dict(order)) == order


def test_identity_and_zero(z_i):
    assert z_i.identity().coords == (1, 0)
    assert z_i.zero().is_zero
    assert z_i.basis_element(1).coords == (0, 1)


def test_load_rejects_missing_keys():
    with pytest.raises(MalformedInputError):
        load_order({"dim": 2})


def test_load_rejects_a_huge_dim_on_a_small_table():
    # The shape check comes before the default basis names, so a 1 x 1 table
    # claiming dim 10^9 is refused at once instead of exhausting memory.
    start = time.perf_counter()
    with pytest.raises(MalformedInputError):
        load_order({"dim": 10**9, "one": [1], "table": [[[1]]]})
    with pytest.raises(MalformedInputError):
        ZOrder(dim=10**9, table=(((1,),),), one=(1,))
    assert time.perf_counter() - start < 0.5


@pytest.mark.parametrize(
    "field, value",
    [("cell", 1.7), ("cell", True), ("cell", "x"), ("dim", "1")],
    ids=["float", "bool", "str", "dim-str"],
)
def test_zorder_refuses_what_load_order_refuses(field, value):
    # A Python-built order meets the same type checks, with the same message,
    # as the document that describes it.
    doc = {"dim": 1, "one": [1], "table": [[[1]]]}
    if field == "dim":
        doc["dim"] = value
    else:
        doc["table"][0][0] = [value]
    with pytest.raises(MalformedInputError) as loaded:
        load_order(doc)
    table = tuple(tuple(tuple(cell) for cell in row) for row in doc["table"])
    with pytest.raises(MalformedInputError) as built:
        ZOrder(dim=doc["dim"], table=table, one=(1,))
    assert str(built.value) == str(loaded.value)


def test_unit_line_error(zxz):
    with pytest.raises(UnitLineError):
        ZOrder(dim=2, table=zxz.table, one=(2, 2))


def test_no_identity_error(zxz):
    with pytest.raises(NoIdentityError):
        ZOrder(dim=2, table=zxz.table, one=(1, 0))


def test_non_associative_error(m2z):
    # corrupt e12 * e21 from e11 to e22
    rows = [list(map(list, row)) for row in m2z.table]
    rows[1][2] = [0, 0, 0, 1]
    table = tuple(tuple(tuple(c) for c in row) for row in rows)
    with pytest.raises(NonAssociativeError):
        ZOrder(dim=4, table=table, one=m2z.one)


def test_load_order_rejects_a_non_associative_table(m2z):
    doc = order_to_dict(m2z)
    doc["table"][1][2] = [0, 0, 0, 1]  # e12 * e21 -> e22
    with pytest.raises(NonAssociativeError):
        load_order(doc)


def _reference_associativity(table):
    """The triple-product proof: (b_i b_j) b_k and b_i (b_j b_k) as two dense
    vector products per triple, raising at the first triple that differs."""
    n = len(table)

    def mul_coords(x, y):
        out = [0] * n
        for i, xi in enumerate(x):
            if xi == 0:
                continue
            for j, yj in enumerate(y):
                if yj == 0:
                    continue
                for k, t in enumerate(table[i][j]):
                    if t:
                        out[k] += xi * yj * t
        return out

    for i in range(n):
        for j in range(n):
            for k in range(n):
                left = mul_coords(table[i][j], [1 if t == k else 0 for t in range(n)])
                right = mul_coords([1 if t == i else 0 for t in range(n)], table[j][k])
                if left != right:
                    raise NonAssociativeError(f"NON_ASSOCIATIVE: (b{i}*b{j})*b{k} != b{i}*(b{j}*b{k})")


def _proof_outcome(prove, table):
    try:
        prove(table)
    except NonAssociativeError as exc:
        return str(exc)
    return None


def _packed_proof(table):
    # The proof alone, on a table whose other ring axioms may now fail.
    order = object.__new__(ZOrder)
    object.__setattr__(order, "dim", len(table))
    object.__setattr__(order, "table", table)
    order._check_associativity()


def _perturbed(table, rng):
    rows = [[list(cell) for cell in row] for row in table]
    n = len(rows)
    for _ in range(rng.randint(1, 3)):
        cell = rows[rng.randrange(n)][rng.randrange(n)]
        slot = rng.randrange(n)
        kind = rng.randrange(4)
        if kind == 0:
            cell[slot] += rng.choice((1, -1, 2, -2))
        elif kind == 1:
            cell[slot] += rng.randint(-(10**6), 10**6)
        elif kind == 2:
            cell[slot] = rng.choice((1, -1)) * (10**30 + rng.randint(-5, 5))
        else:
            cell[slot] = -cell[slot]
    return tuple(tuple(tuple(cell) for cell in row) for row in rows)


def test_packed_proof_agrees_with_the_triple_products(corpus, equation_product):
    tables = {name: order.table for name, order in corpus.items()}
    for n, a in ((2, 1), (3, -2), (4, 7), (5, -3), (3, 10**30 + 1), (4, -(10**30) + 7)):
        tables[f"X^{n}+{a}"] = equation_order(P(a, *[0] * (n - 1), 1)).table
    tables["dense quartic"] = equation_order(P(10**6, -999_999, 3, -7, 1)).table
    tables["Z[i] x Z[2^(1/3)]"] = equation_product((1, 0, 1), (-2, 0, 0, 1)).table
    rng = random.Random(12)
    failures = raised = 0
    for name, table in tables.items():
        assert _proof_outcome(_packed_proof, table) is None, name
        assert _proof_outcome(_reference_associativity, table) is None, name
        for _ in range(100):
            bad = _perturbed(table, rng)
            expected = _proof_outcome(_reference_associativity, bad)
            raised += expected is not None
            if _proof_outcome(_packed_proof, bad) != expected:
                failures += 1
    assert failures == 0
    # Both outcomes are covered: most perturbations break associativity, and
    # some (negating a zero entry, changes to the one-dimensional Z) do not.
    assert 1000 < raised < 100 * len(tables)


@pytest.mark.parametrize(
    "changes",
    [
        {32: 1},
        # (b1*b31)*b32 - b1*(b31*b32) is then 2 b30 - b31: it packs to 0 in
        # one-bit slots, so a too narrow slot would miss this triple.
        {30: 2, 31: -1},
    ],
)
def test_packed_proof_names_the_first_failing_triple(changes):
    # The last triple (b32*b32)*b32 of X^33 - 2 reads cell (32, 32), and every
    # change to that cell is already seen at an earlier triple: (b1*b31)*b32
    # is the first one to fail.
    table = [[list(cell) for cell in row] for row in equation_order(P(-2, *[0] * 32, 1)).table]
    for slot, delta in changes.items():
        table[32][32][slot] += delta
    table = tuple(tuple(tuple(cell) for cell in row) for row in table)
    message = "NON_ASSOCIATIVE: (b1*b31)*b32 != b1*(b31*b32)"
    with pytest.raises(NonAssociativeError) as exc:
        ZOrder(dim=33, table=table, one=(1,) + (0,) * 32)
    assert str(exc.value) == message
    assert _proof_outcome(_reference_associativity, table) == message


def test_mul_and_power(z_i):
    i = element((0, 1))
    assert mul(z_i, i, i).coords == (-1, 0)
    assert power(z_i, i, 4).coords == (1, 0)
    assert power(z_i, i, 0).coords == (1, 0)
    with pytest.raises(ValueError):
        power(z_i, i, -1)
    for k in (0, 1, 2):
        with pytest.raises(DimensionMismatchError):
            power(z_i, element((0, 1, 0)), k)


# Noncommutative orders too: the powers of one element associate.
@pytest.mark.parametrize("name", ["m2z", "hurwitz", "z_cbrt2_x_z_i"])
@given(data=st.data())
def test_power_is_the_k_fold_product(corpus, equation_product, name, data):
    order = equation_product([-2, 0, 0, 1], [1, 0, 1]) if name == "z_cbrt2_x_z_i" else corpus[name]
    nums = data.draw(st.lists(st.integers(-3, 3), min_size=order.dim, max_size=order.dim))
    x = AlgebraElement(tuple(nums), data.draw(st.sampled_from((1, 2))))
    assert power(order, x, 0) == order.identity()
    product = x
    for k in range(1, 71):
        assert power(order, x, k) == product
        product = mul(order, product, x)


def test_evaluate_poly(z_i):
    i = element((0, 1))
    assert evaluate_poly(z_i, P(1, 0, 1), i).is_zero  # i^2 + 1 = 0
    assert evaluate_poly(z_i, P(Fraction(1, 2)), i).coords == (Fraction(1, 2), 0)


def test_minimal_polynomial_matrix_example(m2z):
    a = element((0, 4, 1, 2))  # the matrix [[0, 4], [1, 2]]
    assert minimal_polynomial(m2z, a) == P(-4, -2, 1)


def test_minimal_polynomial_of_identity(z_golden):
    assert minimal_polynomial(z_golden, z_golden.identity()) == P(-1, 1)


def test_golden_ratio_minimal_polynomial(z_golden):
    w = element((0, 1))
    assert minimal_polynomial(z_golden, w) == P(-1, -1, 1)


def _trace(order, x):
    """Tr(x) = Tr(x * 1), read off the trace form: x^T G one."""
    gram = trace_gram_matrix(order)
    n = order.dim
    return sum(x.coords[i] * gram[i][j] * order.one[j] for i in range(n) for j in range(n))


def test_trace(m2z, z_i):
    # left regular trace doubles the matrix trace on M2
    assert _trace(m2z, m2z.identity()) == 4
    assert _trace(m2z, element((0, 4, 1, 2))) == 4
    assert _trace(z_i, element((0, 1))) == 0


def test_trace_gram_matrix(z_i):
    assert [list(r) for r in trace_gram_matrix(z_i)] == [[2, 0], [0, -2]]


def test_left_regular_matrix_consistent(m2z):
    # column j of the left-regular matrix of a is a * b_j; it acts as a * -,
    # and its trace is the trace the trace form gives
    a = element((0, 4, 1, 2))
    b = element((1, 1, 0, 0))
    n = m2z.dim
    cols = [mul(m2z, a, m2z.basis_element(j)).coords for j in range(n)]
    M = [[cols[j][i] for j in range(n)] for i in range(n)]
    assert tuple(sum(M[i][j] * b.coords[j] for j in range(n)) for i in range(n)) == mul(m2z, a, b).coords
    assert sum(M[i][i] for i in range(n)) == _trace(m2z, a)


def _trace_gram_reference(order):
    """G[i][j] = Tr(b_i b_j), the trace read off column by column:
    the sum over k of coordinate k of (b_i b_j) b_k."""
    n = order.dim
    b = [order.basis_element(i) for i in range(n)]
    return [
        [sum(mul(order, mul(order, b[i], b[j]), b[k]).coords[k] for k in range(n)) for j in range(n)]
        for i in range(n)
    ]


def test_trace_gram_matrix_matches_reference(corpus, equation_product):
    orders = dict(corpus)
    for n in range(3, 13):
        orders[f"X^{n}-2"] = equation_order(P(-2, *[0] * (n - 1), 1))
    orders["Z[i] x Z[2^(1/3)]"] = equation_product((1, 0, 1), (-2, 0, 0, 1))
    for name, order in orders.items():
        assert trace_gram_matrix(order) == _trace_gram_reference(order), name


def test_embedded_order_rejects_bad_spans(z_i):
    # i/2 squares to -1/4, outside the span of 1 and i/2
    with pytest.raises(PruferError):
        embedded_order(z_i, [element((1, 0)), element((0, Fraction(1, 2)))], z_i.identity())
    # 2Z[i] is closed under multiplication but does not contain 1
    with pytest.raises(PruferError):
        embedded_order(z_i, [element((2, 0)), element((0, 2))], z_i.identity())


def test_embedded_order_of_a_sublattice_is_a_new_order(z_i):
    # Z[2i] spans Z^2 over Q and contains 1, but has index 2 in Z[i].
    sub = embedded_order(z_i, [element((1, 0)), element((0, 2))], z_i.identity())
    assert sub.order is not z_i
    assert sub.order.table[1][1] == (-4, 0) and sub.order.discriminant == -16


def test_embedded_order_of_the_own_lattice_needs_the_identity(zxz):
    # (1, 0) is an idempotent of Z x Z, not its identity.
    with pytest.raises(NoIdentityError):
        embedded_order(zxz, [element((1, 0)), element((0, 1))], element((1, 0)))


def test_embedded_order_equals_the_validated_order(z_i, z_sqrt5):
    # Z[i]'s own lattice with its identity is Z[i] itself, on the unit basis.
    own = embedded_order(z_i, [element((1, 0)), element((0, 1))], z_i.identity())
    assert own.order is z_i and own.basis == (element((1, 0)), element((0, 1)))
    # A derived order skips only the associativity proof; it is the same
    # value as the order built, and fully checked, from the same table.
    # Z[(1 + sqrt5)/2] is not z_sqrt5's own lattice.
    derived = embedded_order(z_sqrt5, [element((1, 0)), element(("1/2", "1/2"))], z_sqrt5.identity()).order
    assert derived is not z_sqrt5
    assert derived == ZOrder(dim=2, table=derived.table, one=derived.one)


def test_embedded_order_of_another_unimodular_basis_is_an_equal_copy(z_i):
    # (1, 1), (0, 1) span Z[i]'s own lattice, but only the unit basis is
    # recognised as the order itself: this basis takes the general path and
    # comes back reduced to the unit basis, as a copy with Z[i]'s table.
    own = embedded_order(z_i, [element((1, 1)), element((0, 1))], z_i.identity())
    assert own.order is not z_i
    assert (own.order.dim, own.order.table, own.order.one) == (z_i.dim, z_i.table, z_i.one)
    assert own.basis == z_i.unit_basis


def test_is_commutative(m2z, z_i):
    flag, pair = is_commutative(z_i)
    assert flag and pair is None
    flag, pair = is_commutative(m2z)
    assert not flag
    x, y = pair
    assert mul(m2z, x, y).coords != mul(m2z, y, x).coords


class _Unreadable:
    def __getitem__(self, index):
        raise AssertionError("the table was scanned again")


@pytest.mark.parametrize("name", ["m2z", "z_i", "zxz"])
def test_commutativity_is_scanned_once_per_order(name):
    order = load_order(ORDERS_DIR / f"{name}.json")
    decide_pruefer(order)
    answer = is_commutative(load_order(ORDERS_DIR / f"{name}.json"))
    object.__setattr__(order, "table", _Unreadable())
    assert is_commutative(order) == answer


def test_is_reduced(corpus):
    reduced, (witness, k) = is_reduced(corpus["z_x_mod_x2"])
    assert not reduced
    sq = mul(corpus["z_x_mod_x2"], witness, witness)
    assert sq.is_zero and k == 2
    assert is_reduced(corpus["z_i"]) == (True, None)
    # reducedness is only decided for commutative input; M2(Z) is refused
    with pytest.raises(NotApplicableError, match="^NOT_COMMUTATIVE: "):
        is_reduced(corpus["m2z"])


def test_product_order(corpus):
    p = product_order(corpus["z"], corpus["z"])
    assert p.dim == 2
    assert p.one == (1, 1)
    assert p.table == corpus["zxz"].table


def test_equation_order_matches_golden_corpus(z_golden):
    eo = equation_order(P(-1, -1, 1))
    assert eo.dim == z_golden.dim
    assert eo.table == z_golden.table
    assert eo.one == z_golden.one


def test_equation_order_cubic():
    eo = equation_order(P(1, 2, 0, 1))  # X^3 + 2X + 1
    x = element((0, 1, 0))
    assert minimal_polynomial(eo, x) == P(1, 2, 0, 1)
    assert power(eo, x, 3).coords == (-1, -2, 0)


def test_equation_order_rejects_bad_input():
    with pytest.raises(MalformedInputError):
        equation_order(P(2, 2))  # not monic
    with pytest.raises(MalformedInputError):
        equation_order(P(Fraction(1, 2), 1))  # fractional coefficient
    with pytest.raises(MalformedInputError):
        equation_order(P(5))  # constant


def test_element_helpers():
    x = element((Fraction(1, 2), 3))
    assert x.coords == (Fraction(1, 2), 3)
    assert x.coord_texts() == ["1/2", "3"]
    assert element(["2/4", " 3 "]) == element(["0.5", "3e0"]) == x
    assert x.dim == 2
    assert x.denominator == 2
    assert not x.is_integral_vector
    assert (x + x).coords == (1, 6)
    assert (x - x).is_zero


small_elems = st.lists(st.integers(min_value=-4, max_value=4), min_size=2, max_size=2)
int_polys = st.lists(st.integers(min_value=-3, max_value=3), min_size=1, max_size=4)


@given(small_elems, int_polys)
def test_min_poly_divides_composition(z_golden, coords, fcoeffs):
    # mu_b divides mu_{f(b)} composed with f: both kill b
    b = element(coords)
    f = RationalPolynomial(fcoeffs)
    mu_b = minimal_polynomial(z_golden, b)
    fb = evaluate_poly(z_golden, f, b)
    mu_fb = minimal_polynomial(z_golden, fb)
    # mu_b | mu_fb(f) exactly when mu_fb(f(X)) = 0 in Z[X]/(mu_b).
    eq = equation_order(mu_b)
    x_mod_mu = (RationalPolynomial.x_power(1) % mu_b).integer_numerators
    x = element(x_mod_mu + (0,) * (mu_b.degree - len(x_mod_mu)))
    assert evaluate_poly(eq, mu_fb, evaluate_poly(eq, f, x)).is_zero


@given(small_elems, small_elems)
def test_trace_is_linear(z_i, x_coords, y_coords):
    x, y = element(x_coords), element(y_coords)
    assert _trace(z_i, x + y) == _trace(z_i, x) + _trace(z_i, y)
