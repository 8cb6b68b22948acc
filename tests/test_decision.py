import json
import re
import time
from fractions import Fraction

import pytest
from hypothesis import assume, given, strategies as st

import prufer.closure
import prufer.decision
import prufer.lattice
import prufer.linalg
import prufer.orders
import prufer.splitting
from prufer.decision import PrueferCertificate, decide_pruefer, verify_certificate
from prufer.errors import (
    BudgetExceededError,
    DiscFactorizationError,
    FactorDegreeError,
    IndeterminateError,
    IndexDivisibleError,
    MalformedCertificateError,
    SearchExhaustedError,
)
from prufer.lattice import hnf_reduce
from prufer.orders import ZOrder, element, embedded_order, equation_order, load_order, product_order
from prufer.poly import RationalPolynomial


def P(*coeffs):
    return RationalPolynomial(coeffs)


EXPECTED = {
    "m2z": ("NO", "NONCOMMUTATIVE"),
    "hurwitz": ("NO", "NONCOMMUTATIVE"),
    "z_x_mod_x2": ("NO", "NOT_REDUCED"),
    "z_sqrt5": ("NO", "COMPONENT_NOT_MAXIMAL"),
    "z_3i": ("NO", "COMPONENT_NOT_MAXIMAL"),
    "z_i": ("YES", "ALL_COMPONENTS_MAXIMAL"),
    "z_golden": ("YES", "ALL_COMPONENTS_MAXIMAL"),
    "zxz": ("YES", "ALL_COMPONENTS_MAXIMAL"),
    "z": ("YES", "ALL_COMPONENTS_MAXIMAL"),
    "cubic_index2": ("YES", "ALL_COMPONENTS_MAXIMAL"),
}


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_corpus_verdicts(corpus, name):
    cert = decide_pruefer(corpus[name])
    assert (cert.verdict, cert.reason) == EXPECTED[name]
    assert verify_certificate(corpus[name], cert)


def test_sqrt5_witness_is_golden_ratio(z_sqrt5):
    cert = decide_pruefer(z_sqrt5)
    assert cert.witness["element"] == ["1/2", "1/2"]
    assert cert.witness["min_poly"] == "-1 - X + X^2"


def test_z3i_witness_is_i(corpus):
    cert = decide_pruefer(corpus["z_3i"])
    assert cert.witness["element"] == ["0", "1/3"]
    assert cert.witness["min_poly"] == "1 + X^2"


def test_noncommutative_witness_pair(m2z):
    cert = decide_pruefer(m2z)
    assert set(cert.witness) == {"x", "y"}
    assert cert.citation == "commutators-obstruct-integral-closure"


def test_not_reduced_witness(corpus):
    cert = decide_pruefer(corpus["z_x_mod_x2"])
    assert set(cert.witness) == {"element", "power"}


def test_is_reduced_runs_once_per_decision(monkeypatch, corpus):
    calls = []
    original = prufer.decision.is_reduced

    def counting(order):
        calls.append(order)
        return original(order)

    monkeypatch.setattr(prufer.decision, "is_reduced", counting)
    for name in ("z_i", "zxz", "z_sqrt5", "cubic_index2", "z_x_mod_x2"):
        calls.clear()
        decide_pruefer(corpus[name])
        assert len(calls) == 1, name


def test_primitive_element_search_runs_once_per_decision(search_calls, equation_product):
    # Z[i] x Z[2^(1/3)] x Z[3^(1/4)]: each component A e_i spans a field by
    # construction, so round 2 on it neither searches nor factors again.
    order = equation_product((1, 0, 1), (-2, 0, 0, 1), (-3, 0, 0, 0, 1))
    cert = decide_pruefer(order)
    assert cert.verdict == "YES"
    assert search_calls == [9]


def test_derived_orders_skip_the_associativity_proof(monkeypatch):
    # Components and round-2 overorders are the ambient product restricted to
    # a closed lattice, so they inherit associativity from the order itself.
    order = equation_order(P(-2, *[0] * 11, 1))
    calls = []
    original = ZOrder._check_associativity

    def counting(self):
        calls.append(self.dim)
        original(self)

    monkeypatch.setattr(ZOrder, "_check_associativity", counting)
    cert = decide_pruefer(order)
    assert verify_certificate(order, cert)
    assert calls == []
    # A table from outside the program is still proved associative.
    ZOrder(dim=order.dim, table=order.table, one=order.one)
    assert calls == [12]


@pytest.fixture
def order_work(monkeypatch, calls_to):
    """The trace Gram matrices built, the determinants taken, the orders
    ``ZOrder._derived`` copies and the ``power_index`` calls, each as a list
    with one entry per call."""
    derived = []
    original = ZOrder._derived

    def counting(cls, dim, table, one):
        derived.append(dim)
        return original(dim, table, one)

    monkeypatch.setattr(ZOrder, "_derived", classmethod(counting))
    return {
        "gram": calls_to(prufer.orders, "trace_gram_matrix", lambda order: order.dim),
        "det": calls_to(prufer.linalg, "bareiss_det", len),
        "derived": derived,
        "index": calls_to(prufer.closure, "power_index"),
    }


def _work(order_work):
    return {name: len(calls) for name, calls in order_work.items()}


def test_a_field_is_its_own_component_and_keeps_its_discriminant(order_work):
    # X^12 - 2 spans a field: its one component is the order itself, whose
    # discriminant is_reduced computes once for the decision and the
    # verifier alike, and Dedekind's criterion settles every prime, so the
    # verifier never needs [A : Z[a]].
    order = equation_order(P(-2, *[0] * 11, 1))
    cert = decide_pruefer(order)
    assert verify_certificate(order, cert)
    assert _work(order_work) == {"gram": 1, "det": 1, "derived": 0, "index": 0}


def test_a_product_computes_each_component_discriminant_once_per_order(order_work, equation_product):
    # Z[i] x Z[2^(1/3)] x Z[3^(1/4)]: one Gram matrix and determinant for the
    # product, and one for each of the three components the decision derives
    # and the three the verifier derives from the certificate.
    order = equation_product((1, 0, 1), (-2, 0, 0, 1), (-3, 0, 0, 0, 1))
    cert = decide_pruefer(order)
    assert verify_certificate(order, cert)
    assert _work(order_work) == {"gram": 7, "det": 7, "derived": 6, "index": 0}
    assert order_work["gram"] == [9, 2, 3, 4, 2, 3, 4]


@pytest.fixture
def embedding_work(order_work, calls_to):
    """The Hermite reductions, the ``embedded_order`` calls, the
    ``ZOrder._derived`` copies and the power walks, each as a list with one
    entry per call."""
    return {
        "hnf": calls_to(prufer.lattice, "hnf_reduce", lambda *args, **kwargs: len(args[0])),
        "embedded": calls_to(prufer.orders, "embedded_order"),
        "derived": order_work["derived"],
        "power_span": calls_to(prufer.orders, "power_span"),
    }


def test_a_field_puts_no_unit_basis_through_a_hermite_reduction(embedding_work):
    # X^12 - 2 is its own one component.  Round 2 starts from the order
    # itself, and the decision's and the verifier's embedded_order see its
    # unit basis and return it unreduced; the one HNF is the verifier's check
    # that the component bases tile A.
    order = equation_order(P(-2, *[0] * 11, 1))
    cert = decide_pruefer(order)
    assert verify_certificate(order, cert)
    assert _work(embedding_work) == {"hnf": 1, "embedded": 2, "derived": 0, "power_span": 2}


def test_a_product_reduces_only_its_components(embedding_work, equation_product):
    # Z[i] x Z[2^(1/3)] x Z[3^(1/4)]: three components derived by the decision
    # and three by the verifier, each from one HNF, plus the tiling check.
    # The three block polynomials are power walks from their blocks.
    order = equation_product((1, 0, 1), (-2, 0, 0, 1), (-3, 0, 0, 0, 1))
    cert = decide_pruefer(order)
    assert verify_certificate(order, cert)
    assert _work(embedding_work) == {"hnf": 7, "embedded": 6, "derived": 6, "power_span": 17}


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_decompose_runs_once_per_decision(calls_to, corpus, name):
    calls = calls_to(prufer.splitting, "decompose")
    decide_pruefer(corpus[name])
    assert len(calls) == (EXPECTED[name][1] not in ("NONCOMMUTATIVE", "NOT_REDUCED"))


# Certificates of the eight products of equation orders in the benchmark's
# `products` workload, byte for byte as the minimal-polynomial primitive-element
# search produced them when mu_a was factored whole.
PRODUCT_CERTIFICATES = [
    (
        ((1, 0, 1), (-2, 0, 0, 1), (-3, 0, 0, 0, 1)),
        '{"verdict": "YES", "reason": "ALL_COMPONENTS_MAXIMAL", "witness": {"primitive": ["0", "1", "0", "1", "0", "0", "1", "0", "0"], '
        '"min_poly": "6 + 6*X^2 - 3*X^3 - 2*X^4 - 3*X^5 - 2*X^6 + X^7 + X^9", '
        '"idempotents": [["1", "0", "0", "0", "0", "0", "0", "0", "0"], ["0", "0", "1", "0", "0", "0", "0", "0", "0"], ["0", "0", "0", "0", "0", "1", "0", "0", "0"]], '
        '"components": [{"factor": "1 + X^2", "dim": 2, "basis": [["1", "0", "0", "0", "0", "0", "0", "0", "0"], ["0", "1", "0", "0", "0", "0", "0", "0", "0"]]}, '
        '{"factor": "-2 + X^3", "dim": 3, "basis": [["0", "0", "1", "0", "0", "0", "0", "0", "0"], ["0", "0", "0", "1", "0", "0", "0", "0", "0"], ["0", "0", "0", "0", "1", "0", "0", "0", "0"]]}, '
        '{"factor": "-3 + X^4", "dim": 4, "basis": [["0", "0", "0", "0", "0", "1", "0", "0", "0"], ["0", "0", "0", "0", "0", "0", "1", "0", "0"], ["0", "0", "0", "0", "0", "0", "0", "1", "0"], ["0", "0", "0", "0", "0", "0", "0", "0", "1"]]}]}, '
        '"citation": "product-of-maximal-orders"}',
    ),
    (
        ((-2, 0, 1), (9, 0, 1), (-2, 0, 0, 1)),
        '{"verdict": "NO", "reason": "COMPONENT_NOT_MAXIMAL", "witness": {"element": ["0", "0", "0", "1/3", "0", "0", "0"], '
        '"min_poly": "X + X^3", "component": 1}, "citation": "component-not-integrally-closed"}',
    ),
    (
        ((1, 0, 1), (-2, 0, 1)),
        '{"verdict": "YES", "reason": "ALL_COMPONENTS_MAXIMAL", "witness": {"primitive": ["0", "1", "0", "1"], '
        '"min_poly": "-2 - X^2 + X^4", '
        '"idempotents": [["0", "0", "1", "0"], ["1", "0", "0", "0"]], "components": ['
        '{"factor": "-2 + X^2", "dim": 2, "basis": [["0", "0", "1", "0"], ["0", "0", "0", "1"]]}, '
        '{"factor": "1 + X^2", "dim": 2, "basis": [["1", "0", "0", "0"], ["0", "1", "0", "0"]]}]}, '
        '"citation": "product-of-maximal-orders"}',
    ),
    (
        ((-5, 0, 1), (-2, 0, 0, 1)),
        '{"verdict": "NO", "reason": "COMPONENT_NOT_MAXIMAL", "witness": {"element": ["1/2", "1/2", "0", "0", "0"], '
        '"min_poly": "-X - X^2 + X^3", "component": 0}, '
        '"citation": "component-not-integrally-closed"}',
    ),
    (
        ((1, 0, 1), (-3, 0, 0, 0, 1)),
        '{"verdict": "YES", "reason": "ALL_COMPONENTS_MAXIMAL", "witness": {"primitive": ["0", "1", "0", "1", "0", "0"], '
        '"min_poly": "-3 - 3*X^2 + X^4 + X^6", '
        '"idempotents": [["1", "0", "0", "0", "0", "0"], ["0", "0", "1", "0", "0", "0"]], "components": ['
        '{"factor": "1 + X^2", "dim": 2, "basis": [["1", "0", "0", "0", "0", "0"], ["0", "1", "0", "0", "0", "0"]]}, '
        '{"factor": "-3 + X^4", "dim": 4, "basis": [["0", "0", "1", "0", "0", "0"], ["0", "0", "0", "1", "0", "0"], ["0", "0", "0", "0", "1", "0"], ["0", "0", "0", "0", "0", "1"]]}]}, '
        '"citation": "product-of-maximal-orders"}',
    ),
    (
        ((-2, 0, 0, 1), (-3, 0, 0, 1)),
        '{"verdict": "YES", "reason": "ALL_COMPONENTS_MAXIMAL", "witness": {"primitive": ["0", "1", "0", "0", "1", "0"], '
        '"min_poly": "6 - 5*X^3 + X^6", '
        '"idempotents": [["0", "0", "0", "1", "0", "0"], ["1", "0", "0", "0", "0", "0"]], "components": ['
        '{"factor": "-3 + X^3", "dim": 3, "basis": [["0", "0", "0", "1", "0", "0"], ["0", "0", "0", "0", "1", "0"], ["0", "0", "0", "0", "0", "1"]]}, '
        '{"factor": "-2 + X^3", "dim": 3, "basis": [["1", "0", "0", "0", "0", "0"], ["0", "1", "0", "0", "0", "0"], ["0", "0", "1", "0", "0", "0"]]}]}, '
        '"citation": "product-of-maximal-orders"}',
    ),
    (
        ((-3, 0, 0, 0, 1), (-2, 0, 0, 1)),
        '{"verdict": "YES", "reason": "ALL_COMPONENTS_MAXIMAL", "witness": {"primitive": ["0", "1", "0", "0", "0", "1", "0"], '
        '"min_poly": "6 - 3*X^3 - 2*X^4 + X^7", '
        '"idempotents": [["0", "0", "0", "0", "1", "0", "0"], ["1", "0", "0", "0", "0", "0", "0"]], "components": ['
        '{"factor": "-2 + X^3", "dim": 3, "basis": [["0", "0", "0", "0", "1", "0", "0"], ["0", "0", "0", "0", "0", "1", "0"], ["0", "0", "0", "0", "0", "0", "1"]]}, '
        '{"factor": "-3 + X^4", "dim": 4, "basis": [["1", "0", "0", "0", "0", "0", "0"], ["0", "1", "0", "0", "0", "0", "0"], ["0", "0", "1", "0", "0", "0", "0"], ["0", "0", "0", "1", "0", "0", "0"]]}]}, '
        '"citation": "product-of-maximal-orders"}',
    ),
    (
        ((1, 0, 1), (-5, 0, 1), (-2, 0, 0, 1)),
        '{"verdict": "NO", "reason": "COMPONENT_NOT_MAXIMAL", "witness": {"element": ["0", "0", "1/2", "1/2", "0", "0", "0"], '
        '"min_poly": "-X - X^2 + X^3", "component": 0}, '
        '"citation": "component-not-integrally-closed"}',
    ),
]


@pytest.mark.parametrize("polys, expected", PRODUCT_CERTIFICATES)
def test_product_certificate_bytes(equation_product, polys, expected):
    order = equation_product(*polys)
    cert = decide_pruefer(order)
    assert cert.to_json() == expected
    assert verify_certificate(order, cert)


def test_dimension_12_product_is_pruefer(equation_product):
    # Z[2^(1/3)] x Z[3^(1/4)] x Z[5^(1/5)]
    order = equation_product((-2, 0, 0, 1), (-3, 0, 0, 0, 1), (-5, 0, 0, 0, 0, 1))
    cert = decide_pruefer(order)
    assert cert.verdict == "YES"
    assert cert.witness["primitive"] == ["0", "1", "0", "0", "1", "0", "0", "0", "1", "0", "0", "0"]
    assert verify_certificate(order, cert)


def test_yes_decision_never_recomputes_the_minimal_polynomial(calls_to, equation_product):
    # The search returns mu_a from the relation that accepted a, so a YES
    # eliminates the powers of a once and never calls minimal_polynomial.
    order = equation_product((-2, 0, 0, 1), (-3, 0, 0, 0, 1), (-5, 0, 0, 0, 0, 1))
    calls = calls_to(prufer.orders, "minimal_polynomial")
    assert decide_pruefer(order).verdict == "YES"
    assert calls == []


def _never_grows(order, ideal, p):
    return embedded_order(order, [order.basis_element(i) for i in range(order.dim)], order.identity())


def _p_times_order(order, p):
    return hnf_reduce([[p if j == i else 0 for j in range(order.dim)] for i in range(order.dim)])


@pytest.mark.parametrize(
    "name, fault", [("ring_of_multipliers", _never_grows), ("p_radical", _p_times_order)], ids=["multipliers", "radical"]
)
def test_verify_does_not_trust_a_faulty_round_two_step(patch_everywhere, corpus, name, fault):
    # A ring_of_multipliers that returns its input order, or a p_radical that
    # returns pO, makes round 2 call Z[3i] maximal, and the decision says YES.
    # The verifier checks 3, which does not divide [Z[3i] : Z[3i]] = 1, by
    # Dedekind's criterion on X^2 + 9, and refuses the certificate.
    patch_everywhere(prufer.closure, name, fault)
    order = corpus["z_3i"]
    cert = decide_pruefer(order)
    assert cert.verdict == "YES"
    assert verify_certificate(order, cert) is False


def test_product_with_gaussians_is_pruefer(corpus):
    order = product_order(corpus["z"], corpus["z_i"])
    cert = decide_pruefer(order)
    assert cert.verdict == "YES"
    assert verify_certificate(order, cert)
    assert len(cert.witness["components"]) == 2


def test_product_with_sqrt5_is_not(corpus):
    order = product_order(corpus["z"], corpus["z_sqrt5"])
    cert = decide_pruefer(order)
    assert (cert.verdict, cert.reason) == ("NO", "COMPONENT_NOT_MAXIMAL")
    assert cert.witness["element"] == ["0", "1/2", "1/2"]
    assert verify_certificate(order, cert)


def test_idempotent_escape_detected():
    order = equation_order(P(3, -4, 1))  # Z[X]/((X-1)(X-3))
    cert = decide_pruefer(order)
    assert (cert.verdict, cert.reason) == ("NO", "IDEMPOTENT_ESCAPES")
    assert cert.witness["min_poly"] == "-X + X^2"
    assert verify_certificate(order, cert)


def test_yes_certificate_shape(z_i):
    cert = decide_pruefer(z_i)
    assert set(cert.witness) == {"primitive", "min_poly", "idempotents", "components"}
    comp = cert.witness["components"][0]
    assert comp["dim"] == 2
    assert comp["factor"] == "1 + X^2"


GOLDEN_ZI = (
    '{"verdict": "YES", "reason": "ALL_COMPONENTS_MAXIMAL", '
    '"witness": {"primitive": ["0", "1"], "min_poly": "1 + X^2", '
    '"idempotents": [["1", "0"]], "components": [{"factor": "1 + X^2", '
    '"dim": 2, "basis": [["1", "0"], ["0", "1"]]}]}, '
    '"citation": "product-of-maximal-orders"}'
)


def test_certificate_json_golden(z_i):
    cert = decide_pruefer(z_i)
    assert cert.to_json() == GOLDEN_ZI


def test_certificate_json_round_trip(corpus):
    for order in corpus.values():
        cert = decide_pruefer(order)
        again = PrueferCertificate.from_json(cert.to_json())
        assert again == cert


def test_certificate_dict_key_order(m2z):
    cert = decide_pruefer(m2z)
    assert list(cert.to_dict()) == ["verdict", "reason", "witness", "citation"]


def test_from_json_integer_beyond_the_digit_limit_is_malformed():
    text = json.dumps(
        {
            "verdict": "NO",
            "reason": "NOT_REDUCED",
            "witness": {"element": ["0", "1"], "power": "POWER"},
            "citation": "nilpotents-obstruct-integral-closure",
        }
    ).replace('"POWER"', "9" * 5001)
    with pytest.raises(MalformedCertificateError, match="^MALFORMED_CERTIFICATE: invalid JSON"):
        PrueferCertificate.from_json(text)


def test_from_dict_rejects_missing_key():
    doc = json.loads(GOLDEN_ZI)
    del doc["citation"]
    with pytest.raises(MalformedCertificateError):
        PrueferCertificate.from_dict(doc)


def test_from_dict_rejects_extra_key():
    doc = json.loads(GOLDEN_ZI)
    doc["note"] = "tampered"
    with pytest.raises(MalformedCertificateError):
        PrueferCertificate.from_dict(doc)


def test_from_dict_rejects_mismatched_reason():
    doc = json.loads(GOLDEN_ZI)
    doc["verdict"] = "NO"
    with pytest.raises(MalformedCertificateError):
        PrueferCertificate.from_dict(doc)


def test_from_dict_rejects_empty_citation():
    doc = json.loads(GOLDEN_ZI)
    doc["citation"] = ""
    with pytest.raises(MalformedCertificateError):
        PrueferCertificate.from_dict(doc)


def test_verify_rejects_huge_min_poly_degree(z_i):
    doc = json.loads(GOLDEN_ZI)
    doc["witness"]["min_poly"] = "X^99999999999"
    with pytest.raises(MalformedCertificateError):
        verify_certificate(z_i, PrueferCertificate.from_dict(doc))


def test_verify_rejects_tampered_component_basis(z_i):
    doc = json.loads(GOLDEN_ZI)
    doc["witness"]["components"][0]["basis"] = [["1", "0"], ["0", "2"]]
    cert = PrueferCertificate.from_dict(doc)
    assert not verify_certificate(z_i, cert)


def test_verify_rejects_wrong_component_dim(z_i, z_line):
    doc = json.loads(GOLDEN_ZI)
    doc["witness"]["components"][0]["dim"] = 7
    assert not verify_certificate(z_i, PrueferCertificate.from_dict(doc))
    # true == 1 in Python, but a JSON boolean is not a dimension.
    doc = decide_pruefer(z_line).to_dict()
    doc["witness"]["components"][0]["dim"] = True
    with pytest.raises(MalformedCertificateError):
        verify_certificate(z_line, PrueferCertificate.from_dict(doc))


def test_verify_rejects_swapped_idempotents(zxz):
    # Component 0 keeps its rows but is handed the other idempotent, which
    # lies outside its span: the component check must fail, not raise.
    doc = decide_pruefer(zxz).to_dict()
    assert verify_certificate(zxz, PrueferCertificate.from_dict(doc))
    doc["witness"]["idempotents"].reverse()
    assert not verify_certificate(zxz, PrueferCertificate.from_dict(doc))


def test_verify_rejects_a_zero_idempotent(zxz):
    # 1 and 0 are orthogonal idempotents summing to 1, and the rows (1, 1) and
    # (0, 1) tile Z^2, so only the component checks can refuse: the span of
    # (0, 1) with identity 0 fails the unit-line check of its order.
    doc = decide_pruefer(zxz).to_dict()
    doc["witness"]["idempotents"] = [["1", "1"], ["0", "0"]]
    doc["witness"]["components"][0]["basis"] = [["1", "1"]]
    doc["witness"]["components"][1]["basis"] = [["0", "1"]]
    assert not verify_certificate(zxz, PrueferCertificate.from_dict(doc))


def test_verify_rejects_tampered_primitive(z_i):
    doc = json.loads(GOLDEN_ZI)
    doc["witness"]["primitive"] = ["1", "0"]  # not a root of X^2 + 1
    cert = PrueferCertificate.from_dict(doc)
    assert not verify_certificate(z_i, cert)


def test_verify_rejects_integral_witness(z_sqrt5):
    cert = decide_pruefer(z_sqrt5)
    doc = cert.to_dict()
    doc["witness"]["element"] = ["1", "0"]  # inside the order, proves nothing
    tampered = PrueferCertificate.from_dict(doc)
    assert not verify_certificate(z_sqrt5, tampered)


def test_verify_runs_round_two_at_a_prime_dividing_the_index(calls_to, z_sqrt5):
    # A forged YES for Z[sqrt5] with primitive 2*sqrt5: mu = X^2 - 20 and
    # [A : Z[a]] = 2, so Dedekind's criterion cannot settle 2, round 2 runs
    # there and finds (1 + sqrt5)/2.
    multiplier_primes = calls_to(prufer.closure, "ring_of_multipliers", lambda order, ideal, p: p)
    component = {"factor": "-20 + X^2", "dim": 2, "basis": [["1", "0"], ["0", "1"]]}
    doc = {
        "verdict": "YES",
        "reason": "ALL_COMPONENTS_MAXIMAL",
        "witness": {"primitive": ["0", "2"], "min_poly": "-20 + X^2", "idempotents": [["1", "0"]], "components": [component]},
        "citation": "product-of-maximal-orders",
    }
    assert verify_certificate(z_sqrt5, PrueferCertificate.from_dict(doc)) is False
    assert multiplier_primes == [2]


@pytest.mark.parametrize(
    "polys",
    [
        ((1, 0, 1), (-3, 0, 0, 0, 1)),
        ((1, 0, 1), (-2, 0, 0, 1), (-3, 0, 0, 0, 1)),
        ((-2, 0, 0, 1), (-3, 0, 0, 0, 1), (-5, 0, 0, 0, 0, 1)),
    ],
    ids=["i-x-3^(1/4)", "i-x-2^(1/3)-x-3^(1/4)", "2^(1/3)-x-3^(1/4)-x-5^(1/5)"],
)
def test_decision_settles_each_component_by_dedekind(calls_to, equation_product, polys):
    # Each component's factor passes Dedekind's criterion at every prime, so
    # neither the decision nor the verifier takes a round-2 step.
    order = equation_product(*polys)
    multiplier_calls = calls_to(prufer.closure, "ring_of_multipliers")
    cert = decide_pruefer(order)
    assert (cert.verdict, len(multiplier_calls)) == ("YES", 0)
    assert verify_certificate(order, cert)
    assert len(multiplier_calls) == 0


@pytest.mark.parametrize(
    "polys",
    [
        ((1, 0, 1), (-3, 0, 0, 0, 1)),
        ((1, 0, 1), (-2, 0, 0, 1), (-3, 0, 0, 0, 1)),
        ((-2, 0, 0, 1), (-3, 0, 0, 0, 1), (-5, 0, 0, 0, 0, 1)),
    ],
    ids=["i-x-3^(1/4)", "i-x-2^(1/3)-x-3^(1/4)", "2^(1/3)-x-3^(1/4)-x-5^(1/5)"],
)
def test_verify_reads_the_index_only_where_dedekind_fails(calls_to, equation_product, polys):
    # Every factor passes Dedekind's criterion at every prime, so the
    # verifier never needs [A : Z[a]].
    order = equation_product(*polys)
    cert = decide_pruefer(order)
    index_calls = calls_to(prufer.closure, "power_index")
    assert verify_certificate(order, cert)
    assert index_calls == []


def test_verify_rejects_commuting_pair(m2z, corpus):
    cert = decide_pruefer(m2z)
    doc = cert.to_dict()
    doc["witness"]["y"] = doc["witness"]["x"]
    tampered = PrueferCertificate.from_dict(doc)
    assert not verify_certificate(m2z, tampered)


def test_verify_against_wrong_order(z_i, z_golden):
    cert = decide_pruefer(z_i)
    assert not verify_certificate(z_golden, cert)


def test_indeterminate_disc_factorization():
    p = 1000000000000000003
    q = 1000000000000000009
    order = equation_order(P(-p * q, 0, 1))
    with pytest.raises(IndeterminateError) as exc:
        decide_pruefer(order)
    assert exc.value.reason == "DISC_FACTORIZATION_FAILED"


def test_indeterminate_degree_cap():
    coeffs = [-2] + [0] * 32 + [1]  # X^33 - 2
    order = equation_order(RationalPolynomial(coeffs))
    with pytest.raises(IndeterminateError) as exc:
        decide_pruefer(order)
    assert exc.value.reason == "DEGREE_CAP"


@pytest.mark.parametrize(
    "error",
    [
        FactorDegreeError("degree 40 exceeds the factorization cap 32"),
        SearchExhaustedError("no primitive element found within the search budget"),
        BudgetExceededError("4 point evaluations needed, budget is 2", required=4, budget=2),
        IndexDivisibleError("2 divides the equation-order index 2"),
        DiscFactorizationError("composite cofactor 91 resisted the budget"),
    ],
    ids=lambda error: type(error).__name__,
)
def test_unanswered_error_tag_is_the_reason(monkeypatch, z_i, error):
    assert str(error).startswith(f"{error.tag}: ")

    def unanswered(order):
        raise error

    monkeypatch.setattr(prufer.decision, "decompose", unanswered)
    with pytest.raises(IndeterminateError) as exc:
        decide_pruefer(z_i)
    assert exc.value.reason == error.tag
    assert exc.value.__cause__ is error
    assert str(exc.value) == f"indeterminate: {error}"


def test_verify_does_not_answer_past_a_budget(monkeypatch, z_golden):
    # No answer is not a False: the check of a YES lets the error through.
    cert = decide_pruefer(z_golden)

    def over_budget(n, *args, **kwargs):
        raise BudgetExceededError("factoring stopped", required=2, budget=1)

    monkeypatch.setattr(prufer.decision, "factor_int", over_budget)
    with pytest.raises(BudgetExceededError):
        verify_certificate(z_golden, cert)


def test_certificate_validates_on_construction():
    with pytest.raises(MalformedCertificateError):
        PrueferCertificate(
            verdict="YES",
            reason="NONCOMMUTATIVE",
            witness={},
            citation="product-of-maximal-orders",
        )


quadratics = st.tuples(
    st.integers(min_value=-6, max_value=6), st.integers(min_value=-6, max_value=6)
).map(lambda ab: RationalPolynomial((ab[0], ab[1], 1)))


@given(quadratics)
def test_certificate_soundness_randomized(f):
    order = equation_order(f)
    try:
        cert = decide_pruefer(order)
    except IndeterminateError:
        assume(False)
        return
    assert verify_certificate(order, cert)
    again = PrueferCertificate.from_json(cert.to_json())
    assert verify_certificate(order, again)


def _yes_doc(primitive, min_poly, idempotents, components):
    """A YES certificate document; ``components`` holds (factor, dim, basis)."""
    return {
        "verdict": "YES",
        "reason": "ALL_COMPONENTS_MAXIMAL",
        "witness": {
            "primitive": primitive,
            "min_poly": min_poly,
            "idempotents": idempotents,
            "components": [{"factor": g, "dim": d, "basis": rows} for g, d, rows in components],
        },
        "citation": "product-of-maximal-orders",
    }


ZXZ_COMPONENTS = [("-1 + X", 1, [["1", "0"]]), ("X", 1, [["0", "1"]])]
ZI_COMPONENT = ("1 + X^2", 2, [["1", "0"], ["0", "1"]])

# Each forged YES breaks one claim of the verifier, and the named stage, the
# first that runs after that claim is checked, must never run: a later claim
# would refuse most of these certificates too, so the refusal has to come
# where the broken claim is checked.
FORGED_YES = {
    "min-poly-degree": (
        "zxz",
        _yes_doc(["1", "1"], "-1 + X", [["1", "1"]], [("-1 + X", 1, [["1", "1"]])]),
        "evaluate_poly",
    ),
    # (1 + sqrt5)/2 has minimal polynomial X^2 - X - 1, which passes Dedekind's
    # criterion at 2, but it lies outside Z[sqrt5], which is not 2-maximal.
    "primitive-not-integral": (
        "z_sqrt5",
        _yes_doc(["1/2", "1/2"], "-1 - X + X^2", [["1", "0"]], [("-1 - X + X^2", 2, ZI_COMPONENT[2])]),
        "check_factor_degree",
    ),
    "min-poly-not-monic": (
        "zxz",
        _yes_doc(["1", "0"], "-2*X + 2*X^2", [["1", "0"], ["0", "1"]], ZXZ_COMPONENTS),
        "evaluate_poly",
    ),
    "min-poly-not-squarefree": (
        "zxz",
        _yes_doc(["1", "1"], "1 - 2*X + X^2", [["1", "1"]], [("-1 + X", 1, [["1", "1"]])]),
        "mul",
    ),
    # (X - 1)^2 is not squarefree: the same factor claimed twice.
    "factors-repeat": (
        "zxz",
        _yes_doc(
            ["1", "1"],
            "1 - 2*X + X^2",
            [["1", "0"], ["0", "1"]],
            [("-1 + X", 1, [["1", "0"]]), ("-1 + X", 1, [["0", "1"]])],
        ),
        "mul",
    ),
    "factor-reducible": (
        "zxz",
        _yes_doc(["1", "0"], "-X + X^2", [["1", "1"]], [("-X + X^2", 2, [["1", "0"], ["0", "1"]])]),
        "mul",
    ),
    "factor-list-differs": (
        "z_i",
        _yes_doc(["0", "1"], "1 + X^2", [["1", "0"]], [("2 + X^2", 2, ZI_COMPONENT[2])]),
        "mul",
    ),
    # Z[X]/((X - 1)(X - 3)): the true idempotents of the algebra, outside A.
    "idempotent-not-integral": (
        "escaping",
        _yes_doc(
            ["0", "1"],
            "3 - 4*X + X^2",
            [["-1/2", "1/2"], ["3/2", "-1/2"]],
            [("-1 + X", 1, [["-1", "1"]]), ("-3 + X", 1, [["3", "-1"]])],
        ),
        "mul",
    ),
    "idempotents-not-orthogonal": (
        "zxz",
        _yes_doc(["1", "0"], "-X + X^2", [["2", "1"], ["-1", "0"]], ZXZ_COMPONENTS),
        "hnf_reduce",
    ),
    "idempotents-do-not-sum-to-one": (
        "zxz",
        _yes_doc(["1", "0"], "-X + X^2", [["1", "0"], ["0", "0"]], ZXZ_COMPONENTS),
        "hnf_reduce",
    ),
    "basis-row-not-integral": (
        "z_i",
        _yes_doc(["0", "1"], "1 + X^2", [["1", "0"]], [("1 + X^2", 2, [["1/2", "0"], ["0", "1"]])]),
        "hnf_reduce",
    ),
}


@pytest.mark.parametrize("claim", sorted(FORGED_YES))
def test_verify_refuses_a_forged_yes_at_its_claim(calls_to, corpus, claim):
    name, doc, stage = FORGED_YES[claim]
    order = equation_order(P(3, -4, 1)) if name == "escaping" else corpus[name]
    calls = calls_to(prufer.decision, stage)
    assert verify_certificate(order, PrueferCertificate.from_dict(doc)) is False
    assert calls == []


# Products with two components of the same degree, and the YES entries of
# PRODUCT_CERTIFICATES.
SAME_DEGREE_PRODUCTS = {
    "i-x-sqrt2": ((1, 0, 1), (-2, 0, 1)),
    "2^(1/3)-x-3^(1/3)": ((-2, 0, 0, 1), (-3, 0, 0, 1)),
}
YES_PRODUCTS = [*SAME_DEGREE_PRODUCTS.values()] + [
    polys for polys, expected in PRODUCT_CERTIFICATES if '"verdict": "YES"' in expected
]


@pytest.mark.parametrize("name", sorted(SAME_DEGREE_PRODUCTS))
def test_verify_refuses_swapped_factors(equation_product, name):
    # The factor list, mu and the tiles stay true; only g_i(a) e_i = 0 sees
    # that a e_0 is not a root of the factor now claimed for component 0.
    order = equation_product(*SAME_DEGREE_PRODUCTS[name])
    doc = decide_pruefer(order).to_dict()
    first, second = doc["witness"]["components"]
    first["factor"], second["factor"] = second["factor"], first["factor"]
    assert verify_certificate(order, PrueferCertificate.from_dict(doc)) is False


@pytest.mark.parametrize("polys", YES_PRODUCTS)
def test_verify_accepts_the_components_in_another_order(equation_product, polys):
    order = equation_product(*polys)
    doc = decide_pruefer(order).to_dict()
    doc["witness"]["components"].reverse()
    doc["witness"]["idempotents"].reverse()
    assert verify_certificate(order, PrueferCertificate.from_dict(doc))


def _swap_same_degree_factors(witness, draw):
    comps = witness["components"]
    pairs = [(i, j) for j in range(len(comps)) for i in range(j) if comps[i]["dim"] == comps[j]["dim"]]
    assume(pairs)
    i, j = draw(st.sampled_from(pairs))
    comps[i]["factor"], comps[j]["factor"] = comps[j]["factor"], comps[i]["factor"]


def _shift_a_factor(witness, draw):
    # g(X + t), t != 0, is another monic irreducible of the same degree.  With
    # min_poly following it, the factor claim itself holds.
    comps = witness["components"]
    i = draw(st.integers(0, len(comps) - 1))
    t = draw(st.integers(-3, 3).filter(bool))
    shifted = RationalPolynomial(())
    for c in reversed(RationalPolynomial.parse(comps[i]["factor"]).coefficients):
        shifted = shifted * P(t, 1) + c
    comps[i]["factor"] = str(shifted)
    if draw(st.booleans()):
        product = P(1)
        for comp in comps:
            product = product * RationalPolynomial.parse(comp["factor"])
        witness["min_poly"] = str(product)


def _drop_an_idempotent(witness, draw):
    del witness["idempotents"][draw(st.integers(0, len(witness["idempotents"]) - 1))]


def _duplicate_an_idempotent(witness, draw):
    idems = witness["idempotents"]
    i = draw(st.integers(0, len(idems) - 1))
    if draw(st.booleans()):
        idems.append(idems[i])
    else:
        idems[i - 1] = idems[i]


@given(
    st.sampled_from(YES_PRODUCTS),
    st.sampled_from([_swap_same_degree_factors, _shift_a_factor, _drop_an_idempotent, _duplicate_an_idempotent]),
    st.data(),
)
def test_verify_refuses_every_mutant_of_a_yes(equation_product, polys, mutate, data):
    order = equation_product(*polys)
    doc = decide_pruefer(order).to_dict()
    mutate(doc["witness"], data.draw)
    start = time.perf_counter()
    try:
        accepted = verify_certificate(order, PrueferCertificate.from_dict(doc))
    except MalformedCertificateError:
        accepted = False
    assert accepted is False and time.perf_counter() - start < 0.5


def test_verify_refuses_to_factor_past_the_degree_cap():
    # X is a root of mu = X^33 - 2 in Z[X]/(mu), so the claim reaches the
    # factor check, and mu is past the cap before the claimed factors, whose
    # product is not mu, are looked at.
    n = 33
    order = equation_order(RationalPolynomial([-2] + [0] * (n - 1) + [1]))
    rows = [["1" if i == j else "0" for j in range(n)] for i in range(n)]
    doc = _yes_doc(
        rows[1],
        "-2 + X^33",
        [rows[0], ["0"] * n],
        [("X", 1, rows[:1]), ("X^32", 32, rows[1:])],
    )
    with pytest.raises(FactorDegreeError):
        verify_certificate(order, PrueferCertificate.from_dict(doc))


@pytest.mark.parametrize("element", [["0", "0"], ["0", "1/2"]], ids=["zero", "not-integral"])
def test_verify_refuses_a_nilpotent_outside_the_order(corpus, element):
    # Both square to 0 in Z[x]/(x^2), but a nilpotent witness must be a
    # nonzero element of A.
    doc = decide_pruefer(corpus["z_x_mod_x2"]).to_dict()
    doc["witness"]["element"] = element
    assert verify_certificate(corpus["z_x_mod_x2"], PrueferCertificate.from_dict(doc)) is False


def _zi_doc(edit):
    doc = json.loads(GOLDEN_ZI)
    edit(doc["witness"])
    return doc


MALFORMED_WITNESSES = {
    "primitive-length": (_zi_doc(lambda w: w.update(primitive=["0"])), "expected 2 coordinates"),
    "coordinate-not-a-string": (_zi_doc(lambda w: w.update(primitive=[0, 1])), "coordinates must be strings"),
    "coordinate-zero-denominator": (_zi_doc(lambda w: w.update(primitive=["0", "1/0"])), "bad coordinate '1/0'"),
    "coordinate-not-a-number": (_zi_doc(lambda w: w.update(primitive=["0", "i"])), "bad coordinate 'i'"),
    "coordinate-5000-digits": (_zi_doc(lambda w: w.update(primitive=["0", "9" * 5000])), f"bad coordinate '{'9' * 5000}'"),
    # The first coordinate at fault names the error.
    "bad-coordinate-then-not-a-string": (_zi_doc(lambda w: w.update(primitive=["i", 0])), "bad coordinate 'i'"),
    "not-a-string-then-bad-coordinate": (_zi_doc(lambda w: w.update(primitive=[0, "i"])), "coordinates must be strings"),
    "min-poly-not-a-string": (_zi_doc(lambda w: w.update(min_poly=5)), "polynomial must be a string"),
    "primitive-missing": (_zi_doc(lambda w: w.pop("primitive")), "witness missing 'primitive'"),
    "idempotents-not-a-list": (_zi_doc(lambda w: w.update(idempotents={})), "idempotents/components must be lists"),
    "no-components": (_zi_doc(lambda w: w.update(idempotents=[], components=[])), "component/idempotent count mismatch"),
    "component-not-an-object": (_zi_doc(lambda w: w.update(components=["1 + X^2"])), "component must be an object"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_WITNESSES))
def test_verify_raises_on_a_malformed_witness(z_i, case):
    doc, message = MALFORMED_WITNESSES[case]
    with pytest.raises(MalformedCertificateError, match=f"^MALFORMED_CERTIFICATE: {re.escape(message)}"):
        verify_certificate(z_i, PrueferCertificate.from_dict(doc))


def test_verify_raises_on_a_nilpotency_power_below_two(corpus):
    doc = decide_pruefer(corpus["z_x_mod_x2"]).to_dict()
    doc["witness"]["power"] = 1
    with pytest.raises(MalformedCertificateError, match="bad nilpotency power"):
        verify_certificate(corpus["z_x_mod_x2"], PrueferCertificate.from_dict(doc))


def test_verify_refuses_a_huge_nilpotency_power_quickly(corpus):
    # 1 + i is not nilpotent; squaring it 10^13 times would need terabytes,
    # but a nilpotent element of Z[i] already has square 0.
    doc = {
        "verdict": "NO",
        "reason": "NOT_REDUCED",
        "witness": {"element": ["1", "1"], "power": 10**13},
        "citation": "nilpotents-obstruct-integral-closure",
    }
    start = time.perf_counter()
    assert verify_certificate(corpus["z_i"], PrueferCertificate.from_dict(doc)) is False
    assert time.perf_counter() - start < 0.5


def test_verify_accepts_a_true_nilpotent_with_a_huge_power(corpus):
    doc = decide_pruefer(corpus["z_x_mod_x2"]).to_dict()
    doc["witness"]["power"] = 10**13
    assert verify_certificate(corpus["z_x_mod_x2"], PrueferCertificate.from_dict(doc)) is True


def _forged_sqrt5(z_sqrt5, edit):
    doc = decide_pruefer(z_sqrt5).to_dict()
    edit(doc)
    return doc


def _as_idempotent_escape(doc):
    doc.update(reason="IDEMPOTENT_ESCAPES", citation="integral-idempotent-outside-order")
    del doc["witness"]["component"]


@pytest.mark.parametrize(
    "edit",
    [lambda doc: doc["witness"].update(min_poly="7 + X^5"), _as_idempotent_escape],
    ids=["min-poly-not-the-witness-s", "golden-ratio-is-not-idempotent"],
)
def test_verify_refuses_a_no_witness_whose_claims_fail(z_sqrt5, edit):
    # (1 + sqrt5)/2 is integral and outside Z[sqrt5], but its minimal
    # polynomial is X^2 - X - 1 and it is not an idempotent.
    doc = _forged_sqrt5(z_sqrt5, edit)
    assert verify_certificate(z_sqrt5, PrueferCertificate.from_dict(doc)) is False


@pytest.mark.parametrize("component", [-1, True, "0", None, 0.0], ids=["negative", "bool", "string", "null", "float"])
def test_verify_raises_on_a_bad_component_index(z_sqrt5, component):
    doc = _forged_sqrt5(z_sqrt5, lambda doc: doc["witness"].update(component=component))
    with pytest.raises(MalformedCertificateError, match="^MALFORMED_CERTIFICATE: bad component index$"):
        verify_certificate(z_sqrt5, PrueferCertificate.from_dict(doc))


def test_certificate_citation_must_match_its_reason(z_sqrt5):
    doc = _forged_sqrt5(z_sqrt5, lambda doc: doc.update(citation="anything"))
    with pytest.raises(MalformedCertificateError, match="citation does not match reason COMPONENT_NOT_MAXIMAL"):
        PrueferCertificate.from_dict(doc)


def test_to_dict_leaves_the_certificate_as_it_is(z_sqrt5):
    cert = decide_pruefer(z_sqrt5)
    text = cert.to_json()
    cert.to_dict()["witness"]["element"][0] = "1"
    assert cert.to_json() == text


def test_from_dict_keeps_its_own_witness(z_sqrt5):
    doc = decide_pruefer(z_sqrt5).to_dict()
    cert = PrueferCertificate.from_dict(doc)
    text = cert.to_json()
    doc["witness"]["element"][0] = "1"
    assert cert.to_json() == text
    # Copied without a trip through JSON text: an int past the digit limit
    # for str() is kept too.
    doc["witness"]["component"] = 10**5000
    assert PrueferCertificate.from_dict(doc).witness["component"] == 10**5000


def test_a_witness_nested_past_the_recursion_limit_is_malformed():
    text = '{"verdict": "NO", "reason": "NOT_REDUCED", "witness": ' + "[" * 100_000
    with pytest.raises(MalformedCertificateError, match="^MALFORMED_CERTIFICATE: invalid JSON"):
        PrueferCertificate.from_json(text)
    element = deep = []
    for _ in range(5000):
        deep.append([])
        deep = deep[0]
    doc = {
        "verdict": "NO",
        "reason": "NOT_REDUCED",
        "witness": {"element": element, "power": 2},
        "citation": "nilpotents-obstruct-integral-closure",
    }
    with pytest.raises(MalformedCertificateError, match="^MALFORMED_CERTIFICATE: witness nested too deeply$"):
        PrueferCertificate.from_dict(doc)


def test_certificate_construction_checks_its_fields():
    citation = "product-of-maximal-orders"
    with pytest.raises(MalformedCertificateError, match="bad verdict 'MAYBE'"):
        PrueferCertificate("MAYBE", "NONCOMMUTATIVE", {}, citation)
    with pytest.raises(MalformedCertificateError, match="witness must be an object"):
        PrueferCertificate("YES", "ALL_COMPONENTS_MAXIMAL", [], citation)
    # The list has the four keys as its elements, so only the type check refuses it.
    with pytest.raises(MalformedCertificateError, match="not an object"):
        PrueferCertificate.from_dict(["verdict", "reason", "witness", "citation"])
