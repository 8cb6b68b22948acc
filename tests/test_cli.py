"""End-to-end command tests, run in process against the installed console entry."""

import json
import pathlib

import pytest

import prufer.cli
import prufer.closure
from conftest import order_to_dict
from prufer.cli import main
from prufer.orders import equation_order, load_order
from prufer.poly import RationalPolynomial

ORDERS = pathlib.Path(__file__).resolve().parent.parent / "orders"


def run(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


def order_path(name):
    return str(ORDERS / f"{name}.json")


def order_file(tmp_path, order):
    """Write ``order`` to a JSON order file under tmp_path; return its path."""
    doc = tmp_path / "order.json"
    doc.write_text(json.dumps(order_to_dict(order)), encoding="utf-8")
    return str(doc)


def radical_order(n, a):
    """The equation order Z[X]/(X^n + a)."""
    return equation_order(RationalPolynomial((a, *[0] * (n - 1), 1)))


def test_analyze_yes_golden_json(capsys):
    code, out, err = run(capsys, "analyze", order_path("z_i"), "--json")
    assert code == 0
    assert err == ""
    assert out == (
        '{"verdict": "YES", "reason": "ALL_COMPONENTS_MAXIMAL", '
        '"witness": {"primitive": ["0", "1"], "min_poly": "1 + X^2", '
        '"idempotents": [["1", "0"]], "components": [{"factor": "1 + X^2", '
        '"dim": 2, "basis": [["1", "0"], ["0", "1"]]}]}, '
        '"citation": "product-of-maximal-orders"}\n'
    )


def test_analyze_refuses_a_certificate_that_fails_verification(capsys, monkeypatch):
    monkeypatch.setattr(prufer.cli, "verify_certificate", lambda order, cert: False)
    code, out, err = run(capsys, "analyze", order_path("z_i"), "--json")
    assert (code, out, err) == (1, "", "error: certificate failed independent verification\n")


def test_analyze_json_deterministic(capsys):
    first = run(capsys, "analyze", order_path("z_golden"), "--json")
    second = run(capsys, "analyze", order_path("z_golden"), "--json")
    assert first == second


def test_analyze_yes_text(capsys):
    code, out, _ = run(capsys, "analyze", order_path("z_i"))
    assert code == 0
    assert out.splitlines()[0] == "verdict: YES"
    assert out.endswith("verified: true\n")


def test_analyze_no_text(capsys):
    code, out, _ = run(capsys, "analyze", order_path("m2z"))
    assert code == 3
    assert out == (
        "verdict: NO\n"
        "reason: NONCOMMUTATIVE\n"
        'witness: {"x": ["1", "0", "0", "0"], "y": ["0", "1", "0", "0"]}\n'
        "citation: commutators-obstruct-integral-closure\n"
        "verified: true\n"
    )


def test_analyze_missing_file(capsys):
    code, out, err = run(capsys, "analyze", str(ORDERS / "no_such_order.json"))
    assert code == 1
    assert out == ""
    assert err.startswith("error:")


def test_analyze_invalid_json_file(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    code, _, err = run(capsys, "analyze", str(bad))
    assert code == 1
    assert "invalid JSON" in err


def test_analyze_huge_dim_is_malformed(capsys, tmp_path):
    doc = tmp_path / "huge.json"
    doc.write_text('{"dim": 100000000, "one": [1], "table": [[[1]]]}', encoding="utf-8")
    code, out, err = run(capsys, "analyze", str(doc))
    assert code == 1
    assert out == ""
    assert err.startswith("error: MALFORMED_INPUT: table is not dim x dim")
    assert "Traceback" not in err


def test_analyze_integer_beyond_the_digit_limit_is_malformed(capsys, tmp_path):
    # json.load raises a plain ValueError, not JSONDecodeError, on an integer
    # longer than Python's 4300-digit limit.
    doc = tmp_path / "long_entry.json"
    text = json.dumps({"dim": 1, "one": [1], "table": [[["ENTRY"]]]})
    doc.write_text(text.replace('"ENTRY"', "9" * 5001), encoding="utf-8")
    code, out, err = run(capsys, "analyze", str(doc))
    assert code == 1
    assert out == ""
    assert err.startswith("error: MALFORMED_INPUT: invalid JSON")
    assert "Traceback" not in err


def test_member_huge_exponent_is_a_parse_error(capsys):
    code, out, err = run(capsys, "member", order_path("z_i"), "--poly", "X^99999999999", "--at", "0,1")
    assert code == 1
    assert out == ""
    assert err.startswith("error: PARSE_ERROR")
    assert "Traceback" not in err


def test_analyze_indeterminate(capsys, tmp_path):
    p = 1000000000000000003
    q = 1000000000000000009
    doc = order_file(tmp_path, equation_order(RationalPolynomial((-p * q, 0, 1))))
    code, out, err = run(capsys, "analyze", doc)
    assert code == 4
    assert out == ""
    assert err.count("DISC_FACTORIZATION_FAILED") == 1


def test_analyze_degree_cap_names_the_tag_once(capsys, tmp_path):
    doc = order_file(tmp_path, radical_order(33, -2))  # X^33 - 2
    code, out, err = run(capsys, "analyze", doc)
    assert code == 4
    assert out == ""
    assert err.count("DEGREE_CAP") == 1
    assert err.startswith("indeterminate: DEGREE_CAP: degree 33")


def test_analyze_non_associative_table(capsys, tmp_path):
    doc = json.loads(pathlib.Path(order_path("m2z")).read_text(encoding="utf-8"))
    doc["table"][1][2] = [0, 0, 0, 1]  # e12 * e21 -> e22
    bad = tmp_path / "non_associative.json"
    bad.write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = run(capsys, "analyze", str(bad))
    assert code == 1
    assert out == ""
    assert "NON_ASSOCIATIVE" in err
    assert "Traceback" not in err


def test_maximal_order_x6_plus_108_enlarges(capsys, tmp_path):
    # X^6 + 108 fails Dedekind's criterion, so round 2 enlarges Z[X]/(X^6 + 108).
    doc = order_file(tmp_path, radical_order(6, 108))
    code, out, _ = run(capsys, "maximal-order", doc, "--json")
    assert code == 0
    assert json.loads(out)["index"] > 1


def test_analyze_x12_minus_2_is_yes(capsys, tmp_path):
    # Z[2^(1/12)] is maximal; Dedekind's criterion settles 2 and 3.
    code, out, err = run(capsys, "analyze", order_file(tmp_path, radical_order(12, -2)))
    assert (code, err) == (0, "")
    assert out.splitlines()[0] == "verdict: YES"
    assert out.endswith("verified: true\n")


def test_analyze_dimension_12_product(capsys, tmp_path, equation_product):
    # Z[2^(1/3)] x Z[3^(1/4)] x Z[5^(1/5)]: the primitive element is shell candidate 6645.
    order = equation_product((-2, 0, 0, 1), (-3, 0, 0, 0, 1), (-5, 0, 0, 0, 0, 1))
    code, out, _ = run(capsys, "analyze", "--json", order_file(tmp_path, order))
    assert code == 0
    assert json.loads(out)["witness"]["primitive"] == ["0", "1", "0", "0", "1", "0", "0", "0", "1", "0", "0", "0"]


def test_usage_error_is_exit_2(capsys):
    code, _, err = run(capsys)
    assert code == 2
    assert "usage" in err


def test_member_at_point_true(capsys):
    code, out, _ = run(
        capsys, "member", order_path("m2z"), "--poly", "1/2*X", "--at", "0,2,2,2", "--json"
    )
    assert code == 0
    assert out == (
        '{"poly": "1/2*X", "at": ["0", "2", "2", "2"], "member": true, '
        '"value": ["0", "1", "1", "1"]}\n'
    )


def test_member_at_point_false(capsys):
    code, out, _ = run(
        capsys, "member", order_path("m2z"), "--poly", "1/2*X", "--at", "0,4,1,2", "--json"
    )
    assert code == 0
    assert out == (
        '{"poly": "1/2*X", "at": ["0", "4", "1", "2"], "member": false, '
        '"value": ["0", "2", "1/2", "1"]}\n'
    )


def test_member_all_residues(capsys):
    code, out, _ = run(
        capsys,
        "member",
        order_path("z_i"),
        "--poly",
        "-1/2*X^2 + 1/2*X^4",
        "--all",
        "--json",
    )
    assert code == 0
    assert out == (
        '{"poly": "-1/2*X^2 + 1/2*X^4", "member": true, "denominator": 2, '
        '"residues": 4}\n'
    )


def test_member_all_budget_exhausted(capsys):
    code, out, err = run(
        capsys,
        "member",
        order_path("z_i"),
        "--poly",
        "-1/2*X^2 + 1/2*X^4",
        "--all",
        "--budget",
        "2",
    )
    assert code == 4
    assert out == ""
    assert "BUDGET_EXCEEDED" in err


def test_member_all_rejects_a_zero_budget(capsys):
    # X^2 needs no evaluation at all, and the budget is refused all the same.
    for poly in ("X^2", "1/2*X^2"):
        code, out, err = run(capsys, "member", order_path("z_i"), "--poly", poly, "--all", "--budget", "0")
        assert code == 1, poly
        assert out == ""
        assert "MALFORMED_INPUT" in err


def test_member_all_counts_simplex_points(capsys):
    # d = 30 on a rank-4 order: the 15 points of the degree-2 simplex, not 30^4 residues.
    code, out, _ = run(
        capsys, "member", order_path("m2z"), "--poly", "1/30*X^2", "--all", "--json"
    )
    assert code == 0
    assert out == '{"poly": "1/30*X^2", "member": false, "denominator": 30, "residues": 15}\n'


def test_member_bad_coordinates(capsys):
    for bad in ("oops", "1/0", "9" * 5000):
        code, out, err = run(
            capsys, "member", order_path("z_i"), "--poly", "X", "--at", f"1, {bad}"
        )
        assert (code, out, err) == (1, "", f"error: MALFORMED_INPUT: bad coordinate {bad!r}\n")


# Decimal, signed, spaced and unreduced coordinates are read as Fraction reads them.
@pytest.mark.parametrize(
    "argv, expected",
    [
        (
            ["minpoly", "z_golden", "--at", "1/2, 0.5"],
            "min_poly: 1/4 - 3/2*X + X^2\n",
        ),
        (
            ["member", "m2z", "--poly", "1/2*X", "--at", "0.5,2,+2,2/1", "--json"],
            '{"poly": "1/2*X", "at": ["1/2", "2", "2", "2"], "member": false, "value": ["1/4", "1", "1", "1"]}\n',
        ),
    ],
    ids=["minpoly", "member"],
)
def test_lenient_coordinates(capsys, argv, expected):
    command, name, *rest = argv
    assert run(capsys, command, order_path(name), *rest) == (0, expected, "")


def test_minpoly_golden(capsys):
    code, out, _ = run(capsys, "minpoly", order_path("z_golden"), "--at", "0,1", "--json")
    assert code == 0
    assert out == '{"at": ["0", "1"], "min_poly": "-1 - X + X^2"}\n'


def test_pointwise_golden(capsys):
    code, out, _ = run(capsys, "pointwise", order_path("m2z"), "--at", "0,4,1,2", "--json")
    assert code == 0
    assert out == (
        '{"at": ["0", "4", "1", "2"], "closed": false, '
        '"witness": ["0", "2", "1/2", "1"], "kind": "escaping", "subalgebra_dim": 2}\n'
    )


def test_maximal_order_golden(capsys):
    code, out, _ = run(capsys, "maximal-order", order_path("z_3i"), "--json")
    assert code == 0
    assert out == (
        '{"index": 3, "disc_input": -36, "disc_maximal": -4, '
        '"basis": [["1", "0"], ["0", "1/3"]]}\n'
    )


@pytest.mark.parametrize(
    "name, prime, expected",
    [
        ("z_i", 5, '{"prime": 5, "pairs": [[1, 1], [1, 1]], "E": [1], "F": [1], "s": 1, "r": 5}\n'),
        ("z_i", 2, '{"prime": 2, "pairs": [[2, 1]], "E": [2], "F": [1], "s": 2, "r": 2}\n'),
        ("z_golden", 3, '{"prime": 3, "pairs": [[1, 2]], "E": [1], "F": [2], "s": 1, "r": 9}\n'),
    ],
)
def test_ramify_golden(capsys, name, prime, expected):
    code, out, _ = run(capsys, "ramify", order_path(name), "--prime", str(prime), "--json")
    assert code == 0
    assert out == expected


# stdout, stderr and exit code of ``ramify --json`` on every commutative corpus
# order at p = 2, 3, 5 and 7, recorded before the radical over F_p took one
# gcd for all multiplicities and the mod-p remainders stopped forming
# quotients.  The profile comes from ``modp_degrees`` and the refusals from
# Dedekind's criterion, both through ``_gp_radical``.
RAMIFY_GOLDENS = json.loads((pathlib.Path(__file__).resolve().parent / "ramify_goldens.json").read_text())


@pytest.mark.parametrize("case", sorted(RAMIFY_GOLDENS))
def test_ramify_corpus_golden(capsys, case):
    name, prime = case.split()
    out, err, code = RAMIFY_GOLDENS[case]
    assert run(capsys, "ramify", order_path(name), "--prime", prime, "--json") == (code, out, err)


def test_ramify_refuses_an_r_too_long_to_print(capsys, tmp_path):
    # X^8 - 3 is maximal and 5 is inert in it: r = 5^(8!) has 28183 digits.
    doc = order_file(tmp_path, radical_order(8, -3))
    code, out, err = run(capsys, "ramify", doc, "--prime", "5", "--json")
    assert code == 4
    assert out == ""
    assert err.startswith("error: BUDGET_EXCEEDED: r = 5^(8!) would have more than 4300 digits")
    assert "Traceback" not in err


def test_ramify_at_a_large_prime_refuses_r(capsys, tmp_path):
    # X^12 - 2 is (sextic)(sextic) mod 1000003: the (e, f) pairs come from
    # distinct degrees, in time polynomial in log p, and r = p^(6!) is refused.
    doc = order_file(tmp_path, radical_order(12, -2))
    code, out, err = run(capsys, "ramify", doc, "--prime", "1000003")
    assert (code, out) == (4, "")
    assert err == "error: BUDGET_EXCEEDED: r = 1000003^(6!) would have more than 4300 digits, the cap on r\n"


def test_ramify_index_divisible_names_the_tag_once(capsys):
    # Every power basis of cubic_index2 has even index.
    code, out, err = run(capsys, "ramify", order_path("cubic_index2"), "--prime", "2")
    assert (code, out) == (4, "")
    assert err == "error: INDEX_DIVISIBLE: 2 divides the equation-order index 2; profile unavailable at this prime\n"


def test_ramify_rejects_composite(capsys):
    code, _, err = run(capsys, "ramify", order_path("z_i"), "--prime", "6")
    assert code == 1
    assert "MALFORMED_INPUT" in err


def test_ramify_not_maximal(capsys):
    code, _, err = run(capsys, "ramify", order_path("z_sqrt5"), "--prime", "2")
    assert code == 1
    assert "NOT_MAXIMAL" in err


def test_ramify_not_maximal_after_one_round_two_step(capsys, tmp_path, calls_to):
    # The first round-2 step on Z[X]/(X^6 + 108) enlarges it, which settles
    # NOT_MAXIMAL; the maximal order would take 13 steps.
    steps = calls_to(prufer.closure, "ring_of_multipliers")
    doc = order_file(tmp_path, radical_order(6, 108))
    code, out, err = run(capsys, "ramify", doc, "--prime", "5", "--json")
    assert (code, out, err) == (1, "", "error: NOT_MAXIMAL: the order is not maximal\n")
    assert len(steps) == 1


def test_transform_single(capsys):
    code, out, _ = run(
        capsys, "transform", "--prime", "3", "--ef", "1,1", "--poly", "X", "--json"
    )
    assert code == 0
    assert out == '{"poly": "X", "prime": 3, "pair": [1, 1], "transform": "-1/3*X + 1/3*X^3"}\n'


def test_transform_sequence(capsys):
    code, out, _ = run(
        capsys,
        "transform",
        "--prime",
        "2",
        "--ef",
        "1,1",
        "--poly",
        "X",
        "--sequence",
        "2",
        "--json",
    )
    assert code == 0
    assert out == (
        '{"poly": "X", "prime": 2, "pair": [1, 1], "sequence": '
        '["X", "-1/2*X + 1/2*X^2", "1/4*X - 1/8*X^2 - 1/4*X^3 + 1/8*X^4"]}\n'
    )


def test_transform_composite_prime(capsys):
    code, out, err = run(capsys, "transform", "--prime", "4", "--ef", "1,1", "--poly", "X")
    assert (code, out) == (1, "")
    assert err == "error: MALFORMED_INPUT: 4 is not prime\n"


def test_transform_bad_pair(capsys):
    code, _, err = run(capsys, "transform", "--prime", "2", "--ef", "0,1", "--poly", "X")
    assert code == 1
    assert "MALFORMED_INPUT" in err


@pytest.mark.parametrize("ef", ["1", "a,b"])
def test_transform_bad_ef_value(capsys, ef):
    code, out, err = run(capsys, "transform", "--prime", "2", "--ef", ef, "--poly", "X")
    assert (code, out, err) == (1, "", f"error: MALFORMED_INPUT: bad --ef value {ef!r}\n")


@pytest.mark.parametrize(
    "argv",
    [
        # r = 2^(5!) = 2^120: refused before r is formed.
        ("--prime", "2", "--ef", "1,5", "--poly", "X"),
        ("--prime", "2", "--ef", "100000000,1", "--poly", "X"),
        # f_1 has degree 1009, f_2 would have degree 1009^2 > 10^6.
        ("--prime", "1009", "--ef", "1,1", "--poly", "X", "--sequence", "2"),
        # deg f_k = 2^k: f_20 is refused before f_1 is built.
        ("--prime", "2", "--ef", "1,1", "--poly", "X", "--sequence", "100"),
    ],
)
def test_transform_beyond_the_degree_cap(capsys, argv):
    code, out, err = run(capsys, "transform", *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("error: MALFORMED_INPUT")
    assert "Traceback" not in err


def test_transform_sequence_refused_before_any_product(capsys, monkeypatch):
    # f_13 of X at (2; 1, 1) has degree 8192 and coefficients of about 8192
    # bits: below the degree cap, but above the work cap.
    def no_products(self, other):
        raise AssertionError("a product was formed")

    monkeypatch.setattr(RationalPolynomial, "__mul__", no_products)
    code, out, err = run(capsys, "transform", "--prime", "2", "--ef", "1,1", "--poly", "X", "--sequence", "13")
    assert code == 4
    assert out == ""
    assert err.startswith("error: BUDGET_EXCEEDED: f_13 of the sequence")


def test_transform_refused_before_any_product(capsys, monkeypatch):
    # (X + 1)^999983 is below the degree cap, but its coefficients have about
    # 10^6 bits: the work bound refuses it before the first product.
    def no_products(self, other):
        raise AssertionError("a product was formed")

    monkeypatch.setattr(RationalPolynomial, "__mul__", no_products)
    code, out, err = run(capsys, "transform", "--prime", "999983", "--ef", "1,1", "--poly", "X+1")
    assert code == 4
    assert out == ""
    assert err.startswith("error: BUDGET_EXCEEDED: the transform would cost")


def test_hurwitz_lemma_pass(capsys):
    code, out, _ = run(capsys, "hurwitz", "lemma42", "--n", "2", "--json")
    assert code == 0
    assert out == '{"n": 2, "pass": true}\n'


def test_hurwitz_lemma_n1_violations(capsys):
    code, out, _ = run(capsys, "hurwitz", "lemma42", "--n", "1", "--json")
    assert code == 0
    expected = [[a, b, c, d] for a in (1, 3) for b in (1, 3) for c in (1, 3) for d in (1, 3)]
    assert json.loads(out) == {"n": 1, "violations": expected}


def test_hurwitz_closure_golden(capsys):
    code, out, _ = run(
        capsys, "hurwitz", "closure", "--samples", "2000", "--seed", "1", "--json"
    )
    assert code == 0
    assert out == (
        '{"samples": 2000, "seed": 1, "integral": 491, "member": 491, '
        '"counterexamples": []}\n'
    )


def test_hurwitz_check_names(capsys):
    code, out, _ = run(capsys, "hurwitz", "check", "--json")
    assert code == 0
    doc = json.loads(out)
    assert [c["name"] for c in doc["checks"]] == [
        "unit-is-member",
        "unit-is-integral",
        "unit-quadratic",
        "odd-grid-members",
        "norms-2-integral",
    ]
    assert all(c["pass"] for c in doc["checks"])


def test_examples_ring_is_the_shipped_m2z():
    # `prufer examples` builds M_2(Z) itself; it must be the ring the corpus ships.
    assert prufer.cli._matrix_order() == load_order(ORDERS / "m2z.json")


def test_examples_all_pass(capsys):
    code, out, _ = run(capsys, "examples")
    lines = out.splitlines()
    assert code == 0
    assert len(lines) == 11
    assert all(line.startswith("PASS") for line in lines)
