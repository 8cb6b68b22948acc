"""Goldens for polynomial division and the quaternion case study.

``arith_goldens.json`` was recorded from the implementation whose polynomial
division ran in Fraction arithmetic and whose quaternions were a separate
four-Fraction element type.  It holds the stdout and exit code of the
``hurwitz``, ``examples``, ``pointwise``, ``ramify`` and ``transform``
commands in text and JSON, and ``divmod``, ``poly_gcd``, ``poly_xgcd``,
``squarefree_decomposition`` and ``poly_factor`` on a seeded set of
polynomials with non-monic, negative-leading and rational coefficients.
Everything is compared as printed text, so no element type is named.

Regenerate only on purpose: ``python tests/test_arith_goldens.py > tests/arith_goldens.json``
(with ``src`` on ``PYTHONPATH``).
"""

import contextlib
import io
import json
import pathlib
import random
from fractions import Fraction

from prufer.cli import main
from prufer.factor import poly_factor
from prufer.poly import RationalPolynomial, poly_gcd, poly_xgcd, squarefree_decomposition

GOLDENS = pathlib.Path(__file__).resolve().parent / "arith_goldens.json"
ORDERS_DIR = pathlib.Path(__file__).resolve().parent.parent / "orders"

COMMANDS = (
    ("hurwitz", "check"),
    ("hurwitz", "lemma42", "--n", "1"),
    ("hurwitz", "lemma42", "--n", "2"),
    ("hurwitz", "lemma42", "--n", "3"),
    ("hurwitz", "closure"),
    ("hurwitz", "closure", "--samples", "3000", "--seed", "7"),
    ("examples",),
    ("pointwise", str(ORDERS_DIR / "m2z.json"), "--at", "0,4,1,2"),
    ("ramify", str(ORDERS_DIR / "z_i.json"), "--prime", "5"),
    ("transform", "--prime", "5", "--ef", "1,1", "--poly", "X", "--sequence", "2"),
)


def _cli(*argv) -> list:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(list(argv))
    return [out.getvalue(), code]


def _random_poly(rng: random.Random, degree: int) -> RationalPolynomial:
    coeffs = [Fraction(rng.randint(-9, 9), rng.choice((1, 1, 2, 3, 4, 6))) for _ in range(degree)]
    lead = Fraction(rng.choice((-7, -3, -2, -1, 1, 2, 5, 6)), rng.choice((1, 1, 2, 3, 5)))
    return RationalPolynomial(coeffs + [lead])


def _polynomial_cases() -> list:
    rng = random.Random(8)
    cases = []
    for _ in range(40):
        common = _random_poly(rng, rng.randint(0, 3))
        a = common * _random_poly(rng, rng.randint(0, 4))
        b = common * _random_poly(rng, rng.randint(0, 4))
        square = _random_poly(rng, rng.randint(1, 2))
        f = _random_poly(rng, rng.randint(0, 2)) * square**2 * _random_poly(rng, 1) ** 3
        q, r = divmod(a, b)
        g, s, t = poly_xgcd(a, b)
        cases.append(
            {
                "a": str(a),
                "b": str(b),
                "f": str(f),
                "divmod": [str(q), str(r)],
                "gcd": str(poly_gcd(a, b)),
                "xgcd": [str(g), str(s), str(t)],
                "squarefree": [[str(h), i] for h, i in squarefree_decomposition(f)],
                "factor": [[str(h), i] for h, i in poly_factor(f)],
            }
        )
    return cases


def observed() -> dict:
    """Everything the goldens file records, worked out now."""
    cli = {}
    for argv in COMMANDS:
        key = " ".join(a if not a.startswith("/") else pathlib.Path(a).name for a in argv)
        cli[key] = _cli(*argv)
        cli[key + " --json"] = _cli(*argv, "--json")
    return {"cli": cli, "polynomials": _polynomial_cases()}


def test_arith_goldens():
    assert observed() == json.loads(GOLDENS.read_text(encoding="utf-8"))


if __name__ == "__main__":
    print(json.dumps(observed(), indent=1, sort_keys=True))
