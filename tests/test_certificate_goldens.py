"""A byte guard over generated orders: the SHA-256 of each certificate's
JSON, or the tag of the refusal, and the verifier's answer.

The orders are the benchmark's single fields X^n + a (both signs of a for
odd n) and products of two or three fields, Z^1..Z^6, the dimension-12
product Z[2^(1/3)] x Z[3^(1/4)] x Z[5^(1/5)], and seeded skew bases
(``conftest.base_change``) of the dimension-9 product Z[i] x Z[2^(1/3)] x
Z[3^(1/4)] and of Z[2^(1/8)].  A change to the elimination, the trace form
or the search that moves one byte of one certificate fails here, and the
failure names each order that moved.

``certificate_goldens.json`` was recorded from the implementation whose
Bareiss elimination rescaled every row at every step.  Regenerate only on
purpose: ``python tests/test_certificate_goldens.py >
tests/certificate_goldens.json`` (with ``src`` on ``PYTHONPATH``).
"""

import hashlib
import json
import pathlib

from conftest import CBRT2, GAUSS, PRODUCT_FAMILY, QRT3, base_change, product_of_equation_orders
from prufer.decision import decide_pruefer, verify_certificate
from prufer.errors import IndeterminateError, PruferError

GOLDENS = pathlib.Path(__file__).resolve().parent / "certificate_goldens.json"

# (n, a) stands for X^n + a, as in the benchmark's `fields` workload.
FIELDS = [(n, -2) for n in (3, 4, 5, 6, 7, 8, 9, 10, 12)] + [(9, -3), (6, 108), (8, -162)]
QNT5 = (-5, 0, 0, 0, 0, 1)
SKEW_SEEDS = range(1, 7)


def _text(f):
    return " x ".join(f"({' '.join(map(str, coeffs))})" for coeffs in f)


def orders() -> dict:
    """The guarded orders by name, in file order."""
    out = {}
    for n, a in FIELDS:
        for c in (a, -a) if n % 2 else (a,):
            out[f"X^{n}{c:+d}"] = product_of_equation_orders((c,) + (0,) * (n - 1) + (1,))
    for polys in PRODUCT_FAMILY:
        out[_text(polys)] = product_of_equation_orders(*polys)
    for k in range(1, 7):
        out[f"Z^{k}"] = product_of_equation_orders(*[(0, 1)] * k)
    out[_text((CBRT2, QRT3, QNT5))] = product_of_equation_orders(CBRT2, QRT3, QNT5)
    dim9, radical = product_of_equation_orders(GAUSS, CBRT2, QRT3), product_of_equation_orders((-2,) + (0,) * 7 + (1,))
    for seed in SKEW_SEEDS:
        out[f"{_text((GAUSS, CBRT2, QRT3))} seed {seed}"] = base_change(dim9, seed)
        out[f"X^8-2 seed {seed}"] = base_change(radical, seed)
    return out


def observed(order) -> list:
    """[SHA-256 of the certificate's JSON, the verifier's answer], or
    ["INDETERMINATE:" + the refusal's tag, None]."""
    try:
        cert = decide_pruefer(order)
    except IndeterminateError as exc:
        return [f"INDETERMINATE:{exc.reason}", None]
    return [hashlib.sha256(cert.to_json().encode("utf-8")).hexdigest(), verify_certificate(order, cert)]


def _observed_or_error(order) -> list:
    """``observed``, or the error that stopped the decision or the check."""
    try:
        return observed(order)
    except PruferError as exc:
        return [f"{type(exc).__name__}: {exc}", None]


def test_certificate_goldens():
    expected = json.loads(GOLDENS.read_text(encoding="utf-8"))
    got = {name: _observed_or_error(order) for name, order in orders().items()}
    assert list(got) == list(expected)
    assert {name: got[name] for name in got if got[name] != expected[name]} == {}


if __name__ == "__main__":
    print(json.dumps({name: observed(order) for name, order in orders().items()}, indent=1))
