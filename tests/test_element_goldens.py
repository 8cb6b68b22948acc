"""Goldens for every output that prints elements or embedded-order bases.

``element_goldens.json`` was recorded from the implementation whose elements
carried one Fraction per coordinate, before elements became integer
coordinates over one denominator.  It holds the stdout and exit code of
``analyze --json`` and ``maximal-order --json`` on every corpus order, and
for a family of number fields and one product the certificate JSON, its
verification and the ``maximal-order --json`` output (index, discriminants,
basis of the maximal order).  Everything here goes through ``cli.main`` and
``PrueferCertificate.to_json``, so no element type is named.

The certificates of X^4 + 36, X^6 + 108 and X^8 - 162 alone were recorded
again when the decision began to stop at the first round-2 step that enlarges
a component: each NO witness is now the first non-integral basis vector of
that step's order, not of the maximal order.  Every ``cli`` entry, every
``maximal-order`` output, every ``verified`` flag and every YES certificate
is still the original recording.
"""

import contextlib
import io
import json
import pathlib

from conftest import CORPUS_FILES, ORDERS_DIR, order_to_dict
from prufer.cli import main
from prufer.decision import decide_pruefer, verify_certificate
from prufer.orders import equation_order, product_order
from prufer.poly import RationalPolynomial

GOLDENS = pathlib.Path(__file__).resolve().parent / "element_goldens.json"


def _cli(*argv) -> list:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(list(argv))
    return [out.getvalue(), code]


def _poly(text):
    return equation_order(RationalPolynomial.parse(text))


def _fields():
    fields = {f: _poly(f) for f in ("X^2 - 5", "X^4 + 36", "X^6 + 108", "X^8 - 162")}
    fields.update({f"X^{n} - 2": _poly(f"X^{n} - 2") for n in range(2, 13)})
    return fields


def observed(scratch: pathlib.Path) -> dict:
    """Everything the goldens file records, worked out now."""
    cli = {}
    for name in CORPUS_FILES:
        path = str(ORDERS_DIR / f"{name}.json")
        cli[f"analyze {name}"] = _cli("analyze", "--json", path)
        cli[f"maximal-order {name}"] = _cli("maximal-order", "--json", path)
    fields = {}
    for name, order in _fields().items():
        cert = decide_pruefer(order)
        path = scratch / "order.json"
        path.write_text(json.dumps(order_to_dict(order)), encoding="utf-8")
        fields[name] = {
            "certificate": cert.to_json(),
            "verified": verify_certificate(order, cert),
            "maximal-order": _cli("maximal-order", "--json", str(path)),
        }
    product = product_order(_poly("X^2 + 1"), _poly("X^3 - 2"))
    cert = decide_pruefer(product)
    fields["Z[i] x Z[2^(1/3)]"] = {"certificate": cert.to_json(), "verified": verify_certificate(product, cert)}
    return {"cli": cli, "orders": fields}


def test_element_goldens(tmp_path):
    assert observed(tmp_path) == json.loads(GOLDENS.read_text(encoding="utf-8"))
