"""The top-level decision: is Int_Q(A) a Prüfer domain?

For an order A over Z the answer is yes exactly when A is isomorphic to a
finite product of rings of integers of number fields.  ``decide_pruefer``
walks the obstruction ladder (noncommutativity, nilpotents, idempotents
escaping the lattice, a component below its maximal order) and emits a
``PrueferCertificate`` whose witness ``verify_certificate`` re-checks
without rerunning the decision.  ``splitting.decompose`` splits A; a field
is its one component, A itself on its unit basis.  Both settle each
component A e_i at every p with p^2 | disc(A e_i) by Dedekind's criterion on
its factor g_i, the minimal polynomial of a e_i for the primitive element a.
Where g_i fails, the solver takes a round-2 step; the check refuses, or takes
one step if p | [A : Z[a]], an index read only there.  The check shares
``discriminant``, ``factor_int``, ``poly_factor``, ``dedekind_p_maximal`` and
``embedded_order`` with the solver, and at those p also ``p_radical`` and
``ring_of_multipliers``.  Neither guesses: when an ``errors.UnansweredError``
stops the work, ``decide_pruefer`` raises IndeterminateError with the error's
tag as reason, and ``verify_certificate`` lets the error through instead of
returning False.

Certificates serialize to JSON with a fixed field order (verdict, reason,
witness, citation) so output files are byte-stable.
"""

from __future__ import annotations

import copy
import json
from dataclasses import asdict, dataclass
from functools import cache
from itertools import takewhile

from .closure import (
    _enlargements,
    _first_non_integral,
    discriminant,
    p_radical,
    power_index,
    ring_of_multipliers,
)
from .errors import (
    IndeterminateError,
    MalformedCertificateError,
    MalformedInputError,
    PruferError,
    UnansweredError,
)
from .factor import check_factor_degree, dedekind_p_maximal, factor_int, poly_factor
from .lattice import hnf_reduce
from .orders import (
    AlgebraElement,
    ZOrder,
    element,
    embedded_order,
    evaluate_poly,
    is_commutative,
    is_reduced,
    minimal_polynomial,
    mul,
    power,
)
from .poly import RationalPolynomial
from .splitting import component_order, decompose

VERDICT_YES = "YES"
VERDICT_NO = "NO"

REASON_NONCOMMUTATIVE = "NONCOMMUTATIVE"
REASON_NOT_REDUCED = "NOT_REDUCED"
REASON_IDEMPOTENT_ESCAPES = "IDEMPOTENT_ESCAPES"
REASON_COMPONENT_NOT_MAXIMAL = "COMPONENT_NOT_MAXIMAL"
REASON_ALL_MAXIMAL = "ALL_COMPONENTS_MAXIMAL"

NO_REASONS = (
    REASON_NONCOMMUTATIVE,
    REASON_NOT_REDUCED,
    REASON_IDEMPOTENT_ESCAPES,
    REASON_COMPONENT_NOT_MAXIMAL,
)

# Self-describing rule identifiers; the verifier knows how to re-check each.
_CITATIONS = {
    REASON_NONCOMMUTATIVE: "commutators-obstruct-integral-closure",
    REASON_NOT_REDUCED: "nilpotents-obstruct-integral-closure",
    REASON_IDEMPOTENT_ESCAPES: "integral-idempotent-outside-order",
    REASON_COMPONENT_NOT_MAXIMAL: "component-not-integrally-closed",
    REASON_ALL_MAXIMAL: "product-of-maximal-orders",
}


@dataclass(frozen=True)
class PrueferCertificate:
    verdict: str
    reason: str
    witness: dict
    citation: str

    def __post_init__(self):
        if self.verdict not in (VERDICT_YES, VERDICT_NO):
            raise MalformedCertificateError(f"MALFORMED_CERTIFICATE: bad verdict {self.verdict!r}")
        if self.verdict == VERDICT_YES:
            if self.reason != REASON_ALL_MAXIMAL:
                raise MalformedCertificateError(
                    f"MALFORMED_CERTIFICATE: YES verdict with reason {self.reason!r}"
                )
        elif self.reason not in NO_REASONS:
            raise MalformedCertificateError(
                f"MALFORMED_CERTIFICATE: NO verdict with reason {self.reason!r}"
            )
        if not isinstance(self.witness, dict):
            raise MalformedCertificateError("MALFORMED_CERTIFICATE: witness must be an object")
        if self.citation != _CITATIONS[self.reason]:
            raise MalformedCertificateError(f"MALFORMED_CERTIFICATE: citation does not match reason {self.reason}")

    def to_dict(self) -> dict:
        """The fields in JSON order, with a copy of the witness: editing the
        result leaves the certificate as it is."""
        return asdict(self)

    def to_json(self) -> str:
        return json.dumps({"verdict": self.verdict, "reason": self.reason, "witness": self.witness, "citation": self.citation})

    @classmethod
    def from_dict(cls, data: dict) -> "PrueferCertificate":
        if not isinstance(data, dict):
            raise MalformedCertificateError("MALFORMED_CERTIFICATE: not an object")
        expected = {"verdict", "reason", "witness", "citation"}
        if set(data) != expected:
            raise MalformedCertificateError(
                f"MALFORMED_CERTIFICATE: fields {sorted(data)} do not match {sorted(expected)}"
            )
        try:
            witness = copy.deepcopy(data["witness"])
        except RecursionError as exc:
            raise MalformedCertificateError("MALFORMED_CERTIFICATE: witness nested too deeply") from exc
        return cls(verdict=data["verdict"], reason=data["reason"], witness=witness, citation=data["citation"])

    @classmethod
    def from_json(cls, text: str) -> "PrueferCertificate":
        try:
            data = json.loads(text)
        except (ValueError, RecursionError) as exc:
            raise MalformedCertificateError(f"MALFORMED_CERTIFICATE: invalid JSON: {exc}") from exc
        return cls.from_dict(data)


def _parse_coords(raw, dim: int) -> AlgebraElement:
    if not isinstance(raw, list) or len(raw) != dim:
        raise MalformedCertificateError(f"MALFORMED_CERTIFICATE: expected {dim} coordinates")
    # Read up to the first non-string: the first coordinate at fault names the error.
    strings = list(takewhile(lambda c: isinstance(c, str), raw))
    try:
        point = element(strings)
    except ValueError as exc:
        raise MalformedCertificateError(f"MALFORMED_CERTIFICATE: {exc}") from exc
    if len(strings) < dim:
        raise MalformedCertificateError("MALFORMED_CERTIFICATE: coordinates must be strings")
    return point


def _parse_poly(raw) -> RationalPolynomial:
    if not isinstance(raw, str):
        raise MalformedCertificateError("MALFORMED_CERTIFICATE: polynomial must be a string")
    try:
        return RationalPolynomial.parse(raw)
    except MalformedInputError as exc:
        raise MalformedCertificateError(f"MALFORMED_CERTIFICATE: bad polynomial {raw!r}") from exc


def _field(witness: dict, key: str):
    if key not in witness:
        raise MalformedCertificateError(f"MALFORMED_CERTIFICATE: witness missing {key!r}")
    return witness[key]


def decide_pruefer(order: ZOrder) -> PrueferCertificate:
    """Decide whether Int_Q(A) is Prüfer, with a re-checkable certificate.

    Obstructions are tested cheapest first; an ``UnansweredError`` (a
    resource limit) becomes an IndeterminateError with its tag as reason
    instead of a guessed verdict.
    """
    try:
        return _decide(order)
    except UnansweredError as exc:
        raise IndeterminateError(exc.tag, exc) from exc


def _decide(order: ZOrder) -> PrueferCertificate:
    commutative, pair = is_commutative(order)
    if not commutative:
        x, y = pair
        witness = {"x": x.coord_texts(), "y": y.coord_texts()}
        return PrueferCertificate(
            VERDICT_NO, REASON_NONCOMMUTATIVE, witness, _CITATIONS[REASON_NONCOMMUTATIVE]
        )

    reduced, nilpotent = is_reduced(order)
    if not reduced:
        x, k = nilpotent
        witness = {"element": x.coord_texts(), "power": k}
        return PrueferCertificate(
            VERDICT_NO, REASON_NOT_REDUCED, witness, _CITATIONS[REASON_NOT_REDUCED]
        )

    dec = decompose(order)
    escaping = next((e for e in dec.idempotents if not e.is_integral_vector), None)
    if escaping is not None:
        mu = minimal_polynomial(order, escaping)
        witness = {"element": escaping.coord_texts(), "min_poly": str(mu)}
        return PrueferCertificate(
            VERDICT_NO, REASON_IDEMPOTENT_ESCAPES, witness, _CITATIONS[REASON_IDEMPOTENT_ESCAPES]
        )

    components = []
    for i, g in enumerate(dec.factors):
        comp = component_order(order, dec, i)
        # A e_i spans the field Q[X]/(g_i), g_i = mu of a e_i, so round 2 runs
        # without a second search; a first step, if any, proves it not maximal.
        step = next(_enlargements(comp.order, g), None)
        if step is not None:
            pulled = comp.to_ambient(_first_non_integral(step))
            mu = minimal_polynomial(order, pulled)
            witness = {
                "element": pulled.coord_texts(),
                "min_poly": str(mu),
                "component": i,
            }
            return PrueferCertificate(
                VERDICT_NO,
                REASON_COMPONENT_NOT_MAXIMAL,
                witness,
                _CITATIONS[REASON_COMPONENT_NOT_MAXIMAL],
            )
        components.append(comp)

    witness = {
        "primitive": dec.primitive.coord_texts(),
        "min_poly": str(dec.min_poly),
        "idempotents": [e.coord_texts() for e in dec.idempotents],
        "components": [
            {
                "factor": str(g),
                "dim": g.degree,
                "basis": [x.coord_texts() for x in comp.basis],
            }
            for g, comp in zip(dec.factors, components)
        ],
    }
    return PrueferCertificate(
        VERDICT_YES, REASON_ALL_MAXIMAL, witness, _CITATIONS[REASON_ALL_MAXIMAL]
    )


def verify_certificate(order: ZOrder, cert: PrueferCertificate) -> bool:
    """Re-check a certificate against the order with independent primitives.

    Structural defects in the certificate raise MalformedCertificateError;
    a well-formed certificate whose claims do not hold returns False, and an
    UnansweredError (no answer within a limit) propagates.  The component
    index of a COMPONENT_NOT_MAXIMAL witness is checked only to be an int
    >= 0: a NO witness carries no decomposition to bound it by.
    """
    witness = cert.witness
    if cert.verdict == VERDICT_NO:
        if cert.reason == REASON_NONCOMMUTATIVE:
            x = _parse_coords(_field(witness, "x"), order.dim)
            y = _parse_coords(_field(witness, "y"), order.dim)
            return mul(order, x, y) != mul(order, y, x)
        if cert.reason == REASON_NOT_REDUCED:
            a = _parse_coords(_field(witness, "element"), order.dim)
            k = _field(witness, "power")
            if not isinstance(k, int) or k < 2:
                raise MalformedCertificateError("MALFORMED_CERTIFICATE: bad nilpotency power")
            if a.is_zero or not a.is_integral_vector:
                return False
            # A nilpotent element of an algebra of dimension n has a^n = 0, so
            # a^min(k, n) = 0 exactly when a^k = 0, whatever k is claimed.
            return power(order, a, min(k, order.dim)).is_zero
        # IDEMPOTENT_ESCAPES and COMPONENT_NOT_MAXIMAL share the witness
        # shape: an element integral over Z but outside the lattice, with its
        # minimal polynomial; an escaping idempotent is also idempotent.
        b = _parse_coords(_field(witness, "element"), order.dim)
        claimed = _parse_poly(_field(witness, "min_poly"))
        if cert.reason == REASON_COMPONENT_NOT_MAXIMAL:
            i = _field(witness, "component")
            if not isinstance(i, int) or isinstance(i, bool) or i < 0:
                raise MalformedCertificateError("MALFORMED_CERTIFICATE: bad component index")
        elif mul(order, b, b) != b:
            return False
        if b.is_integral_vector:
            return False
        mu = minimal_polynomial(order, b)
        return mu == claimed and mu.is_monic and mu.has_integer_coefficients
    return _verify_yes(order, witness)


def _verify_yes(order: ZOrder, witness: dict) -> bool:
    n = order.dim
    primitive = _parse_coords(_field(witness, "primitive"), n)
    mu = _parse_poly(_field(witness, "min_poly"))
    raw_idems = _field(witness, "idempotents")
    raw_comps = _field(witness, "components")
    if not isinstance(raw_idems, list) or not isinstance(raw_comps, list):
        raise MalformedCertificateError("MALFORMED_CERTIFICATE: idempotents/components must be lists")
    if len(raw_idems) != len(raw_comps) or not raw_comps:
        raise MalformedCertificateError("MALFORMED_CERTIFICATE: component/idempotent count mismatch")

    idems = [_parse_coords(raw, n) for raw in raw_idems]
    factors = []
    dims = []
    bases = []
    for raw in raw_comps:
        if not isinstance(raw, dict):
            raise MalformedCertificateError("MALFORMED_CERTIFICATE: component must be an object")
        g = _parse_poly(_field(raw, "factor"))
        d = _field(raw, "dim")
        rows_raw = _field(raw, "basis")
        if not isinstance(d, int) or isinstance(d, bool) or not isinstance(rows_raw, list):
            raise MalformedCertificateError("MALFORMED_CERTIFICATE: bad component shape")
        rows = [_parse_coords(r, n) for r in rows_raw]
        factors.append(g)
        dims.append(d)
        bases.append(rows)

    # The primitive element must lie in A, and mu must factor as claimed: by
    # unique factorisation, mu is squarefree with exactly the claimed
    # irreducible factors when they are distinct monic irreducibles whose
    # product is mu.  poly_factor(g) == [(g, 1)] holds only for a monic
    # irreducible g of degree at least 1.
    if mu.degree != n or not mu.is_monic or not primitive.is_integral_vector:
        return False
    check_factor_degree(mu)
    if len(set(factors)) != len(factors):
        return False
    product = RationalPolynomial.one_poly
    for g in factors:
        product = product * g
    if product != mu or any(poly_factor(g) != [(g, 1)] for g in factors):
        return False

    # Orthogonal idempotent system inside A summing to 1.
    for e in idems:
        if not e.is_integral_vector:
            return False
    total = order.zero()
    for i, ei in enumerate(idems):
        total = total + ei
        for j, ej in enumerate(idems):
            product = mul(order, ei, ej)
            target = ei if i == j else order.zero()
            if product != target:
                return False
    if total != order.identity():
        return False

    # The component bases must consist of lattice vectors and tile A exactly.
    stacked = []
    for g, d, rows in zip(factors, dims, bases):
        if d != g.degree or len(rows) != g.degree:
            return False
        for row in rows:
            if not row.is_integral_vector:
                return False
            stacked.append(row.integer_numerators)
    if len(stacked) != n:
        return False
    lat = hnf_reduce(stacked, ambient_dim=n)
    if lat.rank != n or abs(lat.determinant()) != 1:
        return False

    # Each component must close under multiplication with identity e_i, and
    # g_i(a) e_i = 0, so that a e_i in A e_i has minimal polynomial g_i.  As
    # sum e_i = 1 and g_i | mu, then mu(a) = sum (mu/g_i)(a) g_i(a) e_i = 0.
    index = cache(lambda: power_index(order, primitive))
    try:
        for g, ei, rows in zip(factors, idems, bases):
            if not mul(order, evaluate_poly(order, g, primitive), ei).is_zero:
                return False
            if not _component_is_maximal(embedded_order(order, rows, ei).order, g, index):
                return False
    except UnansweredError:
        raise
    except PruferError:
        return False
    return True


def _component_is_maximal(component: ZOrder, g: RationalPolynomial, index) -> bool:
    """Whether A e_i is p-maximal wherever p^2 | disc, for g = mu of a e_i and
    index() = [A : Z[a]], read only where g fails Dedekind's criterion:
    Z[a e_i] is p-maximal where g passes, and as [A e_i : Z[a e_i]] divides
    [A : Z[a]], a failure at p prime to the index is conclusive; only at
    p | index does one round-2 step decide."""
    disc = discriminant(component)
    if disc == 0:
        return False
    for p, v in sorted(factor_int(abs(disc)).items()):
        if v < 2 or dedekind_p_maximal(g, p):
            continue
        if index() % p or ring_of_multipliers(component, p_radical(component, p), p).index != 1:
            return False
    return True
