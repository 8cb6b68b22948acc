"""Exact-arithmetic toolkit for integer-valued polynomials on Z-orders.

The central question: given an order A (a ring that is a finitely generated
torsion-free Z-module) presented by integer structure constants, is the ring
of polynomials f in Q[X] with f(A) contained in A a Prufer domain?  The
answer comes with a certificate that can be re-verified independently of the
decision procedure.

Everything is exact: linear algebra is fraction-free elimination on integer
rows with one common denominator, lattices are integer matrices in Hermite
normal form, and polynomial factorization is done from scratch over Q.
An element of the ambient algebra is an integer vector over one positive
denominator, as a polynomial is integer coefficients over one denominator,
so element arithmetic, polynomial division, minimal polynomials, embedded
orders, round 2 and the quaternion case study run on integers.
``fractions.Fraction`` is left at the edges, where coordinates, coefficients
and scalars come in or go out.  No floating point enters any verdict.
"""

from .errors import (
    BudgetExceededError,
    DiscFactorizationError,
    DimensionMismatchError,
    FactorDegreeError,
    IndeterminateError,
    IndexDivisibleError,
    MalformedCertificateError,
    MalformedInputError,
    NoIdentityError,
    NonAssociativeError,
    NotApplicableError,
    PruferError,
    SearchExhaustedError,
    UnansweredError,
    UnitLineError,
    ZeroPolynomialError,
)
from .lattice import IntegerLattice, hnf_reduce
from .poly import RationalPolynomial
from .factor import poly_factor
from .orders import (
    AlgebraElement,
    EmbeddedOrder,
    ZOrder,
    equation_order,
    is_commutative,
    is_reduced,
    load_order,
    minimal_polynomial,
    product_order,
)
from .splitting import Decomposition, component_order, decompose, find_primitive_element
from .closure import (
    discriminant,
    maximal_order,
    p_radical,
    ring_of_multipliers,
)
from .ivp import (
    PointwiseClosure,
    RamificationProfile,
    int_member_finite,
    int_member_order,
    pointwise_integrally_closed,
    pruefer_transform,
    ramification_profile,
    transform_sequence,
)
from .decision import PrueferCertificate, decide_pruefer, verify_certificate
from .quaternions import (
    HURWITZ_UNIT,
    ClosureReport,
    closure_check,
    four_square_lemma_check,
    four_square_violations,
    hurwitz_member,
    norm_in_D_check,
    quaternion_integral,
    reduced_char_poly,
)

__all__ = [
    "PruferError",
    "DimensionMismatchError",
    "ZeroPolynomialError",
    "FactorDegreeError",
    "NonAssociativeError",
    "NoIdentityError",
    "UnitLineError",
    "MalformedInputError",
    "MalformedCertificateError",
    "SearchExhaustedError",
    "BudgetExceededError",
    "IndexDivisibleError",
    "DiscFactorizationError",
    "UnansweredError",
    "IndeterminateError",
    "NotApplicableError",
    "IntegerLattice",
    "hnf_reduce",
    "RationalPolynomial",
    "poly_factor",
    "ZOrder",
    "AlgebraElement",
    "equation_order",
    "load_order",
    "product_order",
    "minimal_polynomial",
    "is_commutative",
    "is_reduced",
    "Decomposition",
    "find_primitive_element",
    "decompose",
    "component_order",
    "EmbeddedOrder",
    "discriminant",
    "p_radical",
    "ring_of_multipliers",
    "maximal_order",
    "PointwiseClosure",
    "RamificationProfile",
    "int_member_finite",
    "int_member_order",
    "pointwise_integrally_closed",
    "ramification_profile",
    "pruefer_transform",
    "transform_sequence",
    "PrueferCertificate",
    "decide_pruefer",
    "verify_certificate",
    "HURWITZ_UNIT",
    "ClosureReport",
    "hurwitz_member",
    "quaternion_integral",
    "reduced_char_poly",
    "closure_check",
    "four_square_lemma_check",
    "four_square_violations",
    "norm_in_D_check",
]
