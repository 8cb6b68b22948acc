"""Integral closure of an order in a number field.

The enlargement loop is round 2 (Pohst-Zassenhaus; Cohen, GTM 138, 6.1):
for every prime p with p^2 dividing the discriminant, replace O by the ring
of multipliers of its p-radical I until that stabilizes.  Both steps are
linear algebra over F_p: I/pO is the kernel of Frobenius on O/pO, and the
multiplier ring is (1/p) times the lift of the kernel of O/pO -> End(I/pI).
Each enlargement divides the discriminant by the square of the index, so
termination is immediate, and the fixed point at every such p certifies
maximality.  First, Dedekind's criterion on mu_b, b in O of degree dim O,
settles every p at which Z[b] is p-maximal (``factor.dedekind_p_maximal``).

Round 2 needs an order that spans a number field.  ``field_polynomial`` is
the one check of that: it searches for a primitive element a, which comes
with its minimal polynomial, and asks ``poly_factor`` whether that is
irreducible.  ``maximal_order`` and the ramification profile run it once;
``decide_pruefer`` on its components and the pointwise test on irreducible
factors already know the answer and skip it.

``_enlargements`` yields the overorder after each step of index > 1.  One
such step proves the order is not maximal, so the callers that ask only
that, ``decide_pruefer`` and ``ivp.ramification_profile``, take its first
step and stop.  ``_round_two`` runs it to the fixed point for the callers
that need the maximal order itself: ``maximal_order`` (and through it
``prufer maximal-order``) and ``ivp.pointwise_integrally_closed``.

Everything works in the coordinates of the *original* order: each result is
an ``orders.EmbeddedOrder``, the new order's structure constants together
with its basis as elements of the input order's ambient algebra, or the
input order itself on the unit basis where round 2 leaves it as it is.
"""

from __future__ import annotations

from typing import Iterator

from .errors import NotApplicableError
from .lattice import IntegerLattice, hnf_reduce
from .linalg import bareiss_det, modp_span_add
from .orders import (
    AlgebraElement,
    EmbeddedOrder,
    ZOrder,
    embedded_order,
    is_commutative,
)
from .poly import RationalPolynomial, binary_power
from .splitting import find_primitive_element
from .factor import dedekind_p_maximal, factor_int, poly_factor


def discriminant(order: ZOrder) -> int:
    """Determinant of the trace-form Gram matrix, once per order."""
    return order.discriminant


# -- radical and multiplier ring --------------------------------------------


def _modp_kernel_lattice(rows: list[list[int]], p: int) -> IntegerLattice:
    """The lattice {y in Z^n : y * M = 0 (mod p)} for n rows M with entries
    in [0, p), in HNF: the lift of the F_p left kernel plus p*Z^n.  The rows
    stream through ``modp_span_add``; each dependent row i gives the kernel
    vector 1 at i, its relation at the kept rows, and these span the kernel."""
    n = len(rows)
    span, kept, gens = [], [], []
    for i, row in enumerate(rows):
        if (relation := modp_span_add(span, row, p)) is None:
            kept.append(i)
        else:
            at = dict(zip(kept + [i], relation))
            gens.append([at.get(j, 0) for j in range(n)])
    gens += [[p if j == i else 0 for j in range(n)] for i in range(n)]
    return hnf_reduce(gens, n)


def p_radical(order: ZOrder, p: int) -> IntegerLattice:
    """The p-radical: preimage in A of the nilradical of A/pA (commutative).

    Computed as the kernel of the F_p-semilinear map x -> x^(p^k) with
    p^k >= dim, which is F_p-linear on coordinates by Frobenius; the kernel
    lifts to a full-rank lattice containing p*Z^n.
    """
    if not is_commutative(order)[0]:
        raise NotApplicableError("NOT_COMMUTATIVE: the p-radical construction needs a commutative order")

    def mul_mod_p(x, y):
        return [c % p for c in order._mul_coords(x, y)]

    q = p
    while q < order.dim:
        q *= p
    return _modp_kernel_lattice([binary_power(b.integer_numerators, q, mul_mod_p) for b in order.unit_basis], p)


def ring_of_multipliers(order: ZOrder, ideal: IntegerLattice, p: int) -> EmbeddedOrder:
    """O' = {x in K : x*I <= I} for an ideal I of O = Z^n with p*O <= I.

    p is a prime; the p-radical contains p*O by construction.  As p is in
    I, every multiplier x has p*x in I <= O, so O' = U/p with
    U = {y in O : y*I <= p*I}.  U contains p*O, and U/pO is the kernel of
    the F_p-linear map O/pO -> End(I/pI), y -> (w_j -> y*w_j): row i of its
    n x n^2 matrix holds the coordinates of b_i*w_j in I's Hermite basis
    w_1..w_n, mod p (Cohen, GTM 138, Alg. 6.1.8).
    """
    commutative, _ = is_commutative(order)
    if not commutative:
        raise NotApplicableError("NOT_COMMUTATIVE: the multiplier ring construction needs a commutative order")
    n = order.dim
    if ideal.ambient_dim != n or ideal.rank != n:
        raise NotApplicableError("multiplier ring needs a full-rank ideal lattice")
    unit = [[1 if j == i else 0 for j in range(n)] for i in range(n)]
    if any(ideal.coordinates([p * c for c in e]) is None for e in unit):
        raise NotApplicableError(f"multiplier ring at {p} needs {p}*O inside the ideal")
    matrix = []
    for b in unit:
        row = []
        for w in ideal.basis:
            coords = ideal.coordinates(order._mul_coords(b, w))
            if coords is None:
                raise NotApplicableError("multiplier ring needs an ideal of the order")
            row.extend(c % p for c in coords)
        matrix.append(row)
    # Where U = pO the step is stable: U/p is O's unit basis, returned as O.
    u = _modp_kernel_lattice(matrix, p)
    return embedded_order(order, [AlgebraElement(row, p) for row in u.basis], order.identity())


# -- the maximality loop ----------------------------------------------------


def field_polynomial(order: ZOrder) -> tuple[AlgebraElement, RationalPolynomial]:
    """(a, mu_a) for the first primitive element a of an order whose ambient
    algebra is a number field.

    Raises NotApplicableError when the ambient algebra is not commutative,
    or is not a field: the minimal polynomial of a primitive element must be
    irreducible.
    """
    commutative, _ = is_commutative(order)
    if not commutative:
        raise NotApplicableError("NOT_COMMUTATIVE: maximal orders are computed for number fields only")
    a, mu, _ = find_primitive_element(order)
    factors = poly_factor(mu)
    if len(factors) != 1 or factors[0][1] != 1:
        raise NotApplicableError("NOT_A_FIELD: the ambient algebra splits or is not reduced")
    return a, mu


def power_index(order: ZOrder, a: AlgebraElement) -> int:
    """[O : Z[a]] = |det(1, a, ..., a^(n-1))| in O's coordinates; 0 when a is
    not in O or does not generate the ambient algebra."""
    rows = [list(order.one)]
    while len(rows) < order.dim:
        rows.append(order._mul_coords(rows[-1], a.integer_numerators))
    return abs(bareiss_det(rows)) if a.is_integral_vector else 0


def maximal_order(order: ZOrder) -> EmbeddedOrder:
    """The integral closure of an order whose ambient algebra is a field;
    NotApplicableError from ``field_polynomial`` otherwise."""
    _, mu = field_polynomial(order)
    return _round_two(order, mu)


def _enlargements(order: ZOrder, mu: RationalPolynomial) -> Iterator[EmbeddedOrder]:
    """The round-2 steps of ``maximal_order`` that enlarge the order, for an
    order already known to span a number field: one ``field_polynomial`` has
    passed on it, or it is a component A e_i of ``decompose`` or the equation
    order of an irreducible polynomial.  mu = mu_b for some b in O of degree
    dim; a prime at which mu passes Dedekind's criterion needs no step.

    Yields the running overorder, its basis in O's ambient coordinates, after
    each ring-of-multipliers step of index > 1, and stops at the maximal
    order.  O is maximal exactly when nothing is yielded; the first yield is
    one step's order, in Hermite form, and each of its basis vectors outside
    O is integral over Z (Cohen, GTM 138, Thm 6.1.3)."""
    # ``running``, O itself on its unit basis at first, maps the current
    # overorder's coordinates into O's; each step is composed through it.
    running = EmbeddedOrder(order, order.unit_basis)
    total_index = 1
    disc = discriminant(order)
    for p, v in sorted(factor_int(disc).items()):
        if v < 2 or dedekind_p_maximal(mu, p):
            continue
        while True:
            rad = p_radical(running.order, p)
            step = ring_of_multipliers(running.order, rad, p)
            if step.index == 1:
                break
            running = EmbeddedOrder(step.order, tuple(running.to_ambient(x) for x in step.basis))
            yield running
            total_index *= step.index
            if disc // (total_index * total_index) % (p * p):  # p^2 no longer divides
                break


def _round_two(order: ZOrder, mu: RationalPolynomial) -> EmbeddedOrder:
    """The maximal order: ``_enlargements`` run to its end, on the same
    inputs, with the last overorder's basis put in Hermite form."""
    basis = order.unit_basis
    for running in _enlargements(order, mu):
        basis = running.basis
    return embedded_order(order, basis, order.identity())


def _first_non_integral(closure: EmbeddedOrder) -> AlgebraElement | None:
    """The first Hermite-basis vector of an overorder whose coordinates are
    not integral, or None: the overorder equals its order exactly when every
    basis vector is integral."""
    return next((x for x in closure.basis if not x.is_integral_vector), None)
