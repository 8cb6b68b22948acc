"""Splitting a commutative reduced order's ambient algebra into fields.

For commutative reduced B of dimension n over Q there is a primitive element
a (the minimal polynomial has degree n), and the factorization of that
minimal polynomial into distinct irreducibles g_1 ... g_t gives orthogonal
idempotents e_i and field components B_i = B e_i = Q[a] e_i.

The search walks integer candidates in a fixed shell order and returns the
first primitive one (Cohen, GTM 138, 2.4 and 6.1).  a is primitive exactly
when the Krylov rows 1, a, ..., a^(n-1) are linearly independent; otherwise
the rows before the first dependent power span the subalgebra Q[a], which is
proper.  ``orders.power_span`` gives that span and the first relation among
the powers, which for the accepted a is mu_a, so the search returns it too.
Every later candidate c inside a rejected candidate's Q[a] has Q[c] <= Q[a],
so it is not primitive either and is skipped without computing one power of
it.  Whether c lies in Q[a] is read off the span's annihilators
(``linalg.EchelonSpan.annihilators``), integer functionals built once per
rejected a.  The walk is an odometer, and one test of a span's annihilators
on the fixed coordinates skips a whole subtree of candidates when the span
holds the unit vectors of the free ones, so most candidates are never looked
at one by one.  The argument uses only the identity element, so it holds in
non-reduced algebras too, and the element chosen is the same as testing
every candidate.

The split, ``decompose``, does not factor mu_a whole: a rejected b with
mu_b = X h(X), h(0) != 0, gives the idempotent h(b)/h(0) from its span,
these cuts split B into blocks, and each block E factors its own minimal
polynomial, which closes the power span of a started at E.  A block of
several fields is split by ``crt_idempotents``, the CRT split of Q[a] that
``ivp``'s pointwise test uses too.  Everything is deterministic: the factors
are sorted canonically, so component numbering is reproducible.  A component
A e_i comes back as an ``orders.EmbeddedOrder``, as round 2's overorders do.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

from .errors import NotApplicableError, PruferError, SearchExhaustedError
from .factor import check_factor_degree, poly_factor
from .orders import (
    AlgebraElement,
    EmbeddedOrder,
    ZOrder,
    embedded_order,
    evaluate_poly,
    is_commutative,
    mul,
    power_span,
)
from .poly import RationalPolynomial, poly_xgcd

SEARCH_CAP = 200000


def shell_vectors(
    dim: int, shell_max: int, covered: Callable[[int, list[int]], bool] | None = None
) -> Iterator[tuple[int, ...]]:
    """Integer vectors ordered by max-norm shell, then little-endian within a
    shell with per-coordinate value order 0, 1, -1, 2, -2, ...

    The first coordinate varies fastest, so sparse vectors supported on early
    coordinates come before their mirror images.  Yields at most
    ``SEARCH_CAP`` vectors (the zero vector is skipped).

    Within a shell the walk is an odometer, coordinate dim - 1 slowest.
    Before each subtree of the vectors that agree with ``vec`` on coordinates
    k..dim-1, 0 < k <= dim, whose coordinates below k are 0, it asks
    ``covered(k, vec)``; on True it skips the subtree, whose shell vectors
    still count toward the cap, so the walk stops where it would have.
    """
    seen = 0

    def subtree(k: int, on_shell: bool) -> Iterator[tuple[int, ...]]:
        nonlocal seen
        if covered is not None and covered(k, vec):
            seen += (2 * m + 1) ** k - (0 if on_shell else (2 * m - 1) ** k)
            return
        for x in values:
            vec[k - 1] = x
            if k > 1:
                yield from subtree(k - 1, on_shell or abs(x) == m)
            elif on_shell or abs(x) == m:
                yield tuple(vec)
                seen += 1
            if seen >= SEARCH_CAP:
                return
        vec[k - 1] = 0

    for m in range(1, shell_max + 1):
        values = [0, *(s * v for v in range(1, m + 1) for s in (1, -1))]
        vec = [0] * dim
        yield from subtree(dim, False)
        if seen >= SEARCH_CAP:
            return


def _inside(rejected: list[tuple[tuple[int, ...], int, list[list[int]]]], vec: Sequence[int]) -> bool:
    """Whether vec lies in some rejected span Q[b]: every annihilator f of
    Q[b] has f . vec = 0."""
    return any(not any(sum(map(operator.mul, vec, f)) for f in fs) for _, _, fs in rejected)


def find_primitive_element(order: ZOrder) -> tuple[AlgebraElement, RationalPolynomial, tuple[AlgebraElement, ...]]:
    """Deterministic search for a in A with deg(minimal polynomial) = dim.

    Returns (a, mu_a, cuts) for the first candidate a from ``shell_vectors``
    whose powers 1, a, ..., a^(dim-1) are independent, mu_a from the relation
    that closes a's power span.  Each rejected candidate b leaves its span
    Q[b], a proper subalgebra; a later candidate c in Q[b] has Q[c] <= Q[b]
    and is skipped untested.  c lies in Q[b] exactly when every annihilator f
    of Q[b] has f . c = 0 (``_inside``).  A whole subtree of the walk, the
    vectors that agree with vec on coordinates k.., lies in Q[b] when every
    f vanishes on coordinates below k, that is k is at most Q[b]'s zero
    prefix, and on vec; the walk skips it unseen, so most candidates cost
    nothing.  A span inside a newer one is dropped, as the newer one rejects
    everything it would.  A rejected b whose relation has c_0 = 0 != c_1 has
    mu_b = X h(X) with h(0) = c_1, and h(b)/h(0), 1 mod X and 0 mod h, is an
    idempotent summed from the powers the span kept; ``cuts`` holds the
    distinct ones in the order found.  Requires the ambient algebra to be
    commutative; in a reduced (etale) algebra primitive elements exist and
    small integer combinations of the basis hit one quickly.
    """
    commutative, _ = is_commutative(order)
    if not commutative:
        raise NotApplicableError("NOT_COMMUTATIVE: primitive element search needs a commutative algebra")
    n = order.dim
    if n == 1:
        return order.identity(), RationalPolynomial((-1, 1)), ()
    rejected: list[tuple[tuple[int, ...], int, list[list[int]]]] = []  # (b, zero prefix, annihilators of Q[b])
    cuts: dict[AlgebraElement, None] = {}

    def covered(k: int, vec: list[int]) -> bool:
        return any(prefix >= k and not any(sum(map(operator.mul, vec, f)) for f in fs) for _, prefix, fs in rejected)

    for vec in shell_vectors(n, max(4, n), covered):
        if _inside(rejected, vec):
            continue
        span, relation = power_span(order, vec)
        if span.rank == n:
            return AlgebraElement(vec), RationalPolynomial.from_int_coeffs(relation, relation[-1]), tuple(cuts)
        if relation[0] == 0 != relation[1]:
            h_b = tuple(sum(map(operator.mul, relation[1:], column)) for column in zip(*span.kept))
            cuts[AlgebraElement(h_b, relation[1])] = None
        rejected = [entry for entry in rejected if entry[0] not in span]
        fs = span.annihilators
        rejected.append((vec, min(next(j for j, x in enumerate(f) if x) for f in fs), fs))
    raise SearchExhaustedError("no primitive element found within the search budget")


@dataclass(frozen=True)
class Decomposition:
    """A splitting of the ambient algebra as a product of fields: the
    primitive element a, its minimal polynomial, the irreducible factors of
    that polynomial and the matching orthogonal idempotents."""

    primitive: AlgebraElement
    min_poly: RationalPolynomial
    factors: tuple[RationalPolynomial, ...]
    idempotents: tuple[AlgebraElement, ...]


def decompose(order: ZOrder) -> Decomposition:
    """Split B into fields via a primitive element.

    Preconditions: B commutative and reduced, for a commutative order
    disc != 0 (``orders.is_reduced``), which the order keeps once computed;
    violations raise NotApplicableError.  The idempotent identities are
    verified before returning, so downstream code can rely on them.

    The search's cuts refine {1} into orthogonal blocks E (f -> fE, f - fE);
    mu_(aE), the power span of a from E, is the product of the factors of
    mu_a in A E.  Irreducible, it makes E a component's idempotent;
    reducible, ``crt_idempotents`` splits it, each result times E.  As
    primitive idempotents are unique, the pairs sorted by factor are those
    of factoring mu_a whole, which one block does.
    """
    commutative, _ = is_commutative(order)
    if not commutative:
        raise NotApplicableError("NOT_COMMUTATIVE: decompose needs a commutative algebra")
    if not order.discriminant:
        raise NotApplicableError("NOT_REDUCED: decompose needs a reduced algebra")
    a, mu, cuts = find_primitive_element(order)
    check_factor_degree(mu)  # the cap is on mu_a, though no block may reach it
    blocks = [order.identity()]
    for e in cuts:
        products = [(f, mul(order, f, e)) for f in blocks]
        blocks = [part for f, fe in products for part in (fe, f - fe) if not part.is_zero]
    pairs = []
    for block in blocks:
        block_mu = mu
        if len(blocks) > 1:
            _, relation = power_span(order, a.integer_numerators, block.integer_numerators)
            block_mu = RationalPolynomial.from_int_coeffs(relation, relation[-1])
        factor_pairs = poly_factor(block_mu)
        if any(mult != 1 for _, mult in factor_pairs):
            raise PruferError("minimal polynomial of a primitive element is not squarefree in a reduced algebra")
        block_factors = [g for g, _ in factor_pairs]
        split = crt_idempotents(order, a, block_mu, block_factors) if len(block_factors) > 1 else [order.identity()]
        pairs += zip(block_factors, (mul(order, e, block) for e in split))
    pairs.sort(key=lambda pair: pair[0].sort_key())
    factors, idempotents = map(tuple, zip(*pairs))
    if sum(idempotents, order.zero()) != order.identity():
        raise PruferError("idempotents do not sum to the identity")
    for i, ei in enumerate(idempotents):
        for j, ej in enumerate(idempotents):
            if mul(order, ei, ej) != (ei if i == j else order.zero()):
                raise PruferError("idempotents are not orthogonal")
    return Decomposition(primitive=a, min_poly=mu, factors=factors, idempotents=idempotents)


def crt_idempotents(
    order: ZOrder, a: AlgebraElement, mu: RationalPolynomial, factors: Sequence[RationalPolynomial]
) -> tuple[AlgebraElement, ...]:
    """The idempotents e_i = (1 - s_i g_i)(a) of Q[a] for the irreducible
    factors g_i of a squarefree mu = mu_a: s_i g_i + t_i (mu/g_i) = 1, so
    1 - s_i g_i is 1 mod g_i and 0 mod every other factor (CRT).  For mu =
    mu_(aE) of a block E, the e_i E are that block's."""
    idempotents = []
    for g in factors:
        gcd_poly, s, _ = poly_xgcd(g, mu // g)
        if gcd_poly.degree != 0:
            raise PruferError("minimal polynomial factors are not coprime")
        idempotents.append(evaluate_poly(order, RationalPolynomial.one_poly - s * g, a))
    return tuple(idempotents)


def component_order(order: ZOrder, dec: Decomposition, index: int) -> EmbeddedOrder:
    """The projection A e_i of the order into component i, as an order with
    identity e_i, on the Hermite basis of the lattice spanned by b_j e_i."""
    e = dec.idempotents[index]
    generators = [mul(order, b, e) for b in order.unit_basis]
    comp = embedded_order(order, generators, e)
    if comp.order.dim != dec.factors[index].degree:
        raise PruferError("component lattice rank does not match the factor degree")
    return comp
