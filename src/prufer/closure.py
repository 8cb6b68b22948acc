"""Integral closure of an order in a number field.

The enlargement loop is the classical radical/multiplier-ring iteration: for
every prime p with p^2 dividing the discriminant, replace O by the ring of
multipliers of its p-radical until that stabilizes.  Each enlargement divides
the discriminant by the square of the index, so termination is immediate, and
the fixed point at every such p certifies maximality.

Everything works in the coordinates of the *original* order: each result is
an ``orders.EmbeddedOrder``, the new order's structure constants together
with rational basis rows expressing its basis inside the input order, built
by ``orders.embedded_order``.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .errors import DiscFactorizationError, NotApplicableError, PruferError
from .lattice import IntegerLattice, hnf_reduce, integer_left_kernel
from .linalg import bareiss_det, mat_mul, modp_left_kernel
from .orders import (
    AlgebraElement,
    EmbeddedOrder,
    ZOrder,
    embedded_order,
    is_commutative,
    minimal_polynomial,
    trace_gram_matrix,
)
from .splitting import find_primitive_element
from .factor import poly_factor


def discriminant(order: ZOrder) -> int:
    """Determinant of the trace-form Gram matrix on the given basis."""
    return bareiss_det(trace_gram_matrix(order))


def is_integral(order: ZOrder, x: AlgebraElement) -> bool:
    """Is x integral over Z?  True iff its minimal polynomial is in Z[X]."""
    return minimal_polynomial(order, x).has_integer_coefficients


# -- integer factorization (for discriminants) ------------------------------

_TRIAL_LIMIT = 100000
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_probable_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _pollard_brent(n: int, budget: int) -> int | None:
    """One nontrivial factor of composite odd n, or None within the budget."""
    for c in range(1, 20):
        y, m = 2, 128
        g, r, q = 1, 1, 1
        x = ys = y
        count = 0
        while g == 1 and count < budget:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = gcd(q, n)
                k += m
            r *= 2
            count += r
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(abs(x - ys), n)
                count += 1
                if count >= budget:
                    break
        if 1 < g < n:
            return g
    return None


def factor_int(n: int, budget: int = 500000) -> dict[int, int]:
    """Prime factorization of |n| as {prime: exponent}.

    Trial division below 10^5, then Pollard-Brent with a work budget; raises
    DiscFactorizationError if a composite cofactor survives.
    """
    n = abs(int(n))
    if n == 0:
        raise ZeroDivisionError("factoring zero")
    out: dict[int, int] = {}
    for p in range(2, _TRIAL_LIMIT):
        if p * p > n:
            break
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    if n == 1:
        return out
    stack = [n]
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if _is_probable_prime(m):
            out[m] = out.get(m, 0) + 1
            continue
        d = _pollard_brent(m, budget)
        if d is None:
            raise DiscFactorizationError(
                f"DISC_FACTORIZATION_FAILED: composite cofactor {m} resisted the budget"
            )
        stack.append(d)
        stack.append(m // d)
    return out


# -- radical and multiplier ring --------------------------------------------


def p_radical(order: ZOrder, p: int) -> IntegerLattice:
    """The p-radical: preimage in A of the nilradical of A/pA (commutative).

    Computed as the kernel of the F_p-semilinear map x -> x^(p^k) with
    p^k >= dim, which is F_p-linear on coordinates by Frobenius; the kernel
    lifts to a full-rank lattice containing p*Z^n.
    """
    commutative, _ = is_commutative(order)
    if not commutative:
        raise NotApplicableError("NOT_COMMUTATIVE: the p-radical construction needs a commutative order")
    n = order.dim
    q = p
    while q < n:
        q *= p
    rows = []
    for i in range(n):
        img = _basis_power_mod_p(order, i, q, p)
        rows.append(img)
    kernel = modp_left_kernel(rows, p)
    gens = [list(v) for v in kernel]
    for i in range(n):
        gens.append([p if j == i else 0 for j in range(n)])
    return hnf_reduce(gens, n)


def _basis_power_mod_p(order: ZOrder, i: int, e: int, p: int) -> list[int]:
    base = [1 if j == i else 0 for j in range(order.dim)]
    result = [c % p for c in order.one]
    while e:
        if e & 1:
            result = [c % p for c in order._mul_coords(result, base)]
        base = [c % p for c in order._mul_coords(base, base)] if e > 1 else base
        e >>= 1
    return result


def ring_of_multipliers(order: ZOrder, ideal: IntegerLattice) -> EmbeddedOrder:
    """O' = {x in B : x*I <= I} for a full-rank ideal lattice I.

    Since d*Z^n <= I <= Z^n for d = [Z^n : I], any multiplier x satisfies
    d*x in Z^n, so writing x = y/d turns the condition into integer linear
    constraints y * (b_i w_j) in d*I, solved by an integer kernel.
    """
    commutative, _ = is_commutative(order)
    if not commutative:
        raise NotApplicableError("NOT_COMMUTATIVE: the multiplier ring construction needs a commutative order")
    n = order.dim
    if ideal.ambient_dim != n or ideal.rank != n:
        raise NotApplicableError("multiplier ring needs a full-rank ideal lattice")
    d = ideal.determinant()
    w = [list(row) for row in ideal.basis]
    d_ideal = [[d * c for c in row] for row in w]
    # Unknowns: y_0..y_{n-1}, then z_{j,k} for j,k in range(n).
    # Conditions (n blocks of n columns): y * (b_i w_j) - z_j * (d I) = 0.
    products = [[order._mul_coords([1 if t == i else 0 for t in range(n)], w[j]) for j in range(n)] for i in range(n)]
    matrix = []
    for i in range(n):
        row = []
        for j in range(n):
            row.extend(products[i][j])
        matrix.append(row)
    for j in range(n):
        for k in range(n):
            row = [0] * (n * n)
            for col in range(n):
                row[j * n + col] = -d_ideal[k][col]
            matrix.append(row)
    kernel = integer_left_kernel(matrix)
    return embedded_order(order, [[Fraction(c, d) for c in vec[:n]] for vec in kernel], order.one)


# -- the maximality loop ----------------------------------------------------


def _p_valuation(n: int, p: int) -> int:
    n = abs(n)
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def maximal_order(order: ZOrder) -> EmbeddedOrder:
    """The integral closure of an order whose ambient algebra is a field.

    Raises NotApplicableError when the ambient algebra is not a field (test:
    the minimal polynomial of a primitive element must be irreducible).
    """
    commutative, _ = is_commutative(order)
    if not commutative:
        raise NotApplicableError("NOT_COMMUTATIVE: maximal orders are computed for number fields only")
    a = find_primitive_element(order)
    mu = minimal_polynomial(order, a)
    factors = poly_factor(mu)
    if len(factors) != 1 or factors[0][1] != 1:
        raise NotApplicableError("NOT_A_FIELD: the ambient algebra splits or is not reduced")
    n = order.dim
    current = order
    embedding: list[list[Fraction]] = [[Fraction(1 if i == j else 0) for j in range(n)] for i in range(n)]
    total_index = 1
    disc = discriminant(order)
    for p in sorted(factor_int(disc)):
        if _p_valuation(disc, p) < 2:
            continue
        while True:
            rad = p_radical(current, p)
            step = ring_of_multipliers(current, rad)
            if step.index == 1:
                break
            embedding = mat_mul(step.basis_in_ambient, embedding)
            current = step.order
            total_index *= step.index
            if _p_valuation(disc // (total_index * total_index), p) < 2:
                break
    return embedded_order(order, embedding, order.one)


def is_integrally_closed_order(order: ZOrder) -> tuple[bool, AlgebraElement | None]:
    """(True, None) if the order equals its integral closure; otherwise
    (False, w) with w the first Hermite-basis vector of the closure whose
    coordinates are not integral."""
    closure = maximal_order(order)
    if closure.index == 1:
        return True, None
    for row in closure.basis_in_ambient:
        if any(c.denominator != 1 for c in row):
            return False, AlgebraElement(row)
    raise PruferError("closure has index > 1 but an integral basis; impossible")
