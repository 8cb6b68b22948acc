"""Z-orders presented by integer structure constants.

An order of dimension n is a free Z-module Z^n with a bilinear multiplication
``table[i][j]`` = coordinates of b_i * b_j, an identity vector, and optional
basis names.  Construction checks the field types (ints, bool refused; the
one type check, whether the fields come from a file through ``load_order``
or from Python) and the ring axioms (associativity, the identity law,
primitivity of the identity vector); everything downstream may assume a
valid order.  Associativity is proved once, where a table enters the program
(``ZOrder(...)``, ``load_order``, ``equation_order``, ``product_order``),
exactly and on packed integers: each cell becomes one integer with a slot per
coordinate, wide enough that no coordinate of a triple product can carry into
the next, so each triple costs one big-integer multiply-add per nonzero entry
of the two cells it reads.  An order derived by ``embedded_order`` is built
from integer tuples and inherits associativity from its ambient order, so it
runs only the shape, unit-line and identity checks.

An element of the ambient Q-algebra B = A (x) Q is a vector of integer
coordinates over one positive denominator, the way ``RationalPolynomial``
stores its coefficients, so products, sums and minimal polynomials are
integer arithmetic; membership in A is denominator 1.  ``element`` is the one
constructor from rational coordinates, ``coord_texts`` the text that
certificates and the CLI print, and ``coords`` the Fraction view.

An ``EmbeddedOrder`` is an order inside B together with its basis as
elements of B: a field component A e_i, or an overorder built by round 2.
``embedded_order`` builds one from generators, or is the order itself on its
unit basis, where ``closure._enlargements`` starts composing its steps.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from itertools import combinations, compress
from math import gcd, lcm
from pathlib import Path
from typing import Sequence, Union

from .errors import (
    DimensionMismatchError,
    MalformedInputError,
    NoIdentityError,
    NonAssociativeError,
    NotApplicableError,
    PruferError,
    UnitLineError,
)
from .lattice import hnf_reduce
from .linalg import EchelonSpan, bareiss_det
from .poly import RationalPolynomial, binary_power, parse_rational, rational_text


@dataclass(frozen=True)
class AlgebraElement:
    """An element of the ambient Q-algebra of some order: the integer vector
    ``integer_numerators`` over ``denominator``.

    Construction brings the pair to lowest terms (denominator positive and
    coprime to the numerators), so equal elements compare and hash equal.
    """

    integer_numerators: tuple[int, ...]
    denominator: int = 1

    def __post_init__(self):
        nums, den = tuple(self.integer_numerators), self.denominator
        if den == 0:
            raise ZeroDivisionError("element denominator is zero")
        # gcd also rejects any non-integer coordinate.
        g = gcd(den, *nums)
        if den < 0:
            g = -g
        if g != 1:
            nums, den = tuple(c // g for c in nums), den // g
        object.__setattr__(self, "integer_numerators", nums)
        object.__setattr__(self, "denominator", den)

    @property
    def coords(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(c, self.denominator) for c in self.integer_numerators)

    def coord_texts(self) -> list[str]:
        return [rational_text(c, self.denominator) for c in self.integer_numerators]

    @property
    def dim(self) -> int:
        return len(self.integer_numerators)

    @property
    def is_zero(self) -> bool:
        return not any(self.integer_numerators)

    @property
    def is_integral_vector(self) -> bool:
        """Integer coordinates, i.e. membership in the order's lattice Z^n."""
        return self.denominator == 1

    def __add__(self, other: "AlgebraElement") -> "AlgebraElement":
        if self.dim != other.dim:
            raise DimensionMismatchError("adding elements of different dimensions")
        den = lcm(self.denominator, other.denominator)
        a, b = den // self.denominator, den // other.denominator
        return AlgebraElement(
            tuple(a * x + b * y for x, y in zip(self.integer_numerators, other.integer_numerators)), den
        )

    def __sub__(self, other: "AlgebraElement") -> "AlgebraElement":
        return self + -other

    def __neg__(self) -> "AlgebraElement":
        return AlgebraElement(tuple(-c for c in self.integer_numerators), self.denominator)


def element(coords: Sequence) -> AlgebraElement:
    """The element with the given rational coordinates (ints, Fractions or
    strings such as "1/2", read by ``poly.parse_rational``).  A coordinate
    that does not read raises ValueError naming it."""
    pairs = []
    for c in coords:
        try:
            pairs.append(parse_rational(c))
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"bad coordinate {c!r}") from exc
    den = lcm(*(d for _, d in pairs))
    return AlgebraElement(tuple(n * (den // d) for n, d in pairs), den)


def _int_vector(v) -> tuple[int, ...] | None:
    """v as a tuple if it is a list or tuple of ints (bool refused), else None."""
    if isinstance(v, (list, tuple)) and all(isinstance(c, int) and not isinstance(c, bool) for c in v):
        return tuple(v)


@dataclass(frozen=True)
class ZOrder:
    """A torsion-free Z-order given by structure constants; its trace form's
    Gram matrix, discriminant and first noncommuting pair are kept once used."""

    dim: int
    table: tuple[tuple[tuple[int, ...], ...], ...]
    one: tuple[int, ...]
    basis_names: tuple[str, ...] | None = None

    def __post_init__(self):
        self._check_types()
        self._check_structure()
        self._check_associativity()

    @classmethod
    def _derived(cls, dim: int, table, one) -> "ZOrder":
        """An order whose table is the product of an already validated order
        restricted to a closed lattice, so associative by construction, and
        built from integer tuples: the shape, unit-line and identity checks
        of ``__post_init__`` run, the type checks and the n^3-triple
        associativity proof do not."""
        order = object.__new__(cls)
        for name, value in (("dim", dim), ("table", table), ("one", one), ("basis_names", None)):
            object.__setattr__(order, name, value)
        order._check_structure()
        return order

    @cached_property
    def unit_basis(self) -> tuple[AlgebraElement, ...]:
        """b_0, ..., b_(n-1) as elements: the basis of the order's own lattice."""
        return tuple(self.basis_element(i) for i in range(self.dim))

    @cached_property
    def _noncommuting_pair(self) -> tuple[int, int] | None:
        """The first (i, j), i < j, with b_i b_j != b_j b_i, or None."""
        table = self.table
        return next(((i, j) for i, j in combinations(range(self.dim), 2) if table[i][j] != table[j][i]), None)

    @cached_property
    def _gram(self) -> list[list[int]]:
        return trace_gram_matrix(self)

    @cached_property
    def discriminant(self) -> int:
        """disc(A), the determinant of the trace form on the basis."""
        return bareiss_det(self._gram)

    def _check_types(self):
        """The one type check of the fields, for an order file and a
        Python-built order alike; the fields become tuples."""
        if not isinstance(self.dim, int) or isinstance(self.dim, bool):
            raise MalformedInputError("MALFORMED_INPUT: dim must be an integer")
        names = self.basis_names
        if names is not None:
            if not isinstance(names, (list, tuple)) or not all(isinstance(s, str) for s in names):
                raise MalformedInputError("MALFORMED_INPUT: basis_names must be a list of strings")
            object.__setattr__(self, "basis_names", tuple(names))
        if (one := _int_vector(self.one)) is None:
            raise MalformedInputError("MALFORMED_INPUT: one must be a list of integers")
        table = self.table
        if not isinstance(table, (list, tuple)) or not all(isinstance(row, (list, tuple)) for row in table):
            raise MalformedInputError("MALFORMED_INPUT: table must be a list of lists")
        cells = tuple(tuple(_int_vector(cell) for cell in row) for row in table)
        for i, row in enumerate(cells):
            if None in row:
                raise MalformedInputError(f"MALFORMED_INPUT: table[{i}][{row.index(None)}] must be a list of integers")
        object.__setattr__(self, "one", one)
        object.__setattr__(self, "table", cells)

    def _check_structure(self):
        """Check shape, unit line and identity law."""
        n = self.dim
        if n < 1:
            raise MalformedInputError("MALFORMED_INPUT: dimension must be at least 1")
        if len(self.table) != n or any(len(row) != n for row in self.table):
            raise MalformedInputError("MALFORMED_INPUT: table is not dim x dim")
        if any(len(cell) != n for row in self.table for cell in row):
            raise MalformedInputError("MALFORMED_INPUT: table entries are not coordinate vectors of length dim")
        if len(self.one) != n:
            raise MalformedInputError("MALFORMED_INPUT: identity vector has wrong length")
        # Names are made only once dim is known to match the data, so a
        # huge dim on a small table costs nothing.
        if self.basis_names is None:
            object.__setattr__(self, "basis_names", tuple(f"b{i}" for i in range(n)))
        if len(self.basis_names) != n:
            raise MalformedInputError("MALFORMED_INPUT: basis_names has wrong length")
        if gcd(*self.one) not in (1,):
            raise UnitLineError("UNIT_LINE_NOT_SATURATED: identity coordinates have a common factor")
        self._check_identity()

    def _mul_coords(self, x: Sequence, y: Sequence) -> list:
        out = [0] * self.dim
        for i, xi in enumerate(x):
            if xi == 0:
                continue
            row = self.table[i]
            for j, yj in enumerate(y):
                if yj == 0:
                    continue
                c = xi * yj
                for k, t in enumerate(row[j]):
                    if t:
                        out[k] += c * t
        return out

    def _check_identity(self):
        for j in range(self.dim):
            basis = [1 if i == j else 0 for i in range(self.dim)]
            left = self._mul_coords(self.one, basis)
            right = self._mul_coords(basis, self.one)
            if left != basis or right != basis:
                raise NoIdentityError(f"NO_IDENTITY: identity law fails on basis vector {j}")

    def _check_associativity(self):
        """Prove (b_i b_j) b_k = b_i (b_j b_k) for every triple, exactly.

        Each cell is packed into one integer, P[i][j] = sum_l T[i][j][l] 2^(w l).
        A coordinate of either side is at most S*M in absolute value (S the
        largest L1 norm of a cell, M the largest |entry|), so the two sides
        differ by a vector with coordinates below 2^(w-1); the packing is
        injective on such vectors, and comparing two integers compares the
        two sides exactly.  A triple costs one big-integer multiply-add per
        nonzero entry of T[i][j] and of T[j][k].
        """
        n, table = self.dim, self.table
        bound = max(sum(map(abs, cell)) for row in table for cell in row) * max(
            abs(c) for row in table for cell in row for c in cell
        )
        w = bound.bit_length() + 2
        packed = [[sum(c << (w * l) for l, c in enumerate(cell)) for cell in row] for row in table]
        support = [[[(m, c) for m, c in enumerate(cell) if c] for cell in row] for row in table]
        for i in range(n):
            p_i = packed[i]
            for j in range(n):
                ij, s_j = support[i][j], support[j]
                for k in range(n):
                    left = right = 0
                    for m, c in ij:
                        left += c * packed[m][k]
                    for m, c in s_j[k]:
                        right += c * p_i[m]
                    if left != right:
                        raise NonAssociativeError(
                            f"NON_ASSOCIATIVE: (b{i}*b{j})*b{k} != b{i}*(b{j}*b{k})"
                        )

    # -- elements ---------------------------------------------------------

    def zero(self) -> AlgebraElement:
        return AlgebraElement((0,) * self.dim)

    def identity(self) -> AlgebraElement:
        return AlgebraElement(self.one)

    def basis_element(self, i: int) -> AlgebraElement:
        return AlgebraElement(tuple(1 if j == i else 0 for j in range(self.dim)))


OrderSource = Union[dict, str, Path]


def load_order(source: OrderSource) -> ZOrder:
    """Build a validated ZOrder from a dict or a JSON file path.

    Only the document is checked here (the source, the top-level object and
    the required fields); ``ZOrder`` type-checks the fields themselves."""
    if isinstance(source, (str, Path)):
        try:
            with open(source, "r", encoding="utf-8") as fh:
                doc = json.load(fh)
        except OSError as exc:
            raise MalformedInputError(f"MALFORMED_INPUT: cannot read {source}: {exc}") from exc
        except ValueError as exc:
            raise MalformedInputError(f"MALFORMED_INPUT: invalid JSON in {source}: {exc}") from exc
    elif isinstance(source, dict):
        doc = source
    else:
        raise MalformedInputError(f"MALFORMED_INPUT: unsupported source {type(source).__name__}")
    if not isinstance(doc, dict):
        raise MalformedInputError("MALFORMED_INPUT: top-level JSON value must be an object")
    missing = [key for key in ("dim", "one", "table") if key not in doc]
    if missing:
        raise MalformedInputError(f"MALFORMED_INPUT: missing fields {missing}")
    return ZOrder(dim=doc["dim"], table=doc["table"], one=doc["one"], basis_names=doc.get("basis_names"))


# -- arithmetic in the ambient algebra -------------------------------------


def mul(order: ZOrder, x: AlgebraElement, y: AlgebraElement) -> AlgebraElement:
    if x.dim != order.dim or y.dim != order.dim:
        raise DimensionMismatchError("element dimension does not match the order")
    product = order._mul_coords(x.integer_numerators, y.integer_numerators)
    return AlgebraElement(tuple(product), x.denominator * y.denominator)


def power(order: ZOrder, x: AlgebraElement, k: int) -> AlgebraElement:
    if k < 0:
        raise ValueError("negative powers are not defined in an order")
    if x.dim != order.dim:
        raise DimensionMismatchError("element dimension does not match the order")
    return binary_power(x, k, lambda u, v: mul(order, u, v)) if k else order.identity()


def evaluate_poly(order: ZOrder, f: RationalPolynomial, x: AlgebraElement) -> AlgebraElement:
    """f(x) in the ambient algebra, by Horner on integer vectors.

    With x = y/d and f = g/e of degree N, f(x) = sum_i g_i y^i d^(N-i) / (e d^N).
    Horner starts from g_N; each later nonzero coefficient, and the constant
    one, costs one product: by y, or after a run of zeros k places long by
    y^(k+1), squared up in at most k.
    """
    if x.dim != order.dim:
        raise DimensionMismatchError("element dimension does not match the order")
    y, d, g = x.integer_numerators, x.denominator, f.integer_numerators
    if not g:
        return order.zero()
    positions = [0, *compress(range(1, len(g)), g[1:])]
    last = positions.pop()
    acc, scale = [g[last] * u for u in order.one], 1
    for i in reversed(positions):
        step = binary_power(y, last - i, order._mul_coords)
        scale *= d ** (last - i)
        acc = [a + g[i] * scale * u for a, u in zip(order._mul_coords(acc, step), order.one)]
        last = i
    return AlgebraElement(tuple(acc), f.denominator * scale)


def power_span(order: ZOrder, y: Sequence[int], start: Sequence[int] | None = None) -> tuple[EchelonSpan, list[int]]:
    """(span, relation) for the integer vector y: the Q-span of 1, y, y^2, ...,
    which is the subalgebra Q[y], and the first relation among those powers,
    the coefficients of the minimal polynomial of y.  From an idempotent
    ``start`` E instead of 1 it walks E, yE, y^2 E, ..., and the relation is
    the minimal polynomial of yE in the block A E.

    The powers go into one span, each computed only once the ones before it
    are independent.  The first dependent power y^k lies in the span of the
    earlier ones, so every higher power does too; the span has rank at most
    n, so k <= n.
    """
    span = EchelonSpan(order.dim)
    current = list(order.one if start is None else start)
    while (relation := span.add(current)) is None:
        current = order._mul_coords(current, y)
    return span, relation


def minimal_polynomial(order: ZOrder, x: AlgebraElement) -> RationalPolynomial:
    """Monic least-degree polynomial killing x in the ambient algebra.

    With x = y/den for an integer vector y, the first relation among the
    integer powers 1, y, y^2, ... gives mu_y, and mu_x(X) = mu_y(den X)/den^k.
    """
    if x.dim != order.dim:
        raise DimensionMismatchError("element dimension does not match the order")
    y, den = x.integer_numerators, x.denominator
    _, rel = power_span(order, y)
    k = len(rel) - 1
    return RationalPolynomial.from_int_coeffs([c * den**i for i, c in enumerate(rel)], rel[k] * den**k)


def trace_gram_matrix(order: ZOrder) -> list[list[int]]:
    """Gram matrix of the trace form, G[i][j] = Tr(b_i b_j); integer.

    The trace is linear, so with the trace vector t_k = Tr(b_k), the trace
    of left multiplication by b_k, each entry is sum_k table[i][j][k] * t_k
    (Cohen, GTM 138, 4.1), over the k with t_k != 0 only: for X^n + c that
    is k = 0, and in a product order one k per block.  G is symmetric in
    every associative algebra, Tr(L_x L_y) = Tr(L_y L_x), so row i sums the
    pairs i <= j only and copies G[i][j], j < i, from the rows above it.
    """
    n, table = order.dim, order.table
    t = [(k, tk) for k, row in enumerate(table) if (tk := sum([cell[j] for j, cell in enumerate(row)]))]
    gram = []
    for i, row in enumerate(table):
        upper = [0] * (n - i)
        for k, tk in t:
            upper = [x + cell[k] * tk for x, cell in zip(upper, row[i:])]
        gram.append([g[i] for g in gram] + upper)
    return gram


def is_commutative(order: ZOrder) -> tuple[bool, tuple[AlgebraElement, AlgebraElement] | None]:
    """(True, None), or (False, (x, y)) with x*y != y*x; x, y basis vectors."""
    pair = order._noncommuting_pair
    return (True, None) if pair is None else (False, tuple(map(order.basis_element, pair)))


def is_reduced(order: ZOrder) -> tuple[bool, tuple[AlgebraElement, int] | None]:
    """(True, None), or (False, (x, k)) with x != 0 and x^k = 0.

    In characteristic zero the radical of the trace form is the Jacobson
    radical, and any nonzero radical element of a finite-dimensional algebra
    is nilpotent, so a commutative order is reduced exactly when disc != 0
    (Cohen, GTM 138, 4.1), and at disc = 0 a kernel vector of the trace form
    is a witness on any order.  A noncommutative order with disc != 0 raises
    NotApplicableError: M_2(Q) has nilpotents and a nondegenerate trace form.
    """
    if order.discriminant:
        if not is_commutative(order)[0]:
            raise NotApplicableError("NOT_COMMUTATIVE: the reducedness test needs a commutative algebra")
        return True, None
    # G is symmetric: a relation among its rows, padded, is a kernel vector.
    span = EchelonSpan(order.dim)
    relation = next(rel for row in order._gram if (rel := span.add(row)) is not None)
    witness = AlgebraElement(tuple(relation) + (0,) * (order.dim - len(relation)))
    current = witness
    for k in range(2, order.dim + 2):
        current = mul(order, current, witness)
        if current.is_zero:
            return False, (witness, k)
    raise PruferError("radical element is not nilpotent; invalid order")


def product_order(a: ZOrder, b: ZOrder) -> ZOrder:
    """Direct product, basis of a followed by basis of b."""
    n, m = a.dim, b.dim
    zero = (0,) * (n + m)
    table = tuple(tuple(cell + (0,) * m for cell in row) + (zero,) * m for row in a.table) + tuple(
        (zero,) * n + tuple((0,) * n + cell for cell in row) for row in b.table
    )
    names = tuple(f"{name}.l" for name in a.basis_names) + tuple(f"{name}.r" for name in b.basis_names)
    return ZOrder(dim=n + m, table=table, one=a.one + b.one, basis_names=names)


def equation_order(f: RationalPolynomial) -> ZOrder:
    """The order Z[X]/(f) on the power basis 1, x, ..., x^(d-1).

    f must be monic with integer coefficients; the structure constants are the
    coefficients of X^(i+j) reduced mod f, which stay integral because the
    division is by a monic integer polynomial.
    """
    if f.degree < 1:
        raise MalformedInputError("MALFORMED_INPUT: equation order needs degree >= 1")
    if not (f.is_monic and f.has_integer_coefficients):
        raise MalformedInputError("MALFORMED_INPUT: equation order needs a monic integer polynomial")
    d = f.degree

    def reduced_coords(k: int) -> tuple[int, ...]:
        cs = (RationalPolynomial.x_power(k) % f).integer_numerators
        return cs + (0,) * (d - len(cs))

    powers = [reduced_coords(k) for k in range(2 * d - 1)]
    table = tuple(tuple(powers[i + j] for j in range(d)) for i in range(d))
    one = (1,) + (0,) * (d - 1)
    names = ("1",) + tuple(f"x^{k}" if k > 1 else "x" for k in range(1, d))
    return ZOrder(dim=d, table=table, one=one, basis_names=names)


# -- suborders of the ambient algebra ---------------------------------------


@dataclass(frozen=True)
class EmbeddedOrder:
    """An order inside the ambient algebra of another order.

    ``basis[r]`` is the ambient element of basis vector r of ``order``, and
    ``order.table`` multiplies those elements.  A field component A e_i has
    fewer basis elements than the ambient dimension; an overorder has full
    rank.  ``embedded_order`` builds one from generators.
    """

    order: ZOrder
    basis: tuple[AlgebraElement, ...]

    @cached_property
    def _rows(self) -> tuple[list[list[int]], int]:
        return _over_common_denominator(self.basis)

    def to_ambient(self, x: AlgebraElement) -> AlgebraElement:
        """The ambient element with coordinates x in ``order``'s basis."""
        if x.dim != self.order.dim:
            raise DimensionMismatchError("element dimension does not match the embedded order")
        rows, den = self._rows
        out = [0] * len(rows[0])
        for c, row in zip(x.integer_numerators, rows):
            if c:
                out = [acc + c * r for acc, r in zip(out, row)]
        return AlgebraElement(tuple(out), den * x.denominator)

    @cached_property
    def index(self) -> int:
        """[O' : O] for an overorder O' of the ambient order O.

        With the basis equal to L/den for an integer lattice L of rank n, the
        index is den^n / [Z^n : L].
        """
        rows, den = self._rows
        lat = hnf_reduce(rows)
        if lat.rank != lat.ambient_dim:
            raise PruferError("the index needs an embedded order of full rank")
        volume = den**lat.rank
        if volume % lat.determinant():
            raise PruferError("embedded order index is not integral")
        return volume // lat.determinant()


def _over_common_denominator(elements: Sequence[AlgebraElement]) -> tuple[list[list[int]], int]:
    """(rows, den): element r is rows[r] / den, with den the lcm of the denominators."""
    den = lcm(*(x.denominator for x in elements))
    return [[c * (den // x.denominator) for c in x.integer_numerators] for x in elements], den


def embedded_order(order: ZOrder, rows: Sequence[AlgebraElement], one: AlgebraElement) -> EmbeddedOrder:
    """The suborder of the ambient algebra spanned over Z by ``rows``.

    ``rows`` are elements of ``order``'s ambient algebra.  They are replaced
    by the Hermite basis of their span, so a span has one presentation, and
    the table holds the coordinates of each product of two basis rows in that
    basis.  Raises PruferError when the span is not closed under
    multiplication or does not contain ``one``, the suborder's identity.

    The unit basis with ``order``'s identity is ``order`` itself, with no
    reduction; callers that mean the order's own lattice pass exactly that.
    Any other table, even one equal to it from another basis of Z^n, is
    ``order``'s product restricted to a closed lattice, associative as
    ``order`` is, so ``ZOrder._derived`` builds it.  When ``order`` is
    commutative, y_r y_s = y_s y_r, so each unordered pair of basis rows is
    multiplied and tested once and its coordinates fill both cells.
    """
    if tuple(rows) == order.unit_basis and one == order.identity():
        return EmbeddedOrder(order, order.unit_basis)
    ints, den = _over_common_denominator(rows)
    lat = hnf_reduce(ints)
    basis = tuple(AlgebraElement(row, den) for row in lat.basis)
    # Basis row r is y_r / den, so (y_r / den)(y_s / den) is in the span
    # exactly when y_r y_s / den is an integer combination of the y's.
    mirror = order._noncommuting_pair is None
    table = [[None] * lat.rank for _ in lat.basis]
    for r, yr in enumerate(lat.basis):
        for s in range(r if mirror else 0, lat.rank):
            product = order._mul_coords(yr, lat.basis[s])
            coords = None if any(c % den for c in product) else lat.coordinates([c // den for c in product])
            if coords is None:
                raise PruferError("embedded order basis is not closed under multiplication")
            table[r][s] = coords
            if mirror:
                table[s][r] = coords
    # one = u/e is in the span L/den exactly when e divides den and u*den/e is in L.
    one_coords = None
    if den % one.denominator == 0:
        one_coords = lat.coordinates([c * (den // one.denominator) for c in one.integer_numerators])
    if one_coords is None:
        raise PruferError("the identity does not lie in the embedded order")
    return EmbeddedOrder(ZOrder._derived(lat.rank, tuple(map(tuple, table)), one_coords), basis)
