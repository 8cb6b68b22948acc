"""Right answers for the benchmark's operations, worked out apart from prufer.

Verdicts come from the mathematics of each input: Dedekind's criterion for
equation orders (sympy 1.14 does the factoring mod p), the known structure of
the shipped corpus, and constructive proofs of membership.  Certificate
witnesses are re-checked with the benchmark's own arithmetic (``arith``).
``check`` returns a list of problems; an empty list means the output is right.
Imported only after the timed passes, so sympy never counts in set-up time or
peak memory.
"""

from __future__ import annotations

import json
from fractions import Fraction
from itertools import product

import sympy
from sympy import Matrix, Poly, symbols

import arith

X = symbols("X")

YES = ("YES", "ALL_COMPONENTS_MAXIMAL")
NONCOMMUTATIVE = ("NO", "NONCOMMUTATIVE")
NOT_REDUCED = ("NO", "NOT_REDUCED")
NOT_MAXIMAL = ("NO", "COMPONENT_NOT_MAXIMAL")

# The shipped corpus, with the fact that fixes each verdict.
CORPUS_EXPECTED = {
    "cubic_index2": YES,  # the ring of integers of its cubic field
    "hurwitz": NONCOMMUTATIVE,  # quaternions: ij = -ji
    "m2z": NONCOMMUTATIVE,  # matrix units: e11 e12 = e12, e12 e11 = 0
    "z": YES,  # Z itself
    "z_3i": NOT_MAXIMAL,  # index 3 in Z[i]
    "z_golden": YES,  # Z[(1+sqrt5)/2], the ring of integers of Q(sqrt5)
    "z_i": YES,  # Z[i], the ring of integers of Q(i)
    "z_sqrt5": NOT_MAXIMAL,  # index 2 in Z[(1+sqrt5)/2]
    "z_x_mod_x2": NOT_REDUCED,  # dual numbers: x^2 = 0
    "zxz": YES,  # Z x Z
}


def _zpoly(coeffs) -> Poly:
    return Poly(list(reversed(coeffs)), X)


def dedekind_maximal(f: list[int], disc_primes=None) -> bool:
    """Is Z[X]/(f) maximal?  f monic and irreducible, ascending coefficients.

    Dedekind's criterion at every p with p^2 | disc(f): with f = prod g_i^e_i
    mod p, g = prod g_i, h = prod g_i^(e_i - 1) and F = (g h - f) / p, the
    order is p-maximal iff gcd(F, g, h) = 1 mod p.  ``disc_primes`` lists the
    primes of disc(f) when it is too large to factor here.
    """
    fz = _zpoly(f)
    disc = int(sympy.discriminant(fz))
    primes = disc_primes if disc_primes is not None else sympy.factorint(abs(disc))
    for p in primes:
        if disc % (p * p):
            continue
        _, factors = Poly(fz.as_expr(), X, modulus=p).factor_list()
        g, h = Poly(1, X), Poly(1, X)
        for q, e in factors:
            qz = Poly(q.as_expr(), X)  # monic lift with symmetric residues
            g, h = g * qz, h * qz ** (e - 1)
        big_f = Poly([int(c) // p for c in (g * h - fz).all_coeffs()], X)
        common = Poly(big_f.as_expr(), X, modulus=p)
        for part in (g, h):
            common = common.gcd(Poly(part.as_expr(), X, modulus=p))
        if common.degree() > 0:
            return False
    return True


def _fractions(raw) -> list[Fraction]:
    return [Fraction(c) for c in raw]


def _is_integral(v) -> bool:
    return all(Fraction(c).denominator == 1 for c in v)


def _parse_poly(text: str) -> Poly:
    return Poly(sympy.parse_expr(text.replace("^", "**"), local_dict={"X": X}), X, domain="QQ")


def _integral_charpoly(table, b) -> bool:
    m = Matrix([[sympy.Rational(c.numerator, c.denominator) for c in row] for row in arith.left_regular_matrix(table, b)])
    return all(c.is_integer for c in m.charpoly(X).all_coeffs())


def _check_yes(w: dict, table, one) -> list[str]:
    n = len(one)
    problems = []
    prim = _fractions(w["primitive"])
    mu = _parse_poly(w["min_poly"])
    coeffs = [Fraction(int(c.p), int(c.q)) for c in reversed(mu.all_coeffs())]
    if mu.degree() != n or mu.LC() != 1 or any(arith.evaluate(table, one, coeffs, prim)):
        problems.append("min_poly is not a monic degree-dim polynomial killing the primitive element")
    _, factors = mu.factor_list()
    expected = sorted((str(q.monic().as_expr()), e) for q, e in factors)
    claimed = sorted((str(_parse_poly(c["factor"]).monic().as_expr()), 1) for c in w["components"])
    if claimed != expected:
        problems.append("component factors are not the irreducible factors of min_poly")
    idems = [_fractions(e) for e in w["idempotents"]]
    zero = [0] * n
    orthogonal = all(
        arith.mul(table, ei, ej) == (ei if i == j else zero) for i, ei in enumerate(idems) for j, ej in enumerate(idems)
    )
    if not (all(_is_integral(e) for e in idems) and orthogonal and [sum(c) for c in zip(*idems)] == list(one)):
        problems.append("idempotents are not an integral orthogonal system summing to one")
    rows = [_fractions(r) for c in w["components"] for r in c["basis"]]
    if len(rows) != n or not all(_is_integral(r) for r in rows) or abs(Matrix(rows).det()) != 1:
        problems.append("component bases do not form a basis of the order")
    return problems


def check_certificate(text: str, table, one, expected) -> list[str]:
    """Re-check a certificate's verdict and witness with arith and sympy."""
    cert = json.loads(text)
    got = (cert["verdict"], cert["reason"])
    if got != expected:
        return [f"verdict {got}, but the mathematics of the input gives {expected}"]
    w = cert["witness"]
    if got == YES:
        return _check_yes(w, table, one)
    if got == NONCOMMUTATIVE:
        x, y = _fractions(w["x"]), _fractions(w["y"])
        holds = arith.mul(table, x, y) != arith.mul(table, y, x)
    elif got == NOT_REDUCED:
        a, k = _fractions(w["element"]), w["power"]
        holds = any(a) and _is_integral(a) and not any(arith.power(table, one, a, k))
    else:
        b = _fractions(w["element"])
        holds = not _is_integral(b) and _integral_charpoly(table, b)
    return [] if holds else [f"the {got[1]} witness does not hold"]


def _same_order(op, table, one) -> bool:
    order = op.target
    return [[list(cell) for cell in row] for row in order.table] == table and list(order.one) == list(one)


def _check_analyze(op, outcome) -> list[str]:
    spec = op.spec
    problems = []
    if spec["family"] == "corpus":
        table, one = arith.read_order(spec["file"])
        expected = CORPUS_EXPECTED[spec["name"]]
    else:
        factors = [spec["f"]] if spec["family"] == "field" else spec["factors"]
        if not all(_zpoly(f).is_irreducible for f in factors):
            problems.append("an input factor is not irreducible")
        table, one = arith.product_table([arith.equation_table(f) for f in factors])
        if not _same_order(op, table, one):
            problems.append("the program was given another order than the one checked")
        expected = YES if all(dedekind_maximal(f) for f in factors) else NOT_MAXIMAL
    if outcome[0] != "cert":
        return problems + [f"expected a certificate, got {outcome}"]
    _, verified, text = outcome
    if not verified:
        problems.append("verify_certificate rejected the certificate")
    return problems + check_certificate(text, table, one, expected)


def _check_refusal(op, outcome) -> list[str]:
    spec = op.spec
    problems = []
    primes = spec["disc_primes"]
    if primes is not None and not all(sympy.isprime(p) for p in primes):
        problems.append("the semiprime's factors are not prime")
    # Both inputs are maximal, so the only acceptable verdict is a verified YES.
    if not dedekind_maximal(spec["f"], primes):
        problems.append("refusal input is not maximal")
    table, one = arith.equation_table(spec["f"])
    if not _same_order(op, table, one):
        problems.append("the program was given another order than the one checked")
    if outcome[0] == "indeterminate":
        if outcome[1] != spec["tag"]:
            problems.append(f"refused with {outcome[1]}, expected {spec['tag']}")
        return problems
    if outcome[0] != "cert":
        return problems + [f"unexpected outcome {outcome}"]
    _, verified, text = outcome
    if not verified:
        problems.append("verify_certificate rejected the certificate")
    return problems + check_certificate(text, table, one, YES)


def _kills_all_monic(u: list[int], p: int, m: int) -> bool:
    """Is u divisible mod p by every monic polynomial of degree m?"""
    up = Poly(list(reversed(u)), X, modulus=p)
    return all(up.rem(Poly([1, *tail], X, modulus=p)).is_zero for tail in product(range(p), repeat=m))


def _degree_bound_holds(table, one, m: int) -> bool:
    """Does every element of the order satisfy a monic integer polynomial of degree m?

    Commutative orders: Cayley-Hamilton for multiplication by a, degree dim.
    Otherwise m = 2 and a generic element must satisfy a^2 - T a + N = 0 with
    T, N integer polynomials in its coordinates.
    """
    n = len(one)
    if all(table[i][j] == table[j][i] for i in range(n) for j in range(n)):
        return m == n
    if m != 2:
        return False
    t = symbols(f"t0:{n}")
    a = list(t)
    trace, norm = symbols("T N")
    square = arith.mul(table, a, a)
    solutions = sympy.linsolve([sympy.expand(square[k] - trace * a[k] + norm * one[k]) for k in range(n)], [trace, norm])
    if not solutions:
        return False
    ((tr, nr),) = solutions
    for value in (tr, nr):
        num, den = sympy.fraction(sympy.cancel(value))
        if den != 1 or not all(c.is_integer for c in Poly(num, *t).coeffs()):
            return False
    return True


def _check_member(op, outcome) -> list[str]:
    spec = op.spec
    d, g = spec["d"], spec["G"]
    table, one = arith.read_order(spec["file"])
    problems = []
    if list(op.poly.coefficients) != [Fraction(c, d) for c in g]:
        problems.append("the program was given another polynomial than the one checked")
    if outcome != ("member", spec["member"]):
        problems.append(f"int_member_order gave {outcome}, expected {spec['member']}")
    if not spec["member"]:
        if not any(arith.evaluate_mod(table, one, g, spec["point"], d)):
            problems.append("the non-member's witness point maps into dA")
        return problems
    # f = G/d is a member: G = prod u_p^k * r + d*h with p^k || d, every
    # element satisfies a monic integer polynomial chi of degree m, and chi
    # divides u_p mod p, so u_p(a) lies in pA and G(a) in dA.
    parts = spec["parts"]
    if {p: k for p, k, _ in parts} != sympy.factorint(d):
        problems.append("the prime powers of d are wrong")
    if not _degree_bound_holds(table, one, spec["m"]):
        problems.append(f"elements of {spec['name']} do not satisfy a degree-{spec['m']} relation")
    if not all(_kills_all_monic(u, p, spec["m"]) for p, _, u in parts):
        problems.append("a universal polynomial misses a monic polynomial mod p")
    built = _zpoly(spec["r"])
    for p, k, u in parts:
        built *= _zpoly(u) ** k
    if built + d * _zpoly(spec["h"]) != _zpoly(g):
        problems.append("G is not prod u_p^k * r + d*h")
    return problems


def check(op, outcome) -> list[str]:
    """Problems with one operation's outcome; empty when it is right."""
    family = op.spec["family"]
    if family == "member":
        return _check_member(op, outcome)
    if family == "refusal":
        return _check_refusal(op, outcome)
    return _check_analyze(op, outcome)
