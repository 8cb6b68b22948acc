"""The benchmark's workloads: their inputs, made from the seed.

A workload is a list of operations.  Each operation holds the prufer objects
it runs on, built and validated here during set-up, and a plain ``spec`` from
which the oracle works out the right answer without prufer.  The seed only
varies what leaves the cost of an operation unchanged (signs of odd-degree
radicands, polynomial coefficients that the residue check reduces mod d, the
two primes of the semiprime refusal), so runs on different seeds stay
comparable; the order of operations in each pass is drawn from the seed too.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import arith
from prufer.orders import ZOrder, equation_order, load_order, product_order
from prufer.poly import RationalPolynomial

ANALYZE = "analyze"
MEMBER = "member"
REFUSE = "refuse"


@dataclass
class Op:
    label: str
    kind: str
    target: object  # a Path, loaded inside the operation, or a built ZOrder
    spec: dict
    poly: RationalPolynomial | None = None
    limit_s: float | None = None

    def fresh_target(self):
        """The input for one pass: the file, or a new copy of the order, so
        that nothing an earlier pass left on the order carries over."""
        t = self.target
        if isinstance(t, Path):
            return t
        return ZOrder(dim=t.dim, table=t.table, one=t.one, basis_names=t.basis_names)


CORPUS_FILES = (
    "cubic_index2",
    "hurwitz",
    "m2z",
    "z",
    "z_3i",
    "z_golden",
    "z_i",
    "z_sqrt5",
    "z_x_mod_x2",
    "zxz",
)

# (n, a) stands for X^n + a.  All are fields; the last two are non-maximal.
FIELD_FAMILY = [(n, -2) for n in (3, 4, 5, 6, 7, 8, 9, 10, 12)] + [(9, -3), (6, 108), (8, -162)]

# Round 2 on Z[2^(1/11)] does not end (entries of a 132 x 121 HNF grow without
# bound at p = 11), so this case runs under a time limit and counts as failed.
# The limit is about three times what x^12 - 2 takes.
FAULT_FIELD = (11, -2)
FAULT_LIMIT_S = 3.0

GAUSS = [1, 0, 1]  # Z[i]
SQRT2 = [-2, 0, 1]
SQRT5 = [-5, 0, 1]  # index 2 in Z[(1+sqrt5)/2]
THREE_I = [9, 0, 1]  # Z[3i], index 3 in Z[i]
CBRT2 = [-2, 0, 0, 1]
CBRT3 = [-3, 0, 0, 1]
QRT3 = [-3, 0, 0, 0, 1]
PRODUCT_FAMILY = [
    [GAUSS, SQRT2],
    [SQRT5, CBRT2],
    [GAUSS, QRT3],
    [CBRT2, CBRT3],
    [QRT3, CBRT2],
    [SQRT2, THREE_I, CBRT2],
    [GAUSS, SQRT5, CBRT2],
    [GAUSS, CBRT2, QRT3],
]

# Every element of these orders satisfies a monic integer polynomial of this
# degree: the characteristic polynomial of multiplication for the commutative
# ones, the reduced characteristic polynomial for M_2(Z) and the Hurwitz order.
MEMBER_ORDERS = {"m2z": 2, "hurwitz": 2, "z_i": 2, "cubic_index2": 3}

# (order, d, member?).  Cost is degree x d^dim; the non-members have degree 2
# and carry the large residue counts, composite and prime alike.
MEMBER_CASES = [
    ("m2z", 30, False),
    ("m2z", 6, True),
    ("m2z", 5, True),
    ("hurwitz", 29, False),
    ("hurwitz", 6, True),
    ("z_i", 60, True),
    ("z_i", 7, True),
    ("z_i", 97, False),
    ("cubic_index2", 60, False),
    ("cubic_index2", 97, False),
    ("cubic_index2", 6, True),
]
NONMEMBER_DEGREE = 2

DEGREE_CAP_EXPONENT = 33


def _radical(n: int, a: int) -> list[int]:
    return [a] + [0] * (n - 1) + [1]


def _label(f: list[int]) -> str:
    terms = []
    for k in range(len(f) - 1, -1, -1):
        c = f[k]
        if not c:
            continue
        mono = "X" if k == 1 else f"X^{k}"
        if k == 0:
            terms.append(f"{c:+d}")
        elif abs(c) == 1:
            terms.append(("+" if c > 0 else "-") + mono)
        else:
            terms.append(f"{c:+d}*{mono}")
    return "".join(terms).lstrip("+")


def _signed_radical(rng: random.Random, n: int, a: int) -> list[int]:
    # For odd n, X -> -X maps Z[X]/(X^n + a) onto Z[X]/(X^n - a), so the sign
    # changes the presentation but not the arithmetic done on it.
    if n % 2 and rng.random() < 0.5:
        a = -a
    return _radical(n, a)


def _poly(coeffs) -> RationalPolynomial:
    return RationalPolynomial([Fraction(c) for c in coeffs])


def _field_op(f: list[int], limit_s: float | None = None) -> Op:
    return Op(
        label=_label(f),
        kind=ANALYZE,
        target=equation_order(_poly(f)),
        spec={"family": "field", "f": f},
        limit_s=limit_s,
    )


def corpus(rng: random.Random, root: Path) -> list[Op]:
    ops = []
    for name in CORPUS_FILES:
        path = root / "orders" / f"{name}.json"
        if not path.is_file():
            raise FileNotFoundError(path)
        ops.append(Op(label=name, kind=ANALYZE, target=path, spec={"family": "corpus", "name": name, "file": str(path)}))
    return ops


def fields(rng: random.Random, root: Path) -> list[Op]:
    ops = [_field_op(_signed_radical(rng, n, a)) for n, a in FIELD_FAMILY]
    ops.append(_field_op(_signed_radical(rng, *FAULT_FIELD), limit_s=FAULT_LIMIT_S))
    return ops


def products(rng: random.Random, root: Path) -> list[Op]:
    ops = []
    for factors in PRODUCT_FAMILY:
        order = equation_order(_poly(factors[0]))
        for f in factors[1:]:
            order = product_order(order, equation_order(_poly(f)))
        label = " x ".join(f"({_label(f)})" for f in factors)
        ops.append(Op(label=label, kind=ANALYZE, target=order, spec={"family": "product", "factors": factors}))
    return ops


def _prime_powers(d: int) -> dict[int, int]:
    out: dict[int, int] = {}
    p = 2
    while d > 1:
        while d % p == 0:
            out[p] = out.get(p, 0) + 1
            d //= p
        p += 1
    return out


def universal_poly(p: int, m: int) -> list[int]:
    """prod_{i=1..m} (X^(p^i) - X): divisible mod p by every monic poly of degree m."""
    out = [1]
    for i in range(1, m + 1):
        out = arith.poly_mul(out, [0, -1] + [0] * (p**i - 2) + [1])
    return out


def _member_spec(rng: random.Random, m: int, d: int) -> dict:
    # G = prod_p u_p^k * (X + c) + d*h with p^k || d.  Each u_p(a) lies in pA,
    # so G(a) lies in dA; h and c vary with the seed but vanish mod d.
    u = [1]
    parts = []
    for p, k in sorted(_prime_powers(d).items()):
        up = universal_poly(p, m)
        parts.append([p, k, up])
        for _ in range(k):
            u = arith.poly_mul(u, up)
    r = [rng.randrange(d), 1]
    h = [rng.randrange(-1000, 1001) for _ in range(len(u))]
    g = arith.poly_add(arith.poly_mul(u, r), [d * c for c in h])
    return {"G": g, "parts": parts, "r": r, "h": h}


def _nonmember_spec(rng: random.Random, table, one, d: int) -> dict:
    g = [rng.randrange(10**6) for _ in range(NONMEMBER_DEGREE)] + [1]
    point = [rng.randrange(d) for _ in one]
    if not any(arith.evaluate_mod(table, one, g, point, d)):
        # g(point) + one is one mod dA, which is nonzero: one is primitive.
        g[0] += 1
    return {"G": g, "point": point}


def membership(rng: random.Random, root: Path) -> list[Op]:
    loaded = {}
    for name in MEMBER_ORDERS:
        path = root / "orders" / f"{name}.json"
        loaded[name] = (load_order(path), *arith.read_order(path), str(path))
    ops = []
    for name, d, member in MEMBER_CASES:
        order, table, one, path = loaded[name]
        m = MEMBER_ORDERS[name]
        if member:
            spec = _member_spec(rng, m, d)
        else:
            spec = _nonmember_spec(rng, table, one, d)
        spec.update(family="member", name=name, file=path, d=d, m=m, member=member)
        poly = RationalPolynomial([Fraction(c, d) for c in spec["G"]])
        label = f"{name} d={d} deg={poly.degree} {'member' if member else 'non-member'}"
        ops.append(Op(label=label, kind=MEMBER, target=order, spec=spec, poly=poly))
    return ops


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_prime(n: int) -> bool:
    """Miller-Rabin on the first twelve prime bases, exact below 3.1e23."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    s, t = 0, n - 1
    while t % 2 == 0:
        s, t = s + 1, t // 2
    for a in _MR_BASES:
        x = pow(a, t, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _prime_near(rng: random.Random, residue: int) -> int:
    n = rng.randrange(10**18, 2 * 10**18)
    n += (residue - n) % 4
    while not _is_prime(n):
        n += 4
    return n


def refusals(rng: random.Random, root: Path) -> list[Op]:
    cap = _signed_radical(rng, DEGREE_CAP_EXPONENT, -2)
    # p = 3 and q = 1 mod 4 make pq = 3 mod 4, so Z[sqrt(pq)] is maximal.
    p, q = _prime_near(rng, 3), _prime_near(rng, 1)
    semiprime = [-p * q, 0, 1]
    return [
        Op(
            label=_label(cap),
            kind=REFUSE,
            target=equation_order(_poly(cap)),
            spec={"family": "refusal", "f": cap, "tag": "DEGREE_CAP", "disc_primes": None},
        ),
        Op(
            label="X^2 - p*q",
            kind=REFUSE,
            target=equation_order(_poly(semiprime)),
            spec={"family": "refusal", "f": semiprime, "tag": "DISC_FACTORIZATION_FAILED", "disc_primes": [2, p, q]},
        ),
    ]


BUILDERS = {
    "corpus": corpus,
    "fields": fields,
    "products": products,
    "membership": membership,
    "refusals": refusals,
}


def build(workload: str, seed: int, root: Path) -> list[Op]:
    """The operations of one workload; the same seed gives the same inputs."""
    return BUILDERS[workload](random.Random(f"{workload}:{seed}"), root)
