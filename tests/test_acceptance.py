"""Acceptance gate: one test per shipped criterion.

Each test prints a single "ACCEPTANCE criterion N: PASS|FAIL" line before
asserting, so the verdicts survive both in captured output and as test
results.  Run pytest with -s to watch the lines directly.  Timing bounds
wrap only the calls the criterion names.
"""

import itertools
import random
import time
from fractions import Fraction

from prufer.decision import decide_pruefer, verify_certificate
from prufer.factor import poly_factor
from prufer.ivp import (
    int_member_finite,
    int_member_order,
    pointwise_integrally_closed,
    pruefer_transform,
    ramification_profile,
    transform_sequence,
)
from prufer.lattice import hnf_reduce
from prufer.orders import (
    element,
    equation_order,
    evaluate_poly,
    minimal_polynomial,
    mul,
    product_order,
)
from prufer.poly import RationalPolynomial
from prufer.quaternions import (
    closure_check,
    four_square_lemma_check,
    four_square_violations,
    odd_grid_check,
)

BUDGET = 10**6
DEPTH_CAP = 3


def P(*coeffs):
    return RationalPolynomial(tuple(coeffs))


def A(*coords):
    return element(coords)


def _report(n: int, ok: bool) -> bool:
    print(f"ACCEPTANCE criterion {n}: {'PASS' if ok else 'FAIL'}")
    return ok


def test_criterion_1_pointwise_closure(m2z):
    t0 = time.monotonic()
    res_a = pointwise_integrally_closed(m2z, A(0, 4, 1, 2))
    res_b = pointwise_integrally_closed(m2z, A(0, 2, 2, 2))
    elapsed = time.monotonic() - t0
    golden = P(-1, -1, 1)
    ok = (
        not res_a.closed
        and res_a.witness is not None
        and minimal_polynomial(m2z, res_a.witness) == golden
        and res_b.closed
        and elapsed < 1.0
    )
    assert _report(1, ok), (res_a, res_b, elapsed)


def test_criterion_2_finite_point_sets(m2z):
    t0 = time.monotonic()
    failures = []
    for k in (1, 2, 3):
        f = P(Fraction(-1, 2), Fraction(1, 2 * k))  # (X - k) / 2k
        diag = A(k, 0, 0, -k)
        anti = A(0, k, k, 0)
        ok_diag, _ = int_member_finite(m2z, [diag], f)
        ok_anti, _ = int_member_finite(m2z, [anti], f)
        if not ok_diag:
            failures.append(f"k={k}: member at diag expected")
        if ok_anti:
            failures.append(f"k={k}: non-member at antidiag expected")
        if pointwise_integrally_closed(m2z, anti).closed:
            failures.append(f"k={k}: antidiag should fail pointwise closure")
        if not pointwise_integrally_closed(m2z, diag).closed:
            failures.append(f"k={k}: diag should pass pointwise closure")
    elapsed = time.monotonic() - t0
    ok = not failures and elapsed < 1.0
    assert _report(2, ok), (failures, elapsed)


def test_criterion_3_decision_suite(corpus):
    t0 = time.monotonic()
    failures = []

    def case(label, order, verdict, reason=None, witness=None):
        cert = decide_pruefer(order)
        if cert.verdict != verdict:
            failures.append(f"{label}: verdict {cert.verdict}")
            return
        if reason is not None and cert.reason != reason:
            failures.append(f"{label}: reason {cert.reason}")
        if witness is not None:
            for key, value in witness.items():
                if cert.witness.get(key) != value:
                    failures.append(f"{label}: witness[{key}] = {cert.witness.get(key)}")
        if not verify_certificate(order, cert):
            failures.append(f"{label}: certificate failed verification")

    case("matrices", corpus["m2z"], "NO", "NONCOMMUTATIVE")
    case("dual numbers", corpus["z_x_mod_x2"], "NO", "NOT_REDUCED")
    case(
        "sqrt5",
        corpus["z_sqrt5"],
        "NO",
        "COMPONENT_NOT_MAXIMAL",
        {"element": ["1/2", "1/2"], "min_poly": "-1 - X + X^2"},
    )
    case(
        "3i",
        corpus["z_3i"],
        "NO",
        "COMPONENT_NOT_MAXIMAL",
        {"element": ["0", "1/3"], "min_poly": "1 + X^2"},
    )
    case("golden", corpus["z_golden"], "YES")
    case("gaussian", corpus["z_i"], "YES")
    case("integers", corpus["z"], "YES")
    case("z x gaussian", product_order(corpus["z"], corpus["z_i"]), "YES")
    case("z x sqrt5", product_order(corpus["z"], corpus["z_sqrt5"]), "NO")
    elapsed = time.monotonic() - t0
    ok = not failures and elapsed < 5.0
    assert _report(3, ok), (failures, elapsed)


# Splitting data of 2, 3, 5 in the three fields, worked out by hand from the
# discriminants: Q ramifies nowhere, Q(i) ramifies at 2 and splits at 1 mod 4,
# Q(sqrt5) is inert at 2 and 3 and ramifies at 5.
PROFILE_TABLE = {
    ("z", 2): (((1, 1),), 1, 2),
    ("z", 3): (((1, 1),), 1, 3),
    ("z", 5): (((1, 1),), 1, 5),
    ("z_i", 2): (((2, 1),), 2, 2),
    ("z_i", 3): (((1, 2),), 1, 9),
    ("z_i", 5): (((1, 1), (1, 1)), 1, 5),
    ("z_golden", 2): (((1, 2),), 1, 4),
    ("z_golden", 3): (((1, 2),), 1, 9),
    ("z_golden", 5): (((2, 1),), 2, 5),
}

# Depth the budget supports for f = X, per pair, with the cap applied.
DEPTH_FOR_X = {
    ("z", 2): 3,
    ("z", 3): 2,
    ("z", 5): 2,
    ("z_i", 2): 2,
    ("z_i", 3): 1,
    ("z_i", 5): 1,
    ("z_golden", 2): 2,
    ("z_golden", 3): 1,
    ("z_golden", 5): 1,
}


def _integer_pool(rng, count=50):
    pool = []
    while len(pool) < count:
        deg = rng.randint(1, 4)
        coeffs = [rng.randint(-5, 5) for _ in range(deg)]
        coeffs.append(rng.choice((-3, -2, -1, 1, 2, 3)))
        pool.append(P(*coeffs))
    return pool


def _rational_pool(rng, count=50):
    binom2 = P(0, -1, 1) / 2          # X(X-1)/2
    binom3 = P(0, 2, -3, 1) / 6       # X(X-1)(X-2)/6
    fermat3 = P(0, -1, 0, 1) / 3      # (X^3-X)/3
    sixth = P(0, -1, 0, 1) / 6        # (X^3-X)/6
    fermat5 = P(0, -1, 0, 0, 0, 1) / 5
    square = (P(0, -1, 1) ** 2) / 2   # (X^2-X)^2/2
    classics = [binom2, binom3, fermat3, sixth, fermat5, square]
    pool = list(classics)
    fillers = _integer_pool(rng, count)
    i = 0
    while len(pool) < count:
        g = fillers[i]
        i += 1
        mode = rng.randint(0, 2)
        if mode == 0:
            pool.append(rng.choice(classics) * g)
        elif mode == 1:
            pool.append(rng.choice(classics) + g)
        else:
            pool.append(g)
    return pool[:count]


def _affordable_depth(dim, f, profile, budget=BUDGET, cap=DEPTH_CAP):
    """Largest k <= cap whose sequence entries all fit the residue budget."""
    one = P(1)
    depth = 0
    prev = f**profile.s
    while depth < cap:
        candidate = prev * (prev ** (profile.r - 1) - one) ** profile.s / profile.prime
        if candidate.denominator**dim > budget:
            break
        prev = candidate
        depth += 1
    return depth


def test_criterion_4_polynomial_transforms(corpus):
    t0 = time.monotonic()
    rng = random.Random(41)
    pools = {
        "z": _rational_pool(rng),
        "z_i": _integer_pool(rng),
        "z_golden": _integer_pool(rng),
    }
    failures = []
    for name in ("z", "z_i", "z_golden"):
        order = corpus[name]
        for f in pools[name]:
            if not int_member_order(order, f, budget=BUDGET):
                failures.append(f"{name}: pool entry {f} not integer-valued")
        for p in (2, 3, 5):
            profile = ramification_profile(order, p)
            pairs, s, r = PROFILE_TABLE[(name, p)]
            if profile.pairs != pairs or profile.s != s or profile.r != r:
                failures.append(f"{name}@{p}: profile {profile.pairs} s={profile.s} r={profile.r}")
                continue
            depth_x = _affordable_depth(order.dim, P(0, 1), profile)
            if depth_x != DEPTH_FOR_X[(name, p)]:
                failures.append(f"{name}@{p}: depth for X is {depth_x}")
            for f in pools[name]:
                h = pruefer_transform(f, profile)
                if not int_member_order(order, h, budget=BUDGET):
                    failures.append(f"{name}@{p}: transform of {f} escapes")
                depth = _affordable_depth(order.dim, f, profile)
                if depth < 1:
                    failures.append(f"{name}@{p}: no affordable sequence for {f}")
                    continue
                for entry in transform_sequence(f, profile, depth):
                    if not int_member_order(order, entry, budget=BUDGET):
                        failures.append(f"{name}@{p}: sequence entry of {f} escapes")
    example = ramification_profile(corpus["z_i"], 2)
    if example.E != (2,) or example.F != (1,):
        failures.append(f"gaussian@2: E={example.E} F={example.F}")
    elapsed = time.monotonic() - t0
    ok = not failures and elapsed < 60.0
    assert _report(4, ok), (failures[:5], len(failures), elapsed)


def test_criterion_5_quaternion_case_study():
    failures = []
    if not four_square_lemma_check(2):
        failures.append("lemma fails at n=2")
    if four_square_violations(2):
        failures.append("exhaustive 16^4 sweep found violations")
    t0 = time.monotonic()
    if not four_square_lemma_check(3):
        failures.append("lemma fails at n=3")
    lemma3_elapsed = time.monotonic() - t0
    if lemma3_elapsed >= 30.0:
        failures.append(f"n=3 check took {lemma3_elapsed:.1f}s")
    report = closure_check(10000, seed=1)
    if report.counterexamples:
        failures.append(f"{len(report.counterexamples)} integral non-members")
    if report.integral_count != report.member_count:
        failures.append("integral and member counts disagree")
    if not odd_grid_check():
        failures.append("an odd-grid quaternion is not an integral member")
    ok = not failures
    assert _report(5, ok), failures


def _direct_member(order, f):
    """Evaluate f at every lattice point with coordinates in [0, d)^dim."""
    d = f.denominator
    if d == 1:
        return True
    for coords in itertools.product(range(d), repeat=order.dim):
        value = evaluate_poly(order, f, A(*coords))
        if any(v.denominator != 1 for v in value.coords):
            return False
    return True


def test_criterion_6_member_agreement(corpus):
    rng = random.Random(20260822)
    names = ("z", "z_i", "z_sqrt5", "z_golden", "z_3i", "zxz", "z_x_mod_x2", "cubic_index2")
    mismatches = []
    for _ in range(100):
        order = corpus[rng.choice(names)]
        d = rng.randint(1, 4)
        deg = rng.randint(1, 4)
        nums = [rng.randint(-6, 6) for _ in range(deg)]
        nums.append(rng.choice((-3, -2, -1, 1, 2, 3)))
        f = P(*(Fraction(n, d) for n in nums))
        fast = int_member_order(order, f, budget=BUDGET)
        slow = _direct_member(order, f)
        if fast is not slow:
            mismatches.append((order.dim, str(f), fast, slow))
    ok = not mismatches
    assert _report(6, ok), mismatches


def _check_hnf_idempotence(rng, failures):
    for _ in range(25):
        height = rng.randint(1, 4)
        rows = [[rng.randint(-9, 9) for _ in range(3)] for _ in range(height)]
        first = hnf_reduce(rows, ambient_dim=3)
        second = hnf_reduce(first.basis, ambient_dim=3)
        if first.basis != second.basis:
            failures.append(f"hnf not idempotent on {rows}")


def _check_factor_round_trip(rng, failures):
    irreducibles = [P(-1, 1), P(1, 1), P(-2, 1), P(3, 1), P(1, 0, 1), P(-1, -1, 1), P(1, 1, 1)]
    for _ in range(20):
        g = P(rng.choice((-2, -1, 1, 2, 3)))
        for factor in rng.sample(irreducibles, rng.randint(1, 3)):
            g = g * factor ** rng.randint(1, 2)
        product = P(1)
        for factor, mult in poly_factor(g):
            product = product * factor**mult
        scale = g.coefficients[-1] / product.coefficients[-1]
        if product * P(scale) != g:
            failures.append(f"factorization loses {g}")


def _check_idempotent_identities(rng, failures):
    from prufer.splitting import decompose

    for _ in range(10):
        roots = rng.sample(range(-5, 6), rng.randint(2, 3))
        f = P(1)
        for c in roots:
            f = f * P(-c, 1)
        order = equation_order(f)
        dec = decompose(order)
        one = order.identity()
        total = tuple(
            sum((e.coords[i] for e in dec.idempotents), Fraction(0)) for i in range(order.dim)
        )
        if total != one.coords:
            failures.append(f"idempotents of {f} do not sum to one")
        for i, e in enumerate(dec.idempotents):
            if mul(order, e, e) != e:
                failures.append(f"idempotent {i} of {f} is not idempotent")
            for j in range(i + 1, len(dec.idempotents)):
                if any(c != 0 for c in mul(order, e, dec.idempotents[j]).coords):
                    failures.append(f"idempotents {i},{j} of {f} do not annihilate")


def _check_certificate_soundness(rng, corpus, failures):
    for name, order in sorted(corpus.items()):
        cert = decide_pruefer(order)
        if not verify_certificate(order, cert):
            failures.append(f"certificate for corpus order {name} fails")
    for _ in range(10):
        f = P(rng.randint(-6, 6), rng.randint(-6, 6), 1)
        order = equation_order(f)
        cert = decide_pruefer(order)
        if not verify_certificate(order, cert):
            failures.append(f"certificate for {f} fails")


def _check_minimal_polynomial_divisibility(rng, corpus, failures):
    names = ("z_i", "z_golden", "z_sqrt5", "zxz", "cubic_index2")
    for _ in range(20):
        order = corpus[rng.choice(names)]
        b = A(*(rng.randint(-3, 3) for _ in range(order.dim)))
        f = P(*(rng.randint(-4, 4) for _ in range(rng.randint(2, 4))))
        mu_b = minimal_polynomial(order, b)
        mu_c = minimal_polynomial(order, evaluate_poly(order, f, b))
        # mu_b | mu_c(f) exactly when mu_c(f(X)) = 0 in Z[X]/(mu_b).
        eq = equation_order(mu_b)
        x_mod_mu = (P(0, 1) % mu_b).integer_numerators
        x = element(x_mod_mu + (0,) * (mu_b.degree - len(x_mod_mu)))
        if not evaluate_poly(eq, mu_c, evaluate_poly(eq, f, x)).is_zero:
            failures.append(f"divisibility fails for b={b.coords}, f={f}")


def test_criterion_7_invariant_bundle(corpus):
    t0 = time.monotonic()
    rng = random.Random(7)
    failures = []
    _check_hnf_idempotence(rng, failures)
    _check_factor_round_trip(rng, failures)
    _check_idempotent_identities(rng, failures)
    _check_certificate_soundness(rng, corpus, failures)
    _check_minimal_polynomial_divisibility(rng, corpus, failures)
    elapsed = time.monotonic() - t0
    ok = not failures and elapsed < 300.0
    assert _report(7, ok), (failures[:5], len(failures), elapsed)
