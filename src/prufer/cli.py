"""Command-line front end.

Subcommands cover the decision pipeline (`analyze`), element-level tools
(`minpoly`, `member`, `pointwise`), closure machinery (`maximal-order`,
`ramify`, `transform`), the quaternion case study (`hurwitz`) and a built-in
demonstration table (`examples`).

Exit codes: 0 success / YES, 3 mathematical NO, 4 no answer (an
``errors.UnansweredError``, such as resource exhaustion or an
unsupported-prime restriction, or decide's IndeterminateError), 2 usage
errors (from argparse), 1 malformed input or tool failure.  `--json` prints
one deterministic JSON object per invocation, byte-identical across runs for
fixed inputs.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Callable, Sequence

from .decision import VERDICT_YES, decide_pruefer, verify_certificate
from .errors import IndeterminateError, MalformedInputError, NotApplicableError, PruferError, UnansweredError
from .ivp import (
    RamificationProfile,
    int_member_finite,
    int_member_order,
    membership_plan,
    pointwise_integrally_closed,
    pruefer_transform,
    ramification_profile,
    transform_sequence,
)
from .orders import AlgebraElement, ZOrder, element, evaluate_poly, load_order, minimal_polynomial
from .closure import discriminant, maximal_order
from .poly import RationalPolynomial
from .quaternions import (
    HURWITZ_UNIT,
    closure_check,
    four_square_lemma_check,
    four_square_violations,
    hurwitz_member,
    norm_in_D_check,
    odd_grid_check,
    quaternion_integral,
    reduced_char_poly,
)


def _parse_coords(text: str) -> AlgebraElement:
    parts = [p.strip() for p in text.split(",")]
    if not parts or any(not p for p in parts):
        raise MalformedInputError(f"MALFORMED_INPUT: bad coordinate list {text!r}")
    try:
        return element(parts)
    except ValueError as exc:
        raise MalformedInputError(f"MALFORMED_INPUT: {exc}") from exc


def _emit(args, payload: dict, human_lines: Sequence[str]) -> None:
    if args.json:
        print(json.dumps(payload))
    else:
        for line in human_lines:
            print(line)


def _require_dim(order: ZOrder, point: AlgebraElement) -> AlgebraElement:
    if point.dim != order.dim:
        raise MalformedInputError(
            f"MALFORMED_INPUT: expected {order.dim} coordinates, got {point.dim}"
        )
    return point


def _cmd_analyze(args) -> int:
    order = load_order(args.order)
    cert = decide_pruefer(order)
    if not verify_certificate(order, cert):
        print("error: certificate failed independent verification", file=sys.stderr)
        return 1
    if args.json:
        print(cert.to_json())
    else:
        print(f"verdict: {cert.verdict}")
        print(f"reason: {cert.reason}")
        print(f"witness: {json.dumps(cert.witness)}")
        print(f"citation: {cert.citation}")
        print("verified: true")
    return 0 if cert.verdict == VERDICT_YES else 3


def _cmd_minpoly(args) -> int:
    order = load_order(args.order)
    point = _require_dim(order, _parse_coords(args.at))
    mu = minimal_polynomial(order, point)
    payload = {"at": point.coord_texts(), "min_poly": str(mu)}
    _emit(args, payload, [f"min_poly: {mu}"])
    return 0


def _cmd_member(args) -> int:
    order = load_order(args.order)
    f = RationalPolynomial.parse(args.poly)
    if args.all:
        ok = int_member_order(order, f, budget=args.budget)
        payload = {
            "poly": str(f),
            "member": ok,
            "denominator": f.denominator,
            "residues": membership_plan(order, f)[2],
        }
        _emit(args, payload, [f"member: {str(ok).lower()}"])
        return 0
    point = _require_dim(order, _parse_coords(args.at))
    value = evaluate_poly(order, f, point)
    ok = value.is_integral_vector
    payload = {
        "poly": str(f),
        "at": point.coord_texts(),
        "member": ok,
        "value": value.coord_texts(),
    }
    _emit(args, payload, [f"member: {str(ok).lower()}", f"value: {','.join(value.coord_texts())}"])
    return 0


def _cmd_pointwise(args) -> int:
    order = load_order(args.order)
    point = _require_dim(order, _parse_coords(args.at))
    result = pointwise_integrally_closed(order, point)
    payload = {
        "at": point.coord_texts(),
        "closed": result.closed,
        "witness": None if result.witness is None else result.witness.coord_texts(),
        "kind": result.witness_kind,
        "subalgebra_dim": result.subalgebra_dim,
    }
    lines = [f"closed: {str(result.closed).lower()}"]
    if result.witness is not None:
        lines.append(f"witness: {','.join(result.witness.coord_texts())} ({result.witness_kind})")
    _emit(args, payload, lines)
    return 0


def _cmd_maximal_order(args) -> int:
    order = load_order(args.order)
    emb = maximal_order(order)
    payload = {
        "index": emb.index,
        "disc_input": discriminant(order),
        "disc_maximal": discriminant(emb.order),
        "basis": [x.coord_texts() for x in emb.basis],
    }
    lines = [f"index: {emb.index}", f"disc: {payload['disc_input']} -> {payload['disc_maximal']}"]
    for row in payload["basis"]:
        lines.append("basis: " + ",".join(row))
    _emit(args, payload, lines)
    return 0


def _cmd_ramify(args) -> int:
    order = load_order(args.order)
    profile = ramification_profile(order, args.prime)
    payload = {
        "prime": profile.prime,
        "pairs": [list(pair) for pair in profile.pairs],
        "E": list(profile.E),
        "F": list(profile.F),
        "s": profile.s,
        "r": profile.r,
    }
    lines = [
        f"prime: {profile.prime}",
        "pairs (e,f): " + " ".join(f"({e},{f})" for e, f in profile.pairs),
        f"s: {profile.s}",
        f"r: {profile.r}",
    ]
    _emit(args, payload, lines)
    return 0


def _cmd_transform(args) -> int:
    f = RationalPolynomial.parse(args.poly)
    try:
        e_text, f_text = args.ef.split(",")
        pair = (int(e_text), int(f_text))
    except ValueError as exc:
        raise MalformedInputError(f"MALFORMED_INPUT: bad --ef value {args.ef!r}") from exc
    profile = RamificationProfile.single(args.prime, *pair)
    if args.sequence is None:
        h = pruefer_transform(f, profile)
        payload = {"poly": str(f), "prime": args.prime, "pair": list(pair), "transform": str(h)}
        _emit(args, payload, [f"transform: {h}"])
        return 0
    seq = transform_sequence(f, profile, args.sequence)
    payload = {
        "poly": str(f),
        "prime": args.prime,
        "pair": list(pair),
        "sequence": [str(g) for g in seq],
    }
    _emit(args, payload, [f"f_{k}: {g}" for k, g in enumerate(seq)])
    return 0


def _cmd_hurwitz(args) -> int:
    if args.mode == "check":
        checks = [
            ("unit-is-member", hurwitz_member(HURWITZ_UNIT)),
            ("unit-is-integral", quaternion_integral(HURWITZ_UNIT)),
            ("unit-quadratic", str(reduced_char_poly(HURWITZ_UNIT)) == "1 - X + X^2"),
            ("odd-grid-members", odd_grid_check()),
            ("norms-2-integral", norm_in_D_check(1000)),
        ]
        payload = {"checks": [{"name": n, "pass": ok} for n, ok in checks]}
        lines = [f"{'PASS' if ok else 'FAIL'} {n}" for n, ok in checks]
        _emit(args, payload, lines)
        return 0 if all(ok for _, ok in checks) else 1
    if args.mode == "lemma42":
        if args.n == 1:
            violations = four_square_violations(1)
            payload = {"n": 1, "violations": [list(v) for v in violations]}
            lines = [f"violations mod 4: {len(violations)}"] + [
                f"  {v}" for v in violations
            ]
            _emit(args, payload, lines)
            return 0
        ok = four_square_lemma_check(args.n)
        payload = {"n": args.n, "pass": ok}
        _emit(args, payload, [f"{'PASS' if ok else 'FAIL'} all-even mod 4^{args.n}"])
        return 0 if ok else 1
    report = closure_check(args.samples, args.seed)
    payload = {
        "samples": report.samples,
        "seed": args.seed,
        "integral": report.integral_count,
        "member": report.member_count,
        "counterexamples": [q.coord_texts() for q in report.counterexamples],
    }
    lines = [
        f"samples: {report.samples}",
        f"integral: {report.integral_count}",
        f"member: {report.member_count}",
        f"counterexamples: {len(report.counterexamples)}",
    ]
    _emit(args, payload, lines)
    return 0 if report.consistent else 1


def _matrix_order() -> ZOrder:
    # 2x2 integer matrices on the basis e11, e12, e21, e22.
    def unit(a: int, b: int) -> int:
        return 2 * a + b

    dim = 4
    table = [[None] * dim for _ in range(dim)]
    for a in range(2):
        for b in range(2):
            for c in range(2):
                for d in range(2):
                    out = [0] * dim
                    if b == c:
                        out[unit(a, d)] = 1
                    table[unit(a, b)][unit(c, d)] = tuple(out)
    return ZOrder(
        dim=dim,
        table=tuple(tuple(row) for row in table),
        one=(1, 0, 0, 1),
        basis_names=("e11", "e12", "e21", "e22"),
    )


def _examples_rows() -> list[tuple[str, bool]]:
    m2z = _matrix_order()
    half_x = RationalPolynomial.parse("1/2*X")
    rows: list[tuple[str, bool]] = []

    good = AlgebraElement((0, 2, 2, 2))
    bad = AlgebraElement((0, 4, 1, 2))
    ok, _ = int_member_finite(m2z, [good], half_x)
    rows.append(("X/2 integer-valued at [[0,2],[2,2]]", ok))
    ok, _ = int_member_finite(m2z, [bad], half_x)
    rows.append(("X/2 not integer-valued at [[0,4],[1,2]]", not ok))

    res_bad = pointwise_integrally_closed(m2z, bad)
    golden = RationalPolynomial((-1, -1, 1))
    rows.append(
        (
            "closure fails at [[0,4],[1,2]] with X^2-X-1 witness",
            (not res_bad.closed)
            and res_bad.witness is not None
            and minimal_polynomial(m2z, res_bad.witness) == golden,
        )
    )
    res_good = pointwise_integrally_closed(m2z, good)
    rows.append(("closure holds at [[0,2],[2,2]]", res_good.closed))

    for k in (1, 2, 3):
        fk = (RationalPolynomial.x_poly - k) / (2 * k)
        diag = AlgebraElement((k, 0, 0, -k))
        anti = AlgebraElement((0, k, k, 0))
        ok_diag, _ = int_member_finite(m2z, [diag], fk)
        ok_anti, _ = int_member_finite(m2z, [anti], fk)
        point_diag = pointwise_integrally_closed(m2z, diag)
        point_anti = pointwise_integrally_closed(m2z, anti)
        rows.append(
            (
                f"(X-{k})/{2 * k} splits diag/antidiag at k={k}",
                ok_diag and not ok_anti and point_diag.closed and not point_anti.closed,
            )
        )

    rows.append(("hurwitz unit integral member", hurwitz_member(HURWITZ_UNIT) and quaternion_integral(HURWITZ_UNIT)))
    rows.append(("four squares mod 16 all even", four_square_lemma_check(2)))

    z_at_2 = RamificationProfile.single(2, 1, 1)
    z_at_3 = RamificationProfile.single(3, 1, 1)
    x = RationalPolynomial.x_poly
    rows.append(
        (
            "transform of X at 2 and 3",
            pruefer_transform(x, z_at_2) == RationalPolynomial.parse("-1/2*X + 1/2*X^2")
            and pruefer_transform(x, z_at_3) == RationalPolynomial.parse("-1/3*X + 1/3*X^3"),
        )
    )
    rows.append(("odd-grid quaternions stay members", odd_grid_check()))
    return rows


def _cmd_examples(args) -> int:
    rows = _examples_rows()
    payload = {"results": [{"name": n, "pass": ok} for n, ok in rows]}
    width = max(len(n) for n, _ in rows)
    lines = [f"{'PASS' if ok else 'FAIL'}  {n.ljust(width)}" for n, ok in rows]
    _emit(args, payload, lines)
    return 0 if all(ok for _, ok in rows) else 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="prufer",
        description="Decide whether Int_Q(A) is a Prüfer domain and work with the certificates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, func: Callable, **kwargs) -> argparse.ArgumentParser:
        p = sub.add_parser(name, **kwargs)
        p.add_argument("--json", action="store_true", help="print one JSON object")
        p.set_defaults(func=func)
        return p

    p = add("analyze", _cmd_analyze, help="decide Prüfer-ness of an order and verify the certificate")
    p.add_argument("order", help="path to an order JSON file")

    p = add("minpoly", _cmd_minpoly, help="minimal polynomial of an element")
    p.add_argument("order")
    p.add_argument("--at", required=True, help="comma-separated rational coordinates")

    p = add("member", _cmd_member, help="integer-valued membership tests")
    p.add_argument("order")
    p.add_argument("--poly", required=True, help="polynomial, e.g. '1/2*X + 1/2*X^2'")
    target = p.add_mutually_exclusive_group(required=True)
    target.add_argument("--at", help="test at one point (comma-separated coordinates)")
    target.add_argument("--all", action="store_true", help="test membership in Int_Q(A)")
    p.add_argument("--budget", type=int, default=None, help="budget of evaluated points for --all")

    p = add("pointwise", _cmd_pointwise, help="is A ∩ Q[a] integrally closed at a point")
    p.add_argument("order")
    p.add_argument("--at", required=True)

    p = add("maximal-order", _cmd_maximal_order, help="round-2 maximal order of a number-field order")
    p.add_argument("order")

    p = add("ramify", _cmd_ramify, help="ramification profile of a maximal order at a prime")
    p.add_argument("order")
    p.add_argument("--prime", type=int, required=True)

    p = add("transform", _cmd_transform, help="integer-valued polynomial transforms")
    p.add_argument("--prime", type=int, required=True)
    p.add_argument("--ef", required=True, help="ramification pair e,f")
    p.add_argument("--poly", required=True)
    p.add_argument("--sequence", type=int, default=None, help="emit f_0..f_k instead of one transform")

    p = add("hurwitz", _cmd_hurwitz, help="quaternion case-study checks")
    hsub = p.add_subparsers(dest="mode", required=True)
    for mode in ("check", "lemma42", "closure"):
        hp = hsub.add_parser(mode)
        hp.add_argument("--json", action="store_true")
        hp.set_defaults(func=_cmd_hurwitz, mode=mode)
        if mode == "lemma42":
            hp.add_argument("--n", type=int, choices=(1, 2, 3), required=True)
        if mode == "closure":
            hp.add_argument("--samples", type=int, default=10000)
            hp.add_argument("--seed", type=int, default=1)

    add("examples", _cmd_examples, help="run the built-in worked examples and print a table")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (IndeterminateError, UnansweredError) as exc:
        # decide_pruefer's IndeterminateError starts with "indeterminate:".
        print(exc if isinstance(exc, IndeterminateError) else f"error: {exc}", file=sys.stderr)
        return 4
    except (MalformedInputError, NotApplicableError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except PruferError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
