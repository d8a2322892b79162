"""Command-line interface.

Subcommands: lfun, rank, orbit, verify, scan, coset, dims.  Polynomials are
little-endian comma-separated coefficient lists ("a0,a1,...,am" with entries
in [0, q)).  JSON is the machine format; scan tables can also be written as
CSV.  Exit codes: 0 success, 1 verification failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import random
import sys

from .ff import field_from_cardinality
from .poly import Poly, poly_from_str, poly_to_str
from .lfun import lfun_order_at
from .motive import TwistedPower, l_function, analytic_rank
from .euler import truncated_product
from .symmetry import (Mu, Nu, Iota, Tau, Sigma, TwistMul, act_on_poly,
                       check_l_identity, verify_conjugacy,
                       smallest_iota_degree)
from .scan import (ScanSpec, run_scan, coset_audit, dim_report,
                   audit_skip_reason, ScanCapError)


class UsageError(Exception):
    pass


def _field(args):
    try:
        return field_from_cardinality(args.q)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _twisted(args):
    ctx = _field(args)
    try:
        p = poly_from_str(ctx, args.poly)
    except ValueError as exc:
        raise UsageError(f"bad --poly: {exc}") from None
    if p.is_zero():
        raise UsageError("P must be nonzero")
    return TwistedPower(p, args.n)


def _lfun_json(l) -> str:
    return json.dumps({str(j): [int(c) for c in l.coeff(j).coeffs] or [0]
                       for j in range(l.u_degree + 1)})


def cmd_lfun(args) -> int:
    tp = _twisted(args)
    print(_lfun_json(l_function(tp)))
    return 0


def cmd_rank(args) -> int:
    tp = _twisted(args)
    if args.at is not None:
        # a field element, digit-encoded like a --poly coefficient; the order
        # at U = 0 is constant (L(0) = 1)
        if not 0 < args.at < tp.ctx.order:
            raise UsageError("--at must be a nonzero field element in "
                             f"[1, {tp.ctx.order})")
        print(lfun_order_at(l_function(tp), args.at))
    else:
        print(analytic_rank(tp))
    return 0


def _gen_family(args, tp):
    # scalars range over GF(q) in the digit encoding, the ints [0, q)
    ctx = tp.ctx
    kind = args.gen
    if kind == "mu":
        return [(f"mu({d})", Mu(d)) for d in range(args.q)]
    if kind == "nu":
        return [(f"nu({c})", Nu(c)) for c in range(1, args.q)]
    if kind == "tau":
        return [(f"tau({c})", Tau(c)) for c in range(1, args.q)]
    if kind == "iota":
        m = args.iota_m if args.iota_m is not None else smallest_iota_degree(tp)
        return [(f"iota(m={m})", Iota(m))]
    if kind == "sigma":
        return [(f"sigma({args.k})", Sigma(args.k))]
    if kind == "twistmul":
        if not args.twist_q:
            raise UsageError("--twist-q is required for --gen twistmul")
        try:
            qp = poly_from_str(ctx, args.twist_q)
        except ValueError as exc:
            raise UsageError(f"bad --twist-q: {exc}") from None
        if qp.is_zero():
            raise UsageError("twist multiplier must be nonzero")
        return [("twistmul", TwistMul(qp))]
    raise UsageError(f"unknown generator family {kind!r}")


def cmd_orbit(args) -> int:
    tp = _twisted(args)
    out = []
    for label, g in _gen_family(args, tp):
        acted = act_on_poly(g, tp)
        out.append({"gen": label, "poly": poly_to_str(acted.P), "n": acted.n})
    print(json.dumps(out))
    return 0


def _random_twist(rng, ctx, m_hi):
    # degree below m_hi, nonzero lead, n in {1, 2}
    q = ctx.order
    m = rng.randrange(0, m_hi)
    coeffs = [rng.randrange(q) for _ in range(m)] + [rng.randrange(1, q)]
    n = rng.randrange(1, 3)
    return TwistedPower(Poly(ctx, coeffs), n)


def _random_generators(rng, ctx):
    # scalars range over GF(q): ExtField elements are the ints [0, q)
    q = ctx.order
    return {
        "mu": Mu(rng.randrange(q)),
        "nu": Nu(rng.randrange(1, q)),
        "iota": Iota(None),
        "tau": Tau(rng.randrange(1, q)),
    }


def _verify_euler(args, rng):
    ctx = field_from_cardinality(args.q)
    passed = failed = 0
    for _ in range(args.cases):
        tp = _random_twist(rng, ctx, 10)
        l = l_function(tp)
        ok = truncated_product(tp, 4) == l.truncate(4)
        if ok and tp.k_min <= 6:
            ok = truncated_product(tp, tp.k_min) == l
        passed += ok
        failed += not ok
    return passed, failed


def _verify_identities(args, rng, gens=None):
    ctx = field_from_cardinality(args.q)
    q = ctx.order
    passed = failed = 0
    for _ in range(args.cases):
        tp = _random_twist(rng, ctx, 7)
        pool = _random_generators(rng, ctx)
        pool["twistmul"] = TwistMul(Poly(ctx, [rng.randrange(q), ctx.one]))
        if tp.m + q * tp.n <= 10:
            pool["sigma"] = Sigma(1)
        for name, g in pool.items():
            if gens and name not in gens:
                continue
            res = check_l_identity(g, tp)
            passed += res.ok
            failed += not res.ok
    return passed, failed


def _verify_conj(args, rng, gens=None):
    """[held, did not] for the conjugacies that must hold, and for sigma.

    Sigma(1)'s stated block shape is false for every twist, so its tally is
    kept apart and is no verification failure.
    """
    ctx = field_from_cardinality(args.q)
    q = ctx.order
    must, sigma = [0, 0], [0, 0]
    for _ in range(args.cases):
        tp = _random_twist(rng, ctx, 6)
        pool = _random_generators(rng, ctx)
        pool["theta"] = TwistMul(Poly.x(ctx))
        if tp.m + q * tp.n <= 9:
            pool["sigma"] = Sigma(1)
        for name, g in pool.items():
            if gens and name not in gens:
                continue
            ok = verify_conjugacy(g, tp, args.window)
            (sigma if name == "sigma" else must)[not ok] += 1
    return must, sigma


def cmd_verify(args) -> int:
    if args.cases < 1:
        raise UsageError("--cases must be >= 1")
    if args.window < 1:
        raise UsageError("--window must be >= 1")
    rng = random.Random(args.seed)
    suites = []
    which = args.suite
    if which in ("all", "euler"):
        suites.append(("euler", _verify_euler(args, random.Random(args.seed))))
    if which in ("all", "identity"):
        suites.append(("identity", _verify_identities(args, rng, args.gen)))
    sigma = [0, 0]
    if which in ("all", "conj"):
        conj, sigma = _verify_conj(args, rng, args.gen)
        suites.append(("conj", conj))
    total_failed = 0
    for name, (passed, failed) in suites:
        total_failed += failed
        print(f"{name}: {passed} passed, {failed} failed")
    if any(sigma):
        print(f"conj sigma (stated block shape, known false): "
              f"{sigma[0]} held, {sigma[1]} did not")
    return 1 if total_failed else 0


def cmd_scan(args) -> int:
    if args.resume and not args.checkpoint:
        raise UsageError("--resume needs --checkpoint")
    spec = ScanSpec(
        q=args.q, n=args.n, m=args.m, lead=args.lead,
        mode="shift-stable" if args.shift_stable else "squarefree",
        workers=args.workers, chunk_size=args.chunk_size,
        force=args.force, witness_cap=args.witnesses)
    try:
        table = run_scan(spec, checkpoint=args.checkpoint, resume=args.resume)
    except ScanCapError as exc:
        raise UsageError(str(exc)) from None
    skipped = audit_skip_reason(spec.q, spec.n, spec.m)
    if skipped:
        print(f"audit skipped: {skipped}", file=sys.stderr)
    payload = json.dumps(table.to_json_obj(), indent=None)
    if args.out:
        if args.csv:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(table.to_csv())
        else:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(payload + "\n")
        print(f"wrote {args.out}")
    else:
        print(table.to_csv() if args.csv else payload)
    if table.audit_failures:
        print(f"AUDIT FAILURES: {table.audit_failures}", file=sys.stderr)
        return 1
    return 0


def cmd_coset(args) -> int:
    report = coset_audit(args.q, args.n, args.m_max)
    print(json.dumps(report))
    return 1 if report["violations"] else 0


def cmd_dims(args) -> int:
    print(json.dumps(dim_report(args.q, args.r, args.mode, m=args.m)))
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="carlitz",
        description="Exact L-functions and analytic ranks of twisted "
                    "Carlitz tensor powers over F_q(theta).")
    sub = ap.add_subparsers(dest="cmd", required=True)

    def common(p, poly=True):
        p.add_argument("--q", type=int, required=True,
                       help="field cardinality (prime power)")
        p.add_argument("--n", type=int, default=1, help="tensor exponent")
        if poly:
            p.add_argument("--poly", type=str, required=True,
                           help="little-endian coefficients a0,a1,...,am")

    p = sub.add_parser("lfun", help="print the L-function as JSON")
    common(p)
    p.set_defaults(fn=cmd_lfun)

    p = sub.add_parser("rank", help="print the analytic rank")
    common(p)
    p.add_argument("--at", type=int, default=None,
                   help="order of vanishing at U = <value> instead of U = 1 "
                        "(a nonzero field element, encoded as in --poly)")
    p.set_defaults(fn=cmd_rank)

    p = sub.add_parser("orbit", help="apply a generator family to P")
    common(p)
    p.add_argument("--gen", required=True,
                   choices=["mu", "nu", "iota", "tau", "sigma", "twistmul"])
    p.add_argument("--k", type=int, default=1, help="sigma step count")
    p.add_argument("--iota-m", type=int, default=None,
                   help="reversal degree (default: smallest admissible)")
    p.add_argument("--twist-q", type=str, default=None,
                   help="multiplier Q for twistmul (coefficient list)")
    p.set_defaults(fn=cmd_orbit)

    p = sub.add_parser("verify", help="run identity/oracle suites")
    p.add_argument("--q", type=int, default=3)
    p.add_argument("--suite", default="all",
                   choices=["all", "euler", "identity", "conj"])
    p.add_argument("--cases", type=int, default=25)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--window", type=int, default=7)
    p.add_argument("--gen", action="append", default=None,
                   help="restrict identity/conj suites to generator families")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("scan", help="exhaustive rank tally")
    p.add_argument("--q", type=int, default=3)
    p.add_argument("--n", type=int, default=1)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--lead", type=int, required=True)
    p.add_argument("--shift-stable", action="store_true")
    p.add_argument("--workers", type=int, default=0,
                   help="0 = CLRANK_WORKERS or the usable CPU count")
    p.add_argument("--chunk-size", type=int, default=8192)
    p.add_argument("--force", action="store_true",
                   help="allow enumerations above the size cap")
    p.add_argument("--witnesses", type=int, default=16)
    p.add_argument("--out", type=str, default=None)
    p.add_argument("--csv", action="store_true")
    p.add_argument("--checkpoint", type=str, default=None)
    p.add_argument("--resume", action="store_true")
    p.set_defaults(fn=cmd_scan)

    p = sub.add_parser("coset", help="exhaustive distinguished-coset audit")
    p.add_argument("--q", type=int, default=3)
    p.add_argument("--n", type=int, default=1)
    p.add_argument("--m-max", type=int, default=5)
    p.set_defaults(fn=cmd_coset)

    p = sub.add_parser("dims", help="parameter/equation count report")
    p.add_argument("--q", type=int, default=3)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--mode", default="single",
                   choices=["single", "infinite-family", "shift-stable"])
    p.add_argument("--m", type=int, default=None)
    p.set_defaults(fn=cmd_dims)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
