#!/usr/bin/env python3
"""Run the full verification battery with configurable sizes.

Covers: the local-factor product against the determinant formula, the five
L-function transformation identities, the window conjugacies and block
shapes, and the distinguished-coset audit.  Exit code 1 on any failure so
the script can gate CI-style checks.

Note: the one-step exponent block shape ("sigma") is a documented failing
identity and is reported separately without affecting the exit code unless
--strict-sigma is passed.
"""

import argparse
import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from carlitz import field_make, Poly  # noqa: E402
from carlitz.motive import TwistedPower, l_function  # noqa: E402
from carlitz.euler import truncated_product  # noqa: E402
from carlitz.symmetry import (Mu, Nu, Iota, Tau, Sigma, TwistMul,  # noqa: E402
                              check_l_identity, verify_conjugacy)
from carlitz.scan import coset_audit  # noqa: E402


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--cases", type=int, default=100)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--window", type=int, default=8)
    ap.add_argument("--strict-sigma", action="store_true")
    args = ap.parse_args()
    rng = random.Random(args.seed)
    failed = 0

    euler_bad = 0
    for trial in range(args.cases):
        ctx = field_make(3 if trial % 2 else 2)
        q = ctx.order
        m = rng.randrange(0, 10)
        coeffs = [rng.randrange(q) for _ in range(m)] + [rng.randrange(1, q)]
        tp = TwistedPower(Poly(ctx, coeffs), rng.randrange(1, 3))
        l = l_function(tp)
        if truncated_product(tp, 4) != l.truncate(4):
            euler_bad += 1
        elif tp.k_min <= 5 and truncated_product(tp, tp.k_min) != l:
            euler_bad += 1
    print(f"euler oracle:        {args.cases - euler_bad}/{args.cases}")
    failed += euler_bad

    f3 = field_make(3)
    ident_bad = 0
    total = 0
    for _ in range(args.cases):
        m = rng.randrange(0, 8)
        coeffs = [rng.randrange(3) for _ in range(m)] + [rng.randrange(1, 3)]
        tp = TwistedPower(Poly(f3, coeffs), rng.randrange(1, 3))
        gens = [Mu(rng.randrange(3)), Nu(rng.randrange(1, 3)), Iota(None),
                Tau(rng.randrange(1, 3)),
                TwistMul(Poly(f3, [rng.randrange(3), 1]))]
        if tp.m + 3 * tp.n <= 9:
            gens.append(Sigma(1))
        for g in gens:
            total += 1
            ident_bad += not check_l_identity(g, tp).ok
    print(f"L identities:        {total - ident_bad}/{total}")
    failed += ident_bad

    conj_bad = 0
    total = 0
    for _ in range(max(args.cases // 5, 5)):
        m = rng.randrange(0, 6)
        coeffs = [rng.randrange(3) for _ in range(m)] + [rng.randrange(1, 3)]
        tp = TwistedPower(Poly(f3, coeffs), rng.randrange(1, 3))
        for g in (Mu(rng.randrange(3)), Nu(rng.randrange(1, 3)), Iota(None),
                  Tau(rng.randrange(1, 3)), TwistMul(Poly.x(f3))):
            total += 1
            conj_bad += not verify_conjugacy(g, tp, args.window)
    print(f"window conjugacies:  {total - conj_bad}/{total}")
    failed += conj_bad

    sigma_ok = verify_conjugacy(Sigma(1), TwistedPower(Poly(f3, [1]), 1), 6)
    print(f"sigma block shape:   {'pass' if sigma_ok else 'FAIL (documented)'}")
    if args.strict_sigma:
        failed += not sigma_ok

    rep = coset_audit(3, 1, 6)
    print(f"coset audit:         {len(rep['violations'])} violations "
          f"({rep['on_coset']} members)")
    failed += len(rep["violations"])

    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
