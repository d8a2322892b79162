#!/usr/bin/env python3
"""Reproduce the exhaustive rank-count tables.

Tiers:
  core      q=3, n=1, squarefree twists, degrees 3..11
  extended  q=3, n=1, degrees 12..15 (23-25 s with --workers 2 on a
            2-core Xeon)
  stable    q=3, n=1, shift-stable squarefree twists, degrees 3..27
  n2        q=3, n=2, degrees 1..12

Prints one row per (degree, leading coefficient) with cumulative counts of
rank >= r, the observed maximum and the number of symbolic audits, plus any
witnesses for the deepest cells.  A cell whose audit is skipped gets the
``audit skipped: <reason>`` line that ``carlitz scan`` prints.  Exits 1 if
any audit disagrees with the point-evaluation engine.
"""

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from carlitz.scan import (ScanSpec, audit_skip_reason,  # noqa: E402
                          default_workers, run_scan)

TIERS = {
    "core": dict(n=1, mode="squarefree", degrees=range(3, 12)),
    "extended": dict(n=1, mode="squarefree", degrees=range(12, 16)),
    "stable": dict(n=1, mode="shift-stable", degrees=range(3, 28, 3)),
    "n2": dict(n=2, mode="squarefree", degrees=range(1, 13)),
}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--tier", choices=sorted(TIERS), default="core")
    ap.add_argument("--workers", type=int, default=0)
    ap.add_argument("--max-witnesses", type=int, default=4)
    args = ap.parse_args(argv)
    cfg = TIERS[args.tier]
    workers = args.workers or default_workers()

    print(f"tier={args.tier} q=3 n={cfg['n']} mode={cfg['mode']} "
          f"workers={workers}")
    print(f"{'m':>3} {'a':>2} {'squarefree':>11} " +
          " ".join(f"{'r>=' + str(r):>8}" for r in range(1, 6)) +
          "  max  audits")
    grand_max = 0
    failures = 0
    t0 = time.perf_counter()
    for m in cfg["degrees"]:
        for lead in (1, 2):
            spec = ScanSpec(q=3, n=cfg["n"], m=m, lead=lead, mode=cfg["mode"],
                            workers=workers, witness_cap=args.max_witnesses)
            table = run_scan(spec)
            counts = [table.count(m, lead, r) for r in range(1, 6)]
            mx = table.max_rank(m, lead)
            grand_max = max(grand_max, mx)
            print(f"{m:>3} {lead:>2} {table.squarefree[(m, lead)]:>11} " +
                  " ".join(f"{c:>8}" for c in counts) +
                  f"  {mx:>3}  {table.audits:>6}")
            skipped = audit_skip_reason(spec.q, spec.n, m)
            if skipped:
                print(f"  audit skipped: {skipped}")
            if table.audit_failures:
                failures += len(table.audit_failures)
                print("  !! audit failures:", table.audit_failures)
            if mx >= 4:
                for w in table.witnesses.get((m, lead, mx), []):
                    print(f"      rank-{mx} witness: {w}")
    print(f"observed maximal rank: {grand_max}   "
          f"({time.perf_counter() - t0:.1f}s)")
    if failures:
        print(f"{failures} audit failures", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
