"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines; the extended scan tier is opt-in via ``-m long``.

Two assertions in this module are known, documented failures (the sigma
block shape and the n=2 degree-12 cell); each sits in its own test function
and the repository notes explain the verified state of affairs.
"""

import random

import pytest

from carlitz import field_make, Poly, LFun
from carlitz.motive import TwistedPower, l_function, analytic_rank
from carlitz.euler import truncated_product, local_factor, primes_of_degree
from carlitz.lfun import lfun_order_at
from carlitz.linalg import det_identity_minus_mu
from carlitz.motive import _band_codes, band_index
from carlitz.ff import binom_mod_p, ResidueCtx
from carlitz.symmetry import (Mu, Nu, Iota, Tau, Sigma, TwistMul,
                              check_l_identity, verify_conjugacy)
from carlitz.scan import (ScanSpec, run_scan, coset_audit, shift_stable_expand,
                          default_workers)

WORKERS = min(default_workers(), 8)

# q=3, n=1 squarefree tallies, rank >= 2 and rank >= 3, by leading coefficient
GENERIC_RANK2 = {
    1: {3: 0, 4: 0, 5: 0, 6: 0, 7: 0, 8: 3, 9: 3, 10: 0, 11: 3,
        12: 9, 13: 12, 14: 21, 15: 44},
    2: {3: 3, 4: 0, 5: 0, 6: 0, 7: 33, 8: 3, 9: 165, 10: 0, 11: 717,
        12: 9, 13: 3117, 14: 21, 15: 14038},
}
GENERIC_RANK3 = {
    1: {9: 3, 15: 3},
    2: {9: 6, 13: 12, 15: 42},
}

# shift-stable squarefree tallies for m = 3, 6, ..., 27
STABLE = {
    1: {
        1: {3: 3, 6: 0, 9: 3, 12: 0, 15: 36, 18: 23, 21: 205, 24: 97, 27: 866},
        2: {15: 2, 18: 1, 21: 15, 24: 8, 27: 46},
        3: {18: 1, 21: 5, 24: 1, 27: 7},
        4: {21: 5, 27: 3},
    },
    2: {
        1: {3: 3, 6: 0, 9: 18, 12: 0, 15: 162, 18: 23, 21: 1458, 24: 97,
            27: 13122},
        2: {9: 3, 15: 10, 18: 1, 21: 93, 24: 8, 27: 380},
        3: {18: 1, 21: 9, 24: 1, 27: 18},
        4: {27: 4},
    },
}


def _scan(m, lead, n=1, mode="squarefree"):
    return run_scan(ScanSpec(q=3, n=n, m=m, lead=lead, mode=mode,
                             workers=WORKERS))


def test_criterion1_generic_table_core_tier():
    bad = []
    for m in range(3, 12):
        for lead in (1, 2):
            table = _scan(m, lead)
            for r, expected in ((2, GENERIC_RANK2), (3, GENERIC_RANK3)):
                want = expected[lead].get(m, 0)
                got = table.count(m, lead, r)
                if got != want:
                    bad.append((m, lead, r, got, want))
            assert not table.audit_failures
            assert table.max_rank(m, lead) <= 3
    print(f"ACCEPTANCE 1: {'PASS' if not bad else 'FAIL'} — generic tallies "
          f"m=3..11 exact{'' if not bad else ': ' + repr(bad)}")
    assert not bad


@pytest.mark.long
def test_criterion2_generic_table_extended_tier():
    bad = []
    for m in range(12, 16):
        for lead in (1, 2):
            table = _scan(m, lead)
            for r, expected in ((2, GENERIC_RANK2), (3, GENERIC_RANK3)):
                want = expected[lead].get(m, 0)
                got = table.count(m, lead, r)
                if got != want:
                    bad.append((m, lead, r, got, want))
            assert not table.audit_failures
    print(f"ACCEPTANCE 2: {'PASS' if not bad else 'FAIL'} — generic tallies "
          f"m=12..15 exact{'' if not bad else ': ' + repr(bad)}")
    assert not bad


def test_criterion3_shift_stable_table():
    bad = []
    witness_table = None
    for m in range(3, 28, 3):
        for lead in (1, 2):
            table = _scan(m, lead, mode="shift-stable")
            for r in (1, 2, 3, 4):
                want = STABLE[lead][r].get(m, 0)
                got = table.count(m, lead, r)
                if got != want:
                    bad.append((m, lead, r, got, want))
            assert not table.audit_failures
            if (m, lead) == (21, 1):
                witness_table = table
    # the unique rank-5 twist at degree 21, leading coefficient 1
    assert witness_table.count(21, 1, 5) == 1
    assert witness_table.max_rank(21, 1) == 5
    expected_witness = shift_stable_expand([0, 2, 0, 1, 0, 1, 0, 1], 3)
    ws = witness_table.witnesses[(21, 1, 5)]
    assert len(ws) == 1
    found = Poly(field_make(3), [int(x) for x in ws[0].split(",")])
    assert found == expected_witness
    assert analytic_rank(TwistedPower(found, 1)) == 5
    print(f"ACCEPTANCE 3: {'PASS' if not bad else 'FAIL'} — shift-stable "
          f"tallies m=3..27 exact; unique degree-21 rank-5 witness found"
          f"{'' if not bad else ': ' + repr(bad)}")
    assert not bad


@pytest.fixture(scope="module")
def n2_deg12_table():
    return _scan(12, 1, n=2)


def test_criterion4_n2_tallies_verified(n2_deg12_table):
    bad = []
    max_rank = 0
    for m in range(1, 13):
        for lead in (1, 2):
            table = n2_deg12_table if (m, lead) == (12, 1) \
                else _scan(m, lead, n=2)
            got = table.count(m, lead, 2)
            # the degree-12 cell is pinned to the independently re-verified
            # exhaustive count; its stated target is asserted separately below
            want = {(8, 1): 9, (10, 1): 21, (12, 1): 72}.get((m, lead), 0)
            if got != want:
                bad.append((m, lead, got, want))
            max_rank = max(max_rank, table.max_rank(m, lead))
            assert not table.audit_failures
    assert max_rank <= 2
    print(f"ACCEPTANCE 4 (verified tier): {'PASS' if not bad else 'FAIL'} — "
          f"n=2 tallies m<=12; no rank >= 3"
          f"{'' if not bad else ': ' + repr(bad)}")
    assert not bad


def test_criterion4_n2_m12_cell_as_specified(n2_deg12_table):
    got = n2_deg12_table.count(12, 1, 2)
    ok = got == 81
    print(f"ACCEPTANCE 4 (stated m=12 cell): {'PASS' if ok else 'FAIL'} — "
          f"expected 81, exhaustive count is {got}")
    assert ok, (f"stated tally 81 for the n=2 degree-12 cell is not "
                f"reproducible: exhaustive, doubly-verified count is {got}")


def test_criterion5_euler_oracle_equivalence():
    rng = random.Random(20240501)
    mismatches = 0
    exact_cases = 0
    for trial in range(200):
        ctx = field_make(3 if trial % 2 else 2)
        q = ctx.order
        m = rng.randrange(0, 10)
        coeffs = [rng.randrange(q) for _ in range(m)] + [rng.randrange(1, q)]
        n = rng.randrange(1, 3)
        tp = TwistedPower(Poly(ctx, coeffs), n)
        l = l_function(tp)
        if truncated_product(tp, 4) != l.truncate(4):
            mismatches += 1
            continue
        if tp.k_min <= 5:
            exact_cases += 1
            if truncated_product(tp, tp.k_min) != l:
                mismatches += 1
    ok = mismatches == 0
    print(f"ACCEPTANCE 5: {'PASS' if ok else 'FAIL'} — 200 random twists, "
          f"0 tolerated mismatches, got {mismatches} "
          f"({exact_cases} checked to exact equality)")
    assert ok and exact_cases > 50


def test_criterion6_l_function_identities():
    rng = random.Random(991)
    f3 = field_make(3)
    failures = 0
    per_gen = 100
    for name in ("mu", "nu", "iota", "tau", "sigma"):
        for _ in range(per_gen):
            max_m = 6 if name == "sigma" else 9
            m = rng.randrange(0, max_m + 1)
            coeffs = [rng.randrange(3) for _ in range(m)] + [rng.randrange(1, 3)]
            n = rng.randrange(1, 3) if name != "sigma" else 1
            tp = TwistedPower(Poly(f3, coeffs), n)
            g = {"mu": Mu(rng.randrange(3)),
                 "nu": Nu(rng.randrange(1, 3)),
                 "iota": Iota(None),
                 "tau": Tau(rng.randrange(1, 3)),
                 "sigma": Sigma(1)}[name]
            if not check_l_identity(g, tp).ok:
                failures += 1
    ok = failures == 0
    print(f"ACCEPTANCE 6 (L identities): {'PASS' if ok else 'FAIL'} — "
          f"5 generators x {per_gen} random twists, {failures} failures")
    assert ok


def test_criterion6_window_conjugacies():
    rng = random.Random(992)
    f3 = field_make(3)
    failures = 0
    cases = 0
    for trial in range(12):
        m = rng.randrange(0, 7)
        coeffs = [rng.randrange(3) for _ in range(m)] + [rng.randrange(1, 3)]
        n = rng.randrange(1, 3)
        tp = TwistedPower(Poly(f3, coeffs), n)
        window = 10 if trial % 3 == 0 else rng.randrange(5, 10)
        for g in (Mu(rng.randrange(3)), Nu(rng.randrange(1, 3)), Iota(None),
                  Tau(rng.randrange(1, 3)), TwistMul(Poly.x(f3))):
            cases += 1
            if not verify_conjugacy(g, tp, window):
                failures += 1
    ok = failures == 0
    print(f"ACCEPTANCE 6 (window conjugacies + block shape): "
          f"{'PASS' if ok else 'FAIL'} — {cases} checks, {failures} failures")
    assert ok


def test_criterion6_sigma_block_shape_as_specified():
    f3 = field_make(3)
    ok = verify_conjugacy(Sigma(1), TwistedPower(Poly(f3, [1]), 1), 7)
    print(f"ACCEPTANCE 6 (sigma block shape): {'PASS' if ok else 'FAIL'} — "
          f"stated block-triangular form of the one-step exponent conjugation")
    assert ok, ("the stated sigma block identity fails even for P = 1 "
                "(the conjugated matrix has a nonzero top row); the library "
                "check reports the discrepancy faithfully")


def test_criterion7_coset_audit():
    reports = [coset_audit(3, n, 7) for n in (1, 2)]
    violations = sum(len(r["violations"]) for r in reports)
    ok = violations == 0
    for r in reports:
        assert r["on_coset"] == r["on_coset_rank_ge1"]
        assert r["subgroup_index"] == 4
    print(f"ACCEPTANCE 7: {'PASS' if ok else 'FAIL'} — q=3, n in {{1,2}}, "
          f"all P with deg <= 7: {violations} coset violations")
    assert ok


def test_criterion8_property_suites():
    rng = random.Random(555)
    failures = []

    # determinant stability across the three smallest admissible sizes
    for _ in range(50):
        q = rng.choice([2, 3])
        ctx = field_make(q)
        m = rng.randrange(0, 13)
        coeffs = [rng.randrange(q) for _ in range(m)] + [rng.randrange(1, q)]
        n = rng.randrange(1, 4)
        t = TwistedPower(Poly(ctx, coeffs), n)
        band = _band_codes([coeffs], n, ctx)[0]
        dets = []
        for k in (t.k_min, t.k_min + 1, t.k_min + 2):
            codes = band[band_index(q, k, len(band) - 1)]
            dets.append(LFun(ctx, det_identity_minus_mu(codes, ctx)))
        if not dets[0] == dets[1] == dets[2]:
            failures.append(("stability", coeffs, q, n))

    # unit constant term and T-degree bounds
    for _ in range(30):
        q = rng.choice([2, 3])
        ctx = field_make(q)
        m = rng.randrange(0, 9)
        coeffs = [rng.randrange(q) for _ in range(m)] + [rng.randrange(1, q)]
        n = rng.randrange(1, 3)
        l = l_function(TwistedPower(Poly(ctx, coeffs), n))
        if l.coeff(0) != Poly.one(ctx):
            failures.append(("unit", coeffs))
        if any(l.coeff(j).degree > n * j for j in range(l.u_degree + 1)):
            failures.append(("degree", coeffs))

    # Frobenius invariance of every local numerator
    f3 = field_make(3)
    for _ in range(10):
        m = rng.randrange(0, 5)
        coeffs = [rng.randrange(3) for _ in range(m)] + [rng.randrange(1, 3)]
        t = TwistedPower(Poly(f3, coeffs), rng.randrange(1, 3))
        for d in (1, 2, 3):
            for prime in primes_of_degree(f3, d):
                from carlitz.euler import reduce_tau, twisted_power
                tw = twisted_power(reduce_tau(t, prime), d)
                rc = tw.ctx
                if any(rc.frobenius(c, 1) != c for c in tw.coeffs):
                    failures.append(("frobenius", coeffs, prime.coeffs))

    # determinism across worker counts
    outs = []
    for w in (1, 4, 16):
        spec = ScanSpec(q=3, n=1, m=6, lead=2, workers=w, chunk_size=61)
        obj = run_scan(spec).to_json_obj()
        obj.pop("audits")
        outs.append(obj)
    if not outs[0] == outs[1] == outs[2]:
        failures.append(("determinism",))

    # binomial digit identities over the stated ranges
    for q in (2, 3):
        for l in range(41):
            for i in range(13):
                got = binom_mod_p(l, q * (i + 1) - 1, q)
                want = (binom_mod_p((l + 1) // q - 1, i, q)
                        if l % q == q - 1 else 0)
                if got != want:
                    failures.append(("binom", q, l, i))
        for a in range(13):
            for c in range(13):
                if binom_mod_p(a * q, c * q, q) != binom_mod_p(a, c, q):
                    failures.append(("binom-digit", q, a, c))

    ok = not failures
    print(f"ACCEPTANCE 8: {'PASS' if ok else 'FAIL'} — stability, unit term, "
          f"degree bounds, Frobenius invariance, worker determinism, "
          f"binomial identities: {len(failures)} failures")
    assert ok, failures
