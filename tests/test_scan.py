import dataclasses
import hashlib
import itertools
import json

import numpy as np
import pytest

from carlitz import field_make, Poly, is_squarefree
from carlitz.lfun import lfun_order_at
from carlitz.motive import TwistedPower, analytic_rank, l_function
from carlitz import scan
from carlitz.scan import (ScanSpec, RankTable, ScanCapError, run_scan,
                          shift_stable_expand, coset_audit, dim_report,
                          default_workers, audit_skip_reason,
                          equation_count, _squarefree_ints, _squarefree_mask,
                          _squarefree_count, _odometer, _engines_for,
                          _stable_basis)
from carlitz.fastrank import RankEngine
from carlitz.symmetry import Mu, act_on_poly


def test_spec_validation():
    with pytest.raises(ValueError):
        ScanSpec(q=3, n=1, m=5, lead=0)
    with pytest.raises(ValueError):
        ScanSpec(q=3, n=1, m=5, lead=1, mode="shift-stable")  # 3 does not divide 5
    with pytest.raises(ValueError):
        ScanSpec(q=3, n=0, m=5, lead=1)
    for q in (4, 9):
        with pytest.raises(ValueError, match="scans need prime q"):
            ScanSpec(q=q, n=1, m=3, lead=1)
    for bad in (dict(chunk_size=0), dict(chunk_size=-3), dict(workers=-1),
                dict(witness_cap=-1)):
        with pytest.raises(ValueError):
            ScanSpec(q=3, n=1, m=5, lead=1, **bad)


def test_cap_enforced(monkeypatch):
    # 3^17 rows lie above the cap, and the check comes before any chunk runs
    def no_chunk(args):
        raise AssertionError("chunk ran above the cap")

    monkeypatch.setattr(scan, "_scan_chunk", no_chunk)
    with pytest.raises(ScanCapError):
        run_scan(ScanSpec(q=3, n=1, m=17, lead=1, workers=1))
    monkeypatch.undo()
    # force runs past the cap: 3^4 rows under a cap of 10
    monkeypatch.setattr(scan, "_SCAN_CAP", 10)
    spec = ScanSpec(q=3, n=1, m=4, lead=1, workers=1)
    with pytest.raises(ScanCapError):
        run_scan(spec)
    forced = run_scan(ScanSpec(q=3, n=1, m=4, lead=1, workers=1, force=True))
    assert forced.scanned[(4, 1)] == 81


def test_counts_match_direct_enumeration():
    # independent oracle: enumerate all P of degree m and rank symbolically;
    # m=5, lead 2 lies on the coset, where the scan derives the rank-1 count
    f3 = field_make(3)
    for m, lead in ((4, 2), (5, 2)):
        want = {}
        for code in range(3**m):
            coeffs = []
            v = code
            for _ in range(m):
                coeffs.append(v % 3)
                v //= 3
            coeffs.append(lead)
            p = Poly(f3, coeffs)
            if not is_squarefree(p):
                continue
            r = analytic_rank(TwistedPower(p, 1))
            if r >= 1:
                want[r] = want.get(r, 0) + 1
        table = run_scan(ScanSpec(q=3, n=1, m=m, lead=lead, workers=1,
                                  chunk_size=50))
        assert table.hist[(m, lead)] == want, m


def _brute_cell(q, n, m, lead, cap):
    # rank >= 1 histogram and the first ``cap`` witnesses of each rank, over
    # every squarefree P of the cell in odometer order, by the symbolic route
    ctx = field_make(q)
    hist, witnesses = {}, {}
    for free in itertools.product(range(q), repeat=m):
        coeffs = list(free[::-1]) + [lead]
        p = Poly(ctx, coeffs)
        if not is_squarefree(p):
            continue
        r = analytic_rank(TwistedPower(p, n))
        if r >= 1:
            hist[r] = hist.get(r, 0) + 1
            ws = witnesses.setdefault(r, [])
            if len(ws) < cap:
                ws.append(",".join(map(str, coeffs)))
    return hist, witnesses


@pytest.mark.parametrize("q,n", [(2, 1), (2, 2), (3, 1), (3, 2), (5, 1),
                                 (5, 2)])
def test_counts_and_witnesses_match_brute_force(q, n):
    # with p ∤ m the scan ranks one P per θ-shift orbit and expands the
    # witness lists; both must equal the full symbolic enumeration's
    m_max = {2: 9, 3: 7, 5: 4}[q]
    for m in range(1, m_max + 1):
        for lead in range(1, q):
            spec = ScanSpec(q=q, n=n, m=m, lead=lead, workers=1,
                            chunk_size=-(-q**m // 3), witness_cap=16)
            table = run_scan(spec)
            hist, witnesses = _brute_cell(q, n, m, lead, 16)
            assert table.hist[(m, lead)] == hist, (m, lead)
            assert {r: ws for (_, _, r), ws in table.witnesses.items()} == \
                witnesses, (m, lead)


def test_worker_and_chunk_independence():
    base = None
    for workers, chunk in [(1, 100), (4, 57), (16, 23), (2, 100)]:
        spec = ScanSpec(q=3, n=1, m=6, lead=2, workers=workers,
                        chunk_size=chunk)
        got = run_scan(spec).to_json_obj()
        got.pop("audits")
        if base is None:
            base = got
        else:
            assert got == base


def test_nested_thresholds_and_witnesses():
    spec = ScanSpec(q=3, n=1, m=9, lead=2, workers=2, witness_cap=4)
    table = run_scan(spec)
    assert table.count(9, 2, 1) >= table.count(9, 2, 2) >= table.count(9, 2, 3)
    assert table.count(9, 2, 3) == 6
    ws = table.witnesses[(9, 2, 3)]
    assert 0 < len(ws) <= 4
    f3 = field_make(3)
    for w in ws:
        coeffs = [int(x) for x in w.split(",")]
        p = Poly(f3, coeffs)
        assert is_squarefree(p)
        assert analytic_rank(TwistedPower(p, 1)) == 3


def test_csv_and_json_round_trip(tmp_path):
    spec = ScanSpec(q=3, n=1, m=3, lead=2, workers=1)
    table = run_scan(spec)
    csv = table.to_csv()
    assert "m,a,r,count" in csv
    assert "3,2,2,3" in csv
    obj = table.to_json_obj()
    again = RankTable.from_json_obj(json.loads(json.dumps(obj)))
    assert again.to_json_obj() == obj


def test_checkpoint_resume(tmp_path):
    ck = str(tmp_path / "scan.ckpt")
    spec = ScanSpec(q=3, n=1, m=6, lead=2, workers=1, chunk_size=100)
    full = run_scan(spec, checkpoint=ck)
    lines = open(ck).read().strip().splitlines()
    assert len(lines) == 1 + (3**6 + 99) // 100
    # drop the last two chunks and resume
    with open(ck, "w") as fh:
        fh.write("\n".join(lines[:-2]) + "\n")
    resumed = run_scan(spec, checkpoint=ck, resume=True)
    assert resumed.to_json_obj() == full.to_json_obj()
    other = ScanSpec(q=3, n=1, m=6, lead=1, workers=1, chunk_size=100)
    with pytest.raises(ValueError):
        run_scan(other, checkpoint=ck, resume=True)


def test_checkpoint_resume_after_torn_final_line(tmp_path):
    ck = tmp_path / "scan.ckpt"
    spec = ScanSpec(q=3, n=1, m=6, lead=2, workers=1, chunk_size=100)
    full = run_scan(spec, checkpoint=str(ck))
    data = ck.read_bytes()
    ck.write_bytes(data[:-40])  # a crash in the middle of the last write
    resumed = run_scan(spec, checkpoint=str(ck), resume=True)
    assert resumed.to_json_obj() == full.to_json_obj()
    lines = ck.read_text().splitlines()
    assert sorted(json.loads(line)["chunk"] for line in lines[1:]) == \
        list(range(len(lines) - 1))
    # only the final line may be torn: a bad line elsewhere is corruption
    lines[2] = lines[2][:-40]
    ck.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError):
        run_scan(spec, checkpoint=str(ck), resume=True)


def test_fingerprint_unchanged():
    # checkpoint headers carry this string, so it must not move: checkpoints
    # written while the audit policy was a set of ScanSpec fields resume
    assert ScanSpec(q=3, n=1, m=9, lead=2).fingerprint() == (
        "q3n1m9a2squarefreec8192w16r0.001ac16ak12")
    assert [f.name for f in dataclasses.fields(ScanSpec)] == [
        "q", "n", "m", "lead", "mode", "workers", "chunk_size", "force",
        "witness_cap"]


def test_resume_from_checkpoint_with_audit_fields(tmp_path):
    # the header as written while ScanSpec carried audit_rate, audit_cap and
    # audit_k_cap; the chunks it lists are kept, the rest run again
    spec = ScanSpec(q=3, n=1, m=6, lead=2, workers=1, chunk_size=100)
    fresh = run_scan(spec).to_json_obj()
    ck = tmp_path / "scan.ckpt"
    run_scan(spec, checkpoint=str(ck))
    lines = ck.read_text().splitlines()
    header = (
        '{"fingerprint": "q3n1m6a2squarefreec100w16r0.001ac16ak12", "spec": '
        '{"q": 3, "n": 1, "m": 6, "lead": 2, "mode": "squarefree", '
        '"workers": 1, "chunk_size": 100, "force": false, '
        '"audit_rate": 0.001, "audit_cap": 16, "audit_k_cap": 12, '
        '"witness_cap": 16}}')
    ck.write_text("\n".join([header] + lines[1:-2]) + "\n")
    resumed = run_scan(spec, checkpoint=str(ck), resume=True)
    assert resumed.to_json_obj() == fresh
    lines = ck.read_text().splitlines()
    assert lines[0] == header
    assert [json.loads(line)["chunk"] for line in lines[1:]] == \
        list(range(len(lines) - 1))


def test_resume_refuses_other_witness_cap(tmp_path):
    ck = str(tmp_path / "scan.ckpt")
    run_scan(ScanSpec(q=3, n=1, m=5, lead=2, workers=1, chunk_size=50),
             checkpoint=ck)
    other = ScanSpec(q=3, n=1, m=5, lead=2, workers=1, chunk_size=50,
                     witness_cap=2)
    with pytest.raises(ValueError, match="different scan"):
        run_scan(other, checkpoint=ck, resume=True)


def test_shift_stable_expand_examples(f3):
    assert shift_stable_expand([], 3) == Poly.zero(f3)
    assert shift_stable_expand([0, 1], 3) == Poly(f3, [0, 2, 0, 1])
    assert shift_stable_expand([2, 0, 1], 3) == Poly(f3, [2, 0, 1, 0, 1, 0, 1])
    w = shift_stable_expand([0, 2, 0, 1, 0, 1, 0, 1], 3)
    assert int(w.degree) == 21
    t = TwistedPower(w, 1)
    for d in range(3):
        assert act_on_poly(Mu(d), t).P == w


@pytest.mark.parametrize("q", [2, 3, 5, 7])
def test_stable_basis_matches_poly_powers(q):
    ctx = field_make(q)
    base = Poly(ctx, [0] * q + [1]) - Poly(ctx, [0, 1])  # θ^q - θ
    basis = _stable_basis(q, 12)
    assert basis.shape == (13, 12 * q + 1)
    power = Poly.one(ctx)
    for i, row in enumerate(basis.tolist()):
        want = [int(c) for c in power.coeffs]
        assert row == want + [0] * (len(row) - len(want)), (q, i)
        power = power * base


def test_squarefree_int_helper_matches_poly(rng):
    f3 = field_make(3)
    for _ in range(300):
        m = rng.randrange(0, 9)
        coeffs = [rng.randrange(3) for _ in range(m)] + [rng.randrange(1, 3)]
        assert _squarefree_ints(coeffs, 3) == is_squarefree(Poly(f3, coeffs))


def _all_rows(p, m):
    # every coefficient row of degree exactly m, little-endian
    rows = [list(free[::-1]) + [lead] for lead in range(1, p)
            for free in itertools.product(range(p), repeat=m)]
    return np.array(rows, dtype=np.int64).reshape(len(rows), m + 1)


@pytest.mark.parametrize("p,m_max", [(2, 12), (3, 8), (5, 5), (7, 4)])
def test_squarefree_mask_matches_oracle(p, m_max):
    ctx = field_make(p)
    for m in range(m_max + 1):
        rows = _all_rows(p, m)
        got = _squarefree_mask(rows, p)
        want = [is_squarefree(Poly(ctx, row)) for row in rows.tolist()]
        assert got.tolist() == want, (p, m)


@pytest.mark.parametrize("p", [127, 131])
def test_squarefree_mask_large_p(p, rng):
    # the kernel runs on int16 for 2(p-1)^2 < 2^15 (p = 127) and on int64
    # above (p = 131); every other row carries a square factor A^2
    ctx = field_make(p)
    by_degree = {}  # one degree per call, as the scans call it
    for i in range(120):
        m = rng.randrange(2, 10)
        if i % 2:
            a = Poly(ctx, [rng.randrange(p) for _ in range(rng.randrange(1, 3))]
                     + [rng.randrange(1, p)])
            b = Poly(ctx, [rng.randrange(p) for _ in range(m - 2 * a.degree)]
                     + [rng.randrange(1, p)])
            poly = a * a * b
        else:
            poly = Poly(ctx, [rng.randrange(p) for _ in range(m)]
                        + [rng.randrange(1, p)])
        by_degree.setdefault(poly.degree, []).append(
            [int(c) for c in poly.coeffs])
    flags = []
    for block in by_degree.values():
        want = [is_squarefree(Poly(ctx, r)) for r in block]
        assert _squarefree_mask(np.array(block), p).tolist() == want
        flags += want
    assert True in flags and False in flags


def test_shift_stable_squarefree_follows_f():
    # P = F(θ^3 - θ) is squarefree exactly when F is
    for m_st in range(7):
        rows = _all_rows(3, m_st)
        got = _squarefree_mask(rows, 3)
        for row, sf in zip(rows.tolist(), got.tolist()):
            assert is_squarefree(shift_stable_expand(row, 3)) == sf


def test_tally_mod_q_structure():
    # counts minus the shift-stable contribution are multiples of q
    spec = ScanSpec(q=3, n=1, m=9, lead=2, workers=2)
    full = run_scan(spec).count(9, 2, 2)
    st = run_scan(ScanSpec(q=3, n=1, m=9, lead=2, mode="shift-stable",
                           workers=1)).count(9, 2, 2)
    assert (full - st) % 3 == 0


def test_coset_audit_basics():
    rep = coset_audit(3, 1, 4)
    assert rep["violations"] == []
    assert rep["coset"] == {"lead": 2, "m_mod_q_minus_1": 1}
    assert rep["subgroup_index"] == 4
    assert rep["on_coset"] == rep["on_coset_rank_ge1"]
    rep2 = coset_audit(2, 1, 4)
    assert rep2["off_coset"] == 0 and rep2["violations"] == []
    with pytest.raises(ValueError, match="coset audit needs prime q"):
        coset_audit(4, 1, 2)
    with pytest.raises(ValueError, match="n must be >= 1"):
        coset_audit(3, 0, 2)
    with pytest.raises(ValueError, match="m_max must be >= 0"):
        coset_audit(3, 1, -1)


def test_dim_report_values():
    assert equation_count(1, 5) == 6
    single = dim_report(3, 3, "single")
    assert single["max_feasible_r"] == 3 and single["single_max_r"] == 3
    assert dim_report(3, 4, "single")["feasible"] is False
    fam = dim_report(3, 3, "infinite-family")
    assert fam["max_feasible_r"] == 3 and fam["feasible"]
    assert dim_report(3, 4, "infinite-family")["feasible"] is False
    st = dim_report(3, 2, "shift-stable", m=15)
    assert st["expected_dims"]["lead_-1"]["r2"] == 2
    assert st["expected_dims"]["lead_1"]["r1"] == 3
    st2 = dim_report(3, 1, "shift-stable", m=12)
    assert st2["expected_dims"]["any_lead"]["r1"] == 1
    # m odd: expected dimension of the rank>=2 locus matches (m-1)/2 shape
    s = dim_report(3, 2, "single", m=5)
    assert s["expected_dimension"] == (5 - 1) // 2


def test_dim_report_rejects_r_below_one():
    for mode in ("single", "infinite-family", "shift-stable"):
        with pytest.raises(ValueError, match="r must be >= 1"):
            dim_report(3, 0, mode, m=15)


def test_default_workers_reads_clrank_workers(monkeypatch):
    monkeypatch.setenv("CLRANK_WORKERS", "3")
    assert default_workers() == 3
    for bad in ("x", "0", "-2", "1.5"):
        monkeypatch.setenv("CLRANK_WORKERS", bad)
        with pytest.raises(ValueError, match="CLRANK_WORKERS"):
            default_workers()
    monkeypatch.delenv("CLRANK_WORKERS")
    assert default_workers() >= 1


def test_default_workers_counts_usable_cpus(monkeypatch):
    # the CPUs this process may run on, not every CPU of the machine
    monkeypatch.delenv("CLRANK_WORKERS", raising=False)
    monkeypatch.setattr(scan.os, "sched_getaffinity", lambda pid: {0},
                        raising=False)
    monkeypatch.setattr(scan.os, "cpu_count", lambda: 64)
    assert default_workers() == 1


def test_audit_failure_reporting_structure(monkeypatch):
    monkeypatch.setattr(scan, "_AUDIT_RATE", 1.0)
    monkeypatch.setattr(scan, "_AUDIT_CAP", 5)
    spec = ScanSpec(q=3, n=1, m=5, lead=2, workers=1)
    table = run_scan(spec)
    assert table.audits > 0
    assert table.audit_failures == []


@pytest.mark.parametrize("lead", [1, 2])
def test_audit_reports_a_wrong_engine_rank(monkeypatch, lead):
    # the engine answers one too high for two rows: the first squarefree
    # index, ranked among the shift representatives (below 3^4 = 81), and
    # the first squarefree index of the second chunk, past them, which the
    # extra engine call ranks; the audit must name both with both ranks
    monkeypatch.setattr(scan, "_AUDIT_RATE", 1.0)
    monkeypatch.setattr(scan, "_AUDIT_CAP", 5)
    spec = ScanSpec(q=3, n=1, m=5, lead=lead, workers=1, chunk_size=100)
    assert spec.total // spec.shift_orbit == 81

    def row(i):
        return [i // 3**j % 3 for j in range(5)] + [lead]

    targets = [next(i for i in range(lo, spec.total)
                    if _squarefree_ints(row(i), 3)) for lo in (0, 100)]
    assert targets[0] < 81 <= 100 <= targets[1] < 200
    wrong = np.array([row(i) for i in targets])
    calls = []
    orders = RankEngine.vanishing_orders

    def off_by_one(self, digits, basis=None):
        out = orders(self, digits, basis)
        hit = (np.asarray(digits)[:, None] == wrong).all(axis=2).any(axis=1)
        calls.append((len(out), int(hit.sum())))
        return out + hit

    monkeypatch.setattr(RankEngine, "vanishing_orders", off_by_one)
    table = run_scan(spec)
    # chunk 0's call on its 81 ranked rows, then chunk 1's on its 5 picks
    assert [c for c in calls if c[1]] == [(81, 1), (5, 1)]
    want = []
    for i in targets:
        tp = TwistedPower(Poly(field_make(3), row(i)), 1)
        r = lfun_order_at(l_function(tp), 1)
        want.append({"poly": ",".join(map(str, row(i))), "fast": r + 1,
                     "symbolic": r})
    assert table.audits == 15
    assert table.audit_failures == want


@pytest.mark.parametrize("content", [b"", b'{"fingerprint": "q3n1m6'])
def test_resume_from_checkpoint_without_complete_record(tmp_path, content):
    # a crash before the header is flushed leaves an empty or torn file
    spec = ScanSpec(q=3, n=1, m=6, lead=2, workers=1, chunk_size=100)
    full = run_scan(spec).to_json_obj()
    ck = tmp_path / "scan.ckpt"
    ck.write_bytes(content)
    resumed = run_scan(spec, checkpoint=str(ck), resume=True)
    assert resumed.to_json_obj() == full
    lines = ck.read_text().splitlines()
    assert json.loads(lines[0])["fingerprint"] == spec.fingerprint()
    assert len(lines) == 1 + (3**6 + 99) // 100


def _brute_coset_audit(q, n, m_max):
    # every P of degree <= m_max through the symbolic determinant route
    ctx = field_make(q)
    lead_target, m_target = (-1) ** n % q, (-n) % (q - 1)
    on = on_ge1 = off = off_ge1 = 0
    violations = []
    for m in range(m_max + 1):
        for lead in range(1, q):
            for free in itertools.product(range(q), repeat=m):
                coeffs = list(free[::-1]) + [lead]
                r = analytic_rank(TwistedPower(Poly(ctx, coeffs), n))
                if m % (q - 1) == m_target and lead == lead_target:
                    on += 1
                    on_ge1 += r >= 1
                    if r == 0:
                        violations.append(",".join(map(str, coeffs)))
                else:
                    off += 1
                    off_ge1 += r >= 1
    return {"checked": on + off, "on_coset": on, "on_coset_rank_ge1": on_ge1,
            "violations": violations, "off_coset": off,
            "off_coset_rank_ge1": off_ge1}


@pytest.mark.parametrize("q,n,m_max", [(3, 1, 4), (3, 2, 4), (2, 1, 6),
                                       (2, 2, 5), (5, 1, 2), (5, 2, 2)])
def test_coset_audit_matches_symbolic_ranks(q, n, m_max):
    rep = coset_audit(q, n, m_max)
    want = _brute_coset_audit(q, n, m_max)
    assert {key: rep[key] for key in want} == want


def test_audit_picks_follow_index_hash(monkeypatch):
    # per chunk: the first _AUDIT_CAP squarefree indices whose Knuth hash
    # falls below _AUDIT_RATE * 2^32
    monkeypatch.setattr(scan, "_AUDIT_RATE", 0.05)
    monkeypatch.setattr(scan, "_AUDIT_CAP", 7)
    spec = ScanSpec(q=3, n=1, m=7, lead=2, workers=1, chunk_size=300)
    thresh = int(0.05 * 2**32)
    want = 0
    for start in range(0, spec.total, spec.chunk_size):
        picked = [i for i in range(start, min(start + spec.chunk_size,
                                              spec.total))
                  if i * 2654435761 % 2**32 < thresh
                  and _squarefree_ints([i // 3**j % 3 for j in range(7)] + [2],
                                       3)]
        want += min(len(picked), 7)
    table = run_scan(spec)
    assert table.audits == want > 0
    assert table.audit_failures == []


@pytest.mark.parametrize("q", [2, 3, 5])
def test_odometer_digits(q):
    # little-endian digits of each index, then the lead, on windows that
    # start in the middle of a carry and end ragged
    m, lead = 6, q - 1
    for start, end in ((q**3 - 1, q**4 + 2), (q**2 + 1, q**5 - 3), (0, 1),
                       (7, 7)):
        rows = _odometer(q, m, lead, start, end)
        assert rows.dtype == np.int64 and rows.shape == (end - start, m + 1)
        assert rows.tolist() == [[c // q**j % q for j in range(m)] + [lead]
                                 for c in range(start, end)]
    assert _odometer(q, 0, lead, 0, 1).tolist() == [[lead]]


def _kernel_count(q, d, lead):
    # squarefree rows of the full degree-d odometer, by the kernel, in blocks
    block = q**8
    return sum(int(_squarefree_mask(_odometer(q, d, lead, s,
                                              min(s + block, q**d)), q).sum())
               for s in range(0, q**d, block))


def _check_closed_form(q, d_max):
    for d in range(d_max + 1):
        want = q**d - q**(d - 1) if d >= 2 else q**d
        assert _squarefree_count(q, d) == want
        for lead in range(1, q):
            assert _kernel_count(q, d, lead) == want, (q, d, lead)


@pytest.mark.parametrize("q,d_max", [(2, 14), (3, 10), (5, 6)])
def test_squarefree_closed_form_matches_kernel(q, d_max):
    # scans take their squarefree counts from Carlitz's formula; the kernel
    # the tallies still filter by must agree with it on every degree
    _check_closed_form(q, d_max)


@pytest.mark.long
@pytest.mark.parametrize("q,d_max", [(3, 12), (5, 7)])
def test_squarefree_closed_form_matches_kernel_long(q, d_max):
    _check_closed_form(q, d_max)


def _filter_first_chunk(spec, start, end, audited):
    """One chunk of the filter-first pipeline.

    The squarefree test runs on every row and the engine on the squarefree
    rows only; every rank >= 1 is tallied, the coset's rank 1 included, and
    the payload carries the chunk's squarefree count.  Appends (row, rank)
    to ``audited`` for each audit pick.
    """
    q, n, m, lead = spec.q, spec.n, spec.m, spec.lead
    on_coset = (m + n) % (q - 1) == 0 and lead == (-1) ** n % q
    free = _odometer(q, spec.free_coeffs, lead, start, end)
    sf_mask = _squarefree_mask(free, q)
    rows = free[sf_mask]
    if spec.mode == "shift-stable":
        rows = np.array([[int(c) for c in shift_stable_expand(row, q).coeffs]
                         for row in rows.tolist()],
                        dtype=np.int64).reshape(len(rows), m + 1)
    eng = _engines_for(q, n, m, spec.mode, on_coset)
    ranks = (1 if on_coset else 0) + eng.vanishing_orders(rows)
    strs = [",".join(map(str, row)) for row in rows.tolist()]
    hist, witnesses = {}, {}
    for r in sorted(set(ranks.tolist()) - {0}):
        hits = np.nonzero(ranks == r)[0]
        hist[r] = len(hits)
        witnesses[r] = [strs[i] for i in hits[:spec.witness_cap]]
    picks = []
    if audit_skip_reason(q, n, m) is None:
        thresh = int(scan._AUDIT_RATE * 2**32)
        idxs = np.arange(start, end)[sf_mask].tolist()
        picks = [i for i, idx in enumerate(idxs)
                 if idx * 2654435761 % 2**32 < thresh][:scan._AUDIT_CAP]
    audited.extend((strs[i], int(ranks[i])) for i in picks)
    return {"hist": hist, "witnesses": witnesses, "scanned": end - start,
            "squarefree": int(sf_mask.sum()), "audits": len(picks),
            "audit_failures": []}


def _filter_first_table(spec, audited):
    table = RankTable(q=spec.q, n=spec.n, mode=spec.mode)
    key = (spec.m, spec.lead)
    cell = table.hist.setdefault(key, {})
    table.scanned[key] = table.squarefree[key] = 0
    for start in range(0, spec.total, spec.chunk_size):
        end = min(start + spec.chunk_size, spec.total)
        payload = _filter_first_chunk(spec, start, end, audited)
        for r, c in payload["hist"].items():
            cell[r] = cell.get(r, 0) + c
        for r, ws in payload["witnesses"].items():
            mine = table.witnesses.setdefault((spec.m, spec.lead, r), [])
            mine.extend(ws[:spec.witness_cap - len(mine)])
        table.scanned[key] += payload["scanned"]
        table.squarefree[key] += payload["squarefree"]
        table.audits += payload["audits"]
    return table


def _diff_specs(q, n):
    # every lead, generic and shift-stable degrees, each cell split into
    # about three chunks; q=5, n=2 includes the shift-stable m=10 lead-1
    # cell, whose squarefree F all have rank >= 2
    m_gen, d_st = {2: (9, 8), 3: (7, 5), 5: (4, 3)}[q]
    cells = ([(m, "squarefree") for m in range(1, m_gen + 1)]
             + [(q * d, "shift-stable") for d in range(1, d_st + 1)])
    for m, mode in cells:
        for lead in range(1, q):
            total = q ** (m // q if mode == "shift-stable" else m)
            yield ScanSpec(q=q, n=n, m=m, lead=lead, mode=mode, workers=1,
                           chunk_size=-(-total // 3), witness_cap=m % 3)


@pytest.mark.parametrize("q,n", [(2, 1), (2, 2), (3, 1), (3, 2), (5, 1),
                                 (5, 2)])
def test_rank_first_matches_filter_first(q, n, monkeypatch):
    # full JSON and CSV, witness order, audit picks and counts included
    audited = []

    def audit(rows, n, ctx):
        # the batched symbolic route: one call per chunk on its picks
        strs = [",".join(map(str, row)) for row in np.asarray(rows).tolist()]
        audited.extend(strs)
        return np.array([ranks[row] for row in strs], dtype=np.int64)

    monkeypatch.setattr(scan, "analytic_ranks", audit)
    monkeypatch.setattr(scan, "_AUDIT_RATE", 0.1)
    monkeypatch.setattr(scan, "_AUDIT_CAP", 2)
    picked = 0
    for spec in _diff_specs(q, n):
        want_audits = []
        want = _filter_first_table(spec, want_audits)
        ranks = dict(want_audits)
        audited.clear()
        got = run_scan(spec)
        where = (spec.m, spec.lead, spec.mode)
        assert got.to_json_obj() == want.to_json_obj(), where
        assert got.to_csv() == want.to_csv(), where
        assert audited == [row for row, _ in want_audits], where
        picked += len(audited)
    assert picked > 0


@pytest.mark.parametrize("m,lead", [(9, 2), (9, 1)])
def test_resume_from_filter_first_checkpoint(tmp_path, m, lead):
    # checkpoints of the filter-first pipeline carry a per-chunk squarefree
    # count and, on the coset (m=9, lead 2), per-chunk rank-1 counts; with
    # p | m the scan ranks every row, as that pipeline did
    spec = ScanSpec(q=3, n=1, m=m, lead=lead, workers=1, chunk_size=300)
    fresh = run_scan(spec).to_json_obj()
    ck = tmp_path / "scan.ckpt"
    starts = list(range(0, spec.total, spec.chunk_size))
    records = [{"fingerprint": spec.fingerprint(), "spec": {}}]
    for i, start in enumerate(starts[:-2]):
        payload = _filter_first_chunk(
            spec, start, min(start + spec.chunk_size, spec.total), [])
        records.append({"chunk": i, "payload": payload})
    if lead == 2:
        assert all(1 in r["payload"]["hist"] for r in records[1:])
    ck.write_text("".join(json.dumps(r) + "\n" for r in records))
    resumed = run_scan(spec, checkpoint=str(ck), resume=True)
    assert resumed.to_json_obj() == fresh
    lines = [json.loads(line) for line in ck.read_text().splitlines()]
    assert [r["chunk"] for r in lines[1:]] == list(range(len(starts)))
    assert all("squarefree" not in r["payload"] for r in lines[-2:])


@pytest.mark.parametrize("lead", [1, 2])
def test_resume_refuses_checkpoint_of_full_enumeration(tmp_path, lead):
    # a checkpoint written while m=7 scans ranked every row carries the
    # fingerprint without the orbit token; its chunks count every P, which
    # the reduced scan would count again q times, so it must not resume
    spec = ScanSpec(q=3, n=1, m=7, lead=lead, workers=1, chunk_size=300)
    old = f"q3n1m7a{lead}squarefreec300w16r0.001ac16ak12"
    assert spec.fingerprint() == old + "o3"
    records = [{"fingerprint": old, "spec": {}}]
    for i, start in enumerate(range(0, spec.total, spec.chunk_size)):
        payload = _filter_first_chunk(
            spec, start, min(start + spec.chunk_size, spec.total), [])
        records.append({"chunk": i, "payload": payload})
    ck = tmp_path / "scan.ckpt"
    ck.write_text("".join(json.dumps(r) + "\n" for r in records))
    with pytest.raises(ValueError,
                       match="checkpoint belongs to a different scan"):
        run_scan(spec, checkpoint=str(ck), resume=True)


@pytest.mark.parametrize("q,n,m,lead,mode,chunk", [
    (3, 1, 7, 1, "squarefree", 300), (3, 1, 7, 2, "squarefree", 300),
    (2, 2, 9, 1, "squarefree", 100), (5, 1, 4, 3, "squarefree", 100),
    (3, 1, 6, 2, "squarefree", 100), (2, 1, 8, 1, "squarefree", 100),
    (3, 1, 18, 1, "shift-stable", 10), (3, 1, 18, 2, "shift-stable", 10)])
def test_engine_rows_one_per_shift_orbit(monkeypatch, q, n, m, lead, mode,
                                         chunk):
    # a reduced cell (squarefree mode, p ∤ m) ranks its q^(m-1)
    # representatives plus the audit picks past them; cells with p | m rank
    # every row and shift-stable cells every squarefree F, as before
    monkeypatch.setattr(scan, "_AUDIT_RATE", 0.05)
    monkeypatch.setattr(scan, "_AUDIT_CAP", 4)
    rows = []
    orders = RankEngine.vanishing_orders

    def counted(self, digits, basis=None):
        rows.append(len(digits))
        return orders(self, digits, basis)

    monkeypatch.setattr(RankEngine, "vanishing_orders", counted)
    spec = ScanSpec(q=q, n=n, m=m, lead=lead, mode=mode, workers=1,
                    chunk_size=chunk)
    table = run_scan(spec)
    assert table.audits > 0 and table.audit_failures == []
    if mode == "shift-stable":
        assert spec.shift_orbit == 1
        assert sum(rows) == _squarefree_count(q, m // q)
    elif m % q == 0:
        assert spec.shift_orbit == 1
        assert sum(rows) == q**m
    else:
        assert spec.shift_orbit == q
        ctx = field_make(q)
        thresh = int(0.05 * 2**32)
        past = 0
        for start in range(0, spec.total, chunk):
            picked = [i for i in range(start, min(start + chunk, spec.total))
                      if i * 2654435761 % 2**32 < thresh
                      and is_squarefree(Poly(ctx, [i // q**j % q
                                                   for j in range(m)]
                                             + [lead]))][:4]
            past += sum(i >= q**(m - 1) for i in picked)
        assert past > 0
        assert sum(rows) == q**(m - 1) + past


def test_scan_outputs_pinned():
    # run_scan JSON of generic, n=2, shift-stable, q=5 and q=2 cells, and two
    # coset audits, pinned by digest: a change to the engine's certify or
    # count phase that moves a count or a witness fails here
    cells = [(3, 1, 9, 1, "squarefree"), (3, 1, 9, 2, "squarefree"),
             (3, 2, 8, 1, "squarefree"), (3, 2, 8, 2, "squarefree"),
             (3, 1, 18, 1, "shift-stable"), (3, 1, 18, 2, "shift-stable"),
             (3, 1, 24, 1, "shift-stable"), (3, 1, 24, 2, "shift-stable"),
             (5, 1, 7, 4, "squarefree"), (2, 1, 14, 1, "squarefree")]
    h = hashlib.sha256()
    for q, n, m, lead, mode in cells:
        table = run_scan(ScanSpec(q=q, n=n, m=m, lead=lead, mode=mode,
                                  workers=1))
        h.update(json.dumps(table.to_json_obj(), sort_keys=True).encode()
                 + b"\n")
    assert h.hexdigest() == (
        "de509772f9d3d32cae3934cf7e8b41e9bc8c0cfca7d7924bdd5d4063ee3ccd6c")
    h = hashlib.sha256()
    for args in [(3, 1, 7), (2, 2, 8)]:
        h.update(json.dumps(coset_audit(*args), sort_keys=True).encode()
                 + b"\n")
    assert h.hexdigest() == (
        "55cb99010e7b069d27a12faf6ff6d01941c5b2a9efd9d590dbb7dc99df64d59e")
