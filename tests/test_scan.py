import itertools
import json

import numpy as np
import pytest

from carlitz import field_make, Poly, is_squarefree
from carlitz.motive import TwistedPower, analytic_rank
from carlitz.scan import (ScanSpec, RankTable, ScanCapError, run_scan,
                          shift_stable_expand, coset_audit, dim_report,
                          default_workers,
                          equation_count, _squarefree_ints, _squarefree_mask)
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


def test_cap_enforced():
    spec = ScanSpec(q=3, n=1, m=6, lead=1, cap=10)
    with pytest.raises(ScanCapError):
        run_scan(spec)
    assert run_scan(ScanSpec(q=3, n=1, m=2, lead=1, cap=10, force=True,
                             workers=1)) is not None


def test_counts_match_direct_enumeration():
    # independent oracle: enumerate all P of degree 4 and rank symbolically
    f3 = field_make(3)
    m, lead = 4, 2
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
    table = run_scan(ScanSpec(q=3, n=1, m=m, lead=lead, workers=1))
    assert table.hist[(m, lead)] == want


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


def test_report_rank_restriction():
    spec = ScanSpec(q=3, n=1, m=3, lead=2, workers=1, report_ranks=(2,))
    table = run_scan(spec)
    lines = table.to_csv().strip().splitlines()
    assert lines[1:] == ["3,2,2,3"]


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


def test_resume_refuses_other_witness_cap(tmp_path):
    ck = str(tmp_path / "scan.ckpt")
    run_scan(ScanSpec(q=3, n=1, m=5, lead=2, workers=1, chunk_size=50),
             checkpoint=ck)
    other = ScanSpec(q=3, n=1, m=5, lead=2, workers=1, chunk_size=50,
                     witness_cap=2)
    with pytest.raises(ValueError, match="different scan"):
        run_scan(other, checkpoint=ck, resume=True)


def test_shift_stable_expand_examples(f3):
    assert shift_stable_expand([0, 1], 3) == Poly(f3, [0, 2, 0, 1])
    assert shift_stable_expand([2, 0, 1], 3) == Poly(f3, [2, 0, 1, 0, 1, 0, 1])
    w = shift_stable_expand([0, 2, 0, 1, 0, 1, 0, 1], 3)
    assert int(w.degree) == 21
    t = TwistedPower(w, 1)
    for d in range(3):
        assert act_on_poly(Mu(d), t).P == w


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


def test_audit_failure_reporting_structure():
    spec = ScanSpec(q=3, n=1, m=5, lead=2, workers=1, audit_rate=1.0,
                    audit_cap=5)
    table = run_scan(spec)
    assert table.audits > 0
    assert table.audit_failures == []


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


def test_audit_picks_follow_index_hash():
    # per chunk: the first audit_cap squarefree indices whose Knuth hash
    # falls below audit_rate * 2^32
    spec = ScanSpec(q=3, n=1, m=7, lead=2, workers=1, chunk_size=300,
                    audit_rate=0.05, audit_cap=7)
    thresh = int(spec.audit_rate * 2**32)
    want = 0
    for start in range(0, spec.total, spec.chunk_size):
        picked = [i for i in range(start, min(start + spec.chunk_size,
                                              spec.total))
                  if i * 2654435761 % 2**32 < thresh
                  and _squarefree_ints([i // 3**j % 3 for j in range(7)] + [2],
                                       3)]
        want += min(len(picked), spec.audit_cap)
    table = run_scan(spec)
    assert table.audits == want > 0
    assert table.audit_failures == []
