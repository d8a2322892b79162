import dataclasses
import hashlib
import itertools
import json
import multiprocessing as mp

import numpy as np
import pytest

from carlitz import field_make, Poly, is_squarefree
from carlitz.lfun import lfun_order_at
from carlitz.motive import (TwistedPower, analytic_rank, analytic_ranks,
                            l_function, on_coset)
from carlitz import scan
from carlitz.cli import main
from carlitz.scan import (ScanSpec, RankTable, ScanCapError, run_scan,
                          shift_stable_expand, coset_audit, dim_report,
                          default_workers, audit_skip_reason,
                          equation_count, _squarefree_mask,
                          _squarefree_count, _odometer, _engines_for)
from carlitz.fastrank import RankEngine, _powers
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
    # every squarefree P of the cell in odometer order, by the symbolic route;
    # also how many of those P some scale c != 1 with c^(m+n) = 1 fixes
    ctx = field_make(q)
    hist, witnesses, fixed = {}, {}, 0
    scales = [c for c in range(2, q) if pow(c, m + n, q) == 1]
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
            fixed += any(all(pow(c, n + i, q) * a % q == a
                             for i, a in enumerate(coeffs)) for c in scales)
    return hist, witnesses, fixed


@pytest.mark.parametrize("q,n", [(2, 1), (2, 2), (3, 1), (3, 2), (5, 1),
                                 (5, 2), (7, 1), (7, 2)])
def test_counts_and_witnesses_match_brute_force(q, n):
    # with p ∤ m the scan ranks one P per θ-shift orbit, and where
    # c^(m+n) = 1 has roots c != 1 (|H| = 2, 4 at q=5; 2, 3, 6 at q=7) one
    # per scale orbit, weighting rows with a stabiliser (at q=3, n=1 the odd
    # P) by their orbit's size; counts and expanded witness lists must equal
    # the full symbolic enumeration's
    m_max = {2: 9, 3: 7, 5: 4, 7: 3}[q]
    fixed = 0
    for m in range(1, m_max + 1):
        for lead in range(1, q):
            spec = ScanSpec(q=q, n=n, m=m, lead=lead, workers=1,
                            chunk_size=-(-q**m // 3), witness_cap=16)
            table = run_scan(spec)
            hist, witnesses, stabilised = _brute_cell(q, n, m, lead, 16)
            fixed += stabilised
            assert table.hist[(m, lead)] == hist, (m, lead)
            assert {r: ws for (_, _, r), ws in table.witnesses.items()} == \
                witnesses, (m, lead)
    # rows of rank >= 1 with a stabiliser occur at q = 3, 5 (at q = 7,
    # m <= 3 none has rank >= 1)
    assert (fixed > 0) == (q in (3, 5))


@pytest.mark.parametrize("q,n,m_max", [(3, 1, 18), (3, 2, 18), (5, 2, 10)])
def test_shift_stable_counts_and_witnesses_match_brute_force(q, n, m_max):
    # P = F(θ^q - θ), and P -> c^n·P(cθ) is F -> c^n·F(cS); cells with
    # c^(m+n) = 1 for some c != 1 (q=3: m+n even; q=5, n=2, m=10: |H| = 4)
    # rank one F per scale orbit.  Oracle: the symbolic ranks of every
    # squarefree P, listed in F's odometer order
    ctx = field_make(q)
    for m in range(q, m_max + 1, q):
        for lead in range(1, q):
            spec = ScanSpec(q=q, n=n, m=m, lead=lead, mode="shift-stable",
                            workers=1, chunk_size=-(-q**(m // q) // 3),
                            witness_cap=16)
            table = run_scan(spec)
            rows = [[int(c) for c in shift_stable_expand(
                list(free[::-1]) + [lead], q).coeffs]
                for free in itertools.product(range(q), repeat=m // q)]
            rows = [row for row in rows if is_squarefree(Poly(ctx, row))]
            hist, witnesses = {}, {}
            for row, r in zip(rows, analytic_ranks(rows, n, ctx).tolist()):
                if r >= 1:
                    hist[r] = hist.get(r, 0) + 1
                    ws = witnesses.setdefault(r, [])
                    if len(ws) < 16:
                        ws.append(",".join(map(str, row)))
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


_RECORD = {"chunk": 0, "payload": {"hist": {}, "witnesses": {},
                                    "scanned": 100}}
# chunk 0's real payload in the q=3 n=1 m=6 lead-2 scan below
_CHUNK0 = {"hist": {"1": 9},
           "witnesses": {"1": ["0,2,0,0,0,0,2", "1,2,0,0,0,0,2",
                               "2,2,0,0,0,0,2", "0,2,0,1,0,0,2",
                               "1,2,0,1,0,0,2", "2,2,0,1,0,0,2",
                               "0,2,0,2,0,0,2", "1,2,0,2,0,0,2",
                               "2,2,0,2,0,0,2"]},
           "scanned": 100, "picks": [[0, 0]]}


@pytest.mark.parametrize("lines", [
    [[1, 2]], [5],
    ["header", {"payload": _RECORD["payload"]}],   # no chunk
    ["header", 7], ["header", [_RECORD]],          # not an object
    ["header", {"chunk": 0}],                      # no payload
    ["header", {"chunk": 0, "payload": {"witnesses": {}, "scanned": 100}}],
    # a chunk index that is a bool (true aliases chunk 1) or outside the
    # cell's 8 chunks
    ["header", {"chunk": True, "payload": _RECORD["payload"]}],
    ["header", {"chunk": 99, "payload": _RECORD["payload"]}],
    ["header", {"chunk": -1, "payload": _RECORD["payload"]}],
    # payload fields of the wrong shape
    ["header", {**_RECORD, "payload": {**_RECORD["payload"], "hist": [1]}}],
    ["header", {**_RECORD, "payload": {**_RECORD["payload"],
                                       "hist": {"x": 1}}}],
    ["header", {**_RECORD, "payload": {**_RECORD["payload"],
                                       "hist": {"1": "2"}}}],
    ["header", {**_RECORD, "payload": {**_RECORD["payload"],
                                       "witnesses": []}}],
    ["header", {**_RECORD, "payload": {**_RECORD["payload"],
                                       "witnesses": {"1": "0,1"}}}],
    ["header", {**_RECORD, "payload": {**_RECORD["payload"],
                                       "witnesses": {"1": [[0, 1]]}}}],
    ["header", {**_RECORD, "payload": {**_RECORD["payload"],
                                       "scanned": "100"}}],
    ["header", {**_RECORD, "payload": {**_RECORD["payload"],
                                       "scanned": False}}],
    ["header", {**_RECORD, "payload": {**_RECORD["payload"], "picks": {}}}],
    ["header", {**_RECORD, "payload": {**_RECORD["payload"],
                                       "picks": None}}],
    ["header", {**_RECORD, "payload": {**_RECORD["payload"],
                                       "picks": [[5]]}}],
    ["header", {**_RECORD, "payload": {**_RECORD["payload"],
                                       "picks": [[5, "1"]]}}],
    # chunk 0's real payload with its first rank-1 witness 0,2,0,0,0,0,2
    # changed to digits outside GF(3): a row the scan never ranked
    ["header", {"chunk": 0, "payload": {
        **_CHUNK0, "witnesses": {"1": ["7,7,0,0,0,0,2",
                                       *_CHUNK0["witnesses"]["1"][1:]]}}}],
    # witnesses that are no digit row of the cell: the wrong width, a last
    # digit other than the lead, and digits written "+1", " 1" or "01"
    *(["header", {**_RECORD, "payload": {**_RECORD["payload"],
                                         "witnesses": {"1": [w]}}}]
      for w in ("1,0,2", "0,2,0,0,0,0,1", "0,+1,0,0,0,0,2", "0, 1,0,0,0,0,2",
                "0,01,0,0,0,0,2")),
    # a rank key that is not the decimal form of a rank
    ["header", {**_RECORD, "payload": {**_RECORD["payload"],
                                       "hist": {"01": 1}}}],
    # a scanned count other than the chunk's 100 rows, a pick outside it
    ["header", {**_RECORD, "payload": {**_RECORD["payload"], "scanned": 99}}],
    ["header", {**_RECORD, "payload": {**_RECORD["payload"],
                                       "picks": [[100, 0]]}}],
    # chunk 0's real payload with its hist edited: a count below 1, a rank
    # with no witness list, or both; or a witness list for a rank with no
    # count (in this off-coset cell, no payload any version wrote has any)
    *(["header", {"chunk": 0, "payload": {**_CHUNK0, "hist": hist}}]
      for hist in ({"1": -1000, "9": 5}, {"1": -1000}, {"1": 0},
                   {"1": 9, "9": 5})),
    ["header", {"chunk": 0, "payload": {
        **_CHUNK0, "witnesses": {**_CHUNK0["witnesses"],
                                 "9": ["0,2,0,0,0,0,2"]}}}],
    # chunk 0's real payload with more witnesses than its count: 9 rank-1
    # witnesses beside a count of 1
    ["header", {"chunk": 0, "payload": {**_CHUNK0, "hist": {"1": 1}}}],
    # a rank above the cell's k_min = 4 (L has U-degree <= k_min), as a
    # count with its witness or as a pick's rank; and a negative pick rank
    *(["header", {"chunk": 0, "payload": {
        **_CHUNK0, "hist": {"1": 9, r: 1},
        "witnesses": {**_CHUNK0["witnesses"], r: ["0,2,0,0,0,0,2"]}}}]
      for r in ("99", "5")),
    *(["header", {"chunk": 0, "payload": {**_CHUNK0, "picks": [[0, r]]}}]
      for r in (5, -1)),
    # more witnesses than witness_cap = 16, though no more than the count
    ["header", {"chunk": 0, "payload": {
        **_CHUNK0, "hist": {"1": 18},
        "witnesses": {"1": _CHUNK0["witnesses"]["1"] * 2}}}],
])
def test_resume_refuses_malformed_checkpoint(tmp_path, capsys, lines):
    # a complete line that is not the header or a chunk record with a whole
    # payload of the right shapes is corruption: ValueError from the library,
    # exit 2 from the CLI, and the file is left as it was
    spec = ScanSpec(q=3, n=1, m=6, lead=2, workers=1, chunk_size=100)
    ck = tmp_path / "scan.ckpt"
    header = {"fingerprint": spec.fingerprint(), "spec": {}}
    data = "".join(json.dumps(header if line == "header" else line) + "\n"
                   for line in lines)
    ck.write_text(data)
    with pytest.raises(ValueError):
        run_scan(spec, checkpoint=str(ck), resume=True)
    code = main(["scan", "--q", "3", "--n", "1", "--m", "6", "--lead", "2",
                 "--workers", "1", "--chunk-size", "100",
                 "--checkpoint", str(ck), "--resume"])
    out = capsys.readouterr()
    assert code == 2 and out.out == "" and out.err.startswith("error: ")
    assert ck.read_text() == data
    # the same line torn, without its newline, is cut and runs again
    if lines[0] == "header":
        ck.write_text(data[:-1])
        resumed = run_scan(spec, checkpoint=str(ck), resume=True)
        assert resumed.to_json_obj() == run_scan(spec).to_json_obj()


@pytest.mark.parametrize("mode,m,lead", [
    ("squarefree", 7, 1), ("squarefree", 7, 2),   # lead 2 is on the coset
    ("shift-stable", 9, 1), ("shift-stable", 9, 2)])
def test_read_payload_reads_fresh_and_checkpointed_alike(mode, m, lead):
    # a worker's payload has int rank keys, its checkpoint line decimal
    # strings; both read to int ranks and tuples of digits, and to the same
    spec = ScanSpec(q=3, n=1, m=m, lead=lead, mode=mode,
                    chunk_size=100 if mode == "squarefree" else 10)
    witnesses = 0
    for start in range(0, spec.total, spec.chunk_size):
        end = min(start + spec.chunk_size, spec.total)
        payload = scan._scan_chunk((3, 1, m, lead, mode, start, end, 16))
        read = scan._read_payload(payload, spec, start, end)
        assert read == scan._read_payload(json.loads(json.dumps(payload)),
                                          spec, start, end)
        assert all(type(r) is int for r in [*read["hist"],
                                            *read["witnesses"]])
        for rows in read["witnesses"].values():
            assert all(type(row) is tuple and len(row) == spec.free_coeffs + 1
                       for row in rows)
            witnesses += len(rows)
    assert witnesses > 0


def test_read_payload_caps_coset_witnesses():
    # on the coset the rank-1 witnesses have no count beside them, so their
    # list is capped by witness_cap alone
    spec = ScanSpec(q=3, n=1, m=7, lead=2, chunk_size=100)
    assert on_coset(3, 1, 7, 2)
    payload = scan._scan_chunk((3, 1, 7, 2, spec.mode, 0, 100, 16))
    row = payload["witnesses"][1][0]
    for size, ok in ((16, True), (17, False)):
        edited = {**payload, "witnesses": {**payload["witnesses"],
                                           1: [row] * size}}
        if ok:
            scan._read_payload(edited, spec, 0, 100)
        else:
            with pytest.raises(ValueError, match="witnesses"):
                scan._read_payload(edited, spec, 0, 100)


def test_pool_forks_at_most_one_worker_per_chunk(monkeypatch):
    # four workers asked for and three chunks: the pool forks three, and
    # the table is the one-worker scan's
    spec = ScanSpec(q=3, n=1, m=6, lead=2, workers=4, chunk_size=300)
    ctx = mp.get_context("fork")
    sizes = []
    pool = type(ctx).Pool

    def spy(self, processes=None, *args, **kwargs):
        sizes.append(processes)
        return pool(self, processes, *args, **kwargs)

    monkeypatch.setattr(type(ctx), "Pool", spy)
    table = run_scan(spec)
    assert sizes == [3]
    one = run_scan(dataclasses.replace(spec, workers=1))
    assert table.to_json_obj() == one.to_json_obj()


def test_fingerprint_unchanged():
    # checkpoint headers carry this string, so it must not move: checkpoints
    # written while the audit policy was a set of ScanSpec fields resume.
    # The cell is one no orbit reduction touches (p | m, m + n odd)
    assert ScanSpec(q=3, n=2, m=9, lead=2).fingerprint() == (
        "q3n2m9a2squarefreec8192w16r0.001ac16ak12")
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
    # the rows of φ^i for φ = θ^q - θ, and for φ = θ, where they are the
    # identity
    ctx = field_make(q)
    for base in (Poly(ctx, [0] * q + [1]) - Poly(ctx, [0, 1]),  # θ^q - θ
                 Poly(ctx, [0, 1])):
        basis = _powers(q, tuple(int(c) for c in base.coeffs), 12)
        assert basis.shape == (13, 12 * base.degree + 1)
        power = Poly.one(ctx)
        for i, row in enumerate(basis.tolist()):
            want = [int(c) for c in power.coeffs]
            assert row == want + [0] * (len(row) - len(want)), (q, i)
            power = power * base
    assert (_powers(q, (0, 1), 12) == np.eye(13, dtype=np.int64)).all()


def test_squarefree_int_helper_matches_poly(rng):
    f3 = field_make(3)
    for _ in range(300):
        m = rng.randrange(0, 9)
        coeffs = [rng.randrange(3) for _ in range(m)] + [rng.randrange(1, 3)]
        assert _squarefree_mask([coeffs], 3)[0] == is_squarefree(
            Poly(f3, coeffs))


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


@pytest.mark.parametrize("p", [3, 131])
def test_squarefree_mask_of_no_rows(p, monkeypatch):
    # zero rows return an empty mask before the divsteps set up their arrays
    def boom(*args, **kwargs):
        raise AssertionError("divsteps ran on zero rows")

    monkeypatch.setattr(np, "zeros_like", boom)
    for width in (1, 2, 9):
        got = _squarefree_mask(np.zeros((0, width), dtype=np.int64), p)
        assert got.dtype == bool and got.shape == (0,)


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


def test_dim_report_family_max_r():
    # family_max_r is the largest r the infinite-family test passes, as is
    # max_feasible_r: 1 at q = 2, where r = 2 is not feasible, q above
    for q, top in ((2, 1), (3, 3)):
        fam = dim_report(q, 2, "infinite-family")
        assert fam["family_max_r"] == fam["max_feasible_r"] == top
        assert fam["feasible"] is (top >= 2)


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
    # the engine answers one too high for three rows: the first squarefree
    # index, 1, ranked as an orbit representative (below 3^4 = 81, and the
    # least index of its orbit under the scale c = 2), the next, 2, an audit
    # pick of the same chunk that is not a representative (its image 1 under
    # c = 2 is smaller), and the first squarefree index of the second chunk,
    # past the shift representatives; the extra engine call ranks the last
    # two, and the audit must name all three with both ranks
    monkeypatch.setattr(scan, "_AUDIT_RATE", 1.0)
    monkeypatch.setattr(scan, "_AUDIT_CAP", 5)
    spec = ScanSpec(q=3, n=1, m=5, lead=lead, workers=1, chunk_size=100)
    assert spec.scales == (1, 2) and spec.representatives == 45

    def row(i):
        return [i // 3**j % 3 for j in range(5)] + [lead]

    def representative(i):
        return i < 81 and i <= sum(2**(1 + j) * d % 3 * 3**j
                                   for j, d in enumerate(row(i)[:5]))

    squarefree = [i for i in range(spec.total)
                  if _squarefree_mask([row(i)], 3)[0]]
    picks = [i for i in squarefree if i < 100][:5]
    targets = [1, 2, next(i for i in squarefree if i >= 100)]
    assert targets[:2] == picks[:2] and targets[2] < 200
    assert representative(1) and not representative(2)
    wrong = np.array([row(i) for i in targets])
    calls = []
    orders = RankEngine.vanishing_orders

    def off_by_one(self, digits):
        out = orders(self, digits)
        hit = (np.asarray(digits)[:, None] == wrong).all(axis=2).any(axis=1)
        calls.append((len(out), int(hit.sum())))
        return out + hit

    monkeypatch.setattr(RankEngine, "vanishing_orders", off_by_one)
    table = run_scan(spec)
    # chunk 0's call on its 45 representatives, then the audit's one call
    # on every pick that is not among them: chunk 0's, and the 5 picks
    # each of chunks 1 and 2
    others = sum(not representative(i) for i in picks)
    assert [c for c in calls if c[1]] == [(45, 1), (others + 10, 2)]
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
                  and _squarefree_mask(
                      [[i // 3**j % 3 for j in range(7)] + [2]], 3)[0]]
        want += min(len(picked), 7)
    table = run_scan(spec)
    assert table.audits == want > 0
    assert table.audit_failures == []


def _off_by_one_on(hit_rows):
    # RankEngine.vanishing_orders, one too high on the digit rows that
    # hit_rows marks
    orders = RankEngine.vanishing_orders

    def off_by_one(self, digits):
        return orders(self, digits) + hit_rows(np.asarray(digits))
    return off_by_one


def test_audit_independent_of_worker_count(monkeypatch):
    # audits and audit failures included, which the test above pops; the
    # wrong engine hits the third of the rows with constant coefficient 1
    monkeypatch.setattr(scan, "_AUDIT_RATE", 0.05)

    def scans():
        out = []
        for workers in (1, 2, 4):
            spec = ScanSpec(q=3, n=1, m=7, lead=2, workers=workers,
                            chunk_size=100)
            out.append(run_scan(spec).to_json_obj())
        return out

    right = scans()
    assert right[0]["audits"] > 0 and right[0]["audit_failures"] == []
    assert right[1] == right[0] and right[2] == right[0]
    monkeypatch.setattr(RankEngine, "vanishing_orders", _off_by_one_on(
        lambda d: d[:, 0] == 1))
    wrong = scans()
    assert wrong[1] == wrong[0] and wrong[2] == wrong[0]
    failures = wrong[0]["audit_failures"]
    assert failures and wrong[0]["audits"] == right[0]["audits"]
    index = [sum(int(d) * 3**j for j, d in enumerate(f["poly"].split(",")[:7]))
             for f in failures]
    assert index == sorted(index) and len(set(index)) == len(index)
    assert all(f["fast"] == f["symbolic"] + 1 for f in failures)


def test_chunk_past_ranked_rows_does_no_work(monkeypatch):
    # q=3, m=7: an orbit of 3 shifts, so only the rows below 3^6 are ranked
    calls = []
    orders, mask = RankEngine.vanishing_orders, scan._squarefree_mask

    def counted_orders(self, digits):
        calls.append("engine")
        return orders(self, digits)

    def counted_mask(rows, p):
        calls.append("squarefree")
        return mask(rows, p)

    monkeypatch.setattr(scan, "_AUDIT_RATE", 0.05)
    monkeypatch.setattr(RankEngine, "vanishing_orders", counted_orders)
    monkeypatch.setattr(scan, "_squarefree_mask", counted_mask)
    assert ScanSpec(q=3, n=1, m=7, lead=2).shift_orbit == 3
    payload = scan._scan_chunk((3, 1, 7, 2, "squarefree", 729, 829, 16))
    assert payload == {"hist": {}, "witnesses": {}, "scanned": 100,
                       "picks": []}
    assert calls == []
    # a chunk of ranked rows calls both and hands its hash hits on
    payload = scan._scan_chunk((3, 1, 7, 2, "squarefree", 0, 100, 16))
    assert "engine" in calls and "squarefree" in calls
    hits = [i for i, _ in payload["picks"]]
    assert hits and all(i * 2654435761 % 2**32 < int(0.05 * 2**32)
                        for i in hits)


def test_audit_split_into_runs_matches_one_run(monkeypatch):
    # about 5 picks per chunk of 100 at rate 0.05: runs of at most 12
    # expected picks hold two chunks each
    stacks = []

    def counted(rows, n, ctx):
        stacks.append(len(rows))
        return analytic_ranks(rows, n, ctx)

    monkeypatch.setattr(scan, "analytic_ranks", counted)
    monkeypatch.setattr(scan, "_AUDIT_RATE", 0.05)
    monkeypatch.setattr(RankEngine, "vanishing_orders", _off_by_one_on(
        lambda d: d[:, 0] == 1))
    spec = ScanSpec(q=3, n=1, m=7, lead=1, workers=1, chunk_size=100)
    one = run_scan(spec).to_json_obj()
    assert len(stacks) == 1 and stacks[0] == one["audits"] > 0
    assert one["audit_failures"]
    stacks.clear()
    monkeypatch.setattr(scan, "_AUDIT_RUN", 12)
    split = run_scan(spec).to_json_obj()
    assert split == one
    assert len(stacks) == -(-spec.total // 200) and sum(stacks) == one["audits"]


def _head_payload(spec, payload, start, end):
    # a chunk record as written before the audit left the chunks: the
    # chunk's audit count and failures, and no hash hits
    audits = 0
    if audit_skip_reason(spec.q, spec.n, spec.m) is None:
        thresh = int(scan._AUDIT_RATE * 2**32)
        hits = [i for i in range(start, end)
                if i * 2654435761 % 2**32 < thresh]
        rows = _odometer(spec.q, spec.free_coeffs, spec.lead, hits)
        audits = min(int(_squarefree_mask(rows, spec.q).sum()),
                     scan._AUDIT_CAP)
    old = {k: v for k, v in payload.items() if k != "picks"}
    old.update(audits=audits, audit_failures=[])
    return old


@pytest.mark.parametrize("q,n,m,lead", [(3, 1, 7, 2), (3, 2, 6, 1)])
def test_resume_from_checkpoint_with_chunk_audits(tmp_path, monkeypatch,
                                                   q, n, m, lead):
    # chunk records that carry their audit count and failures but no picks:
    # their audit runs again from the engine, and counts once
    monkeypatch.setattr(scan, "_AUDIT_RATE", 0.05)
    spec = ScanSpec(q=q, n=n, m=m, lead=lead, workers=1, chunk_size=100)
    fresh = run_scan(spec).to_json_obj()
    assert fresh["audits"] > 0
    ck = tmp_path / "scan.ckpt"
    run_scan(spec, checkpoint=str(ck))
    records = [json.loads(line) for line in ck.read_text().splitlines()]
    for rec in records[1:]:
        start = rec["chunk"] * spec.chunk_size
        end = min(start + spec.chunk_size, spec.total)
        rec["payload"] = _head_payload(spec, rec["payload"], start, end)
    assert sum(r["payload"]["audits"] for r in records[1:]) == \
        fresh["audits"]
    # the last two chunks run again, with the current payload
    ck.write_text("".join(json.dumps(r) + "\n" for r in records[:-2]))
    resumed = run_scan(spec, checkpoint=str(ck), resume=True)
    assert resumed.to_json_obj() == fresh
    lines = [json.loads(line) for line in ck.read_text().splitlines()]
    assert all("picks" not in r["payload"] for r in lines[1:-2])
    assert all("picks" in r["payload"] for r in lines[-2:])


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
    digits = rows = free[sf_mask]
    if spec.mode == "shift-stable":
        rows = np.array([[int(c) for c in shift_stable_expand(row, q).coeffs]
                         for row in digits.tolist()],
                        dtype=np.int64).reshape(len(rows), m + 1)
    eng = _engines_for(q, n, m, spec.mode, on_coset)
    ranks = (1 if on_coset else 0) + eng.vanishing_orders(digits)
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
        # the batched symbolic route: one call per run of chunks
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


@pytest.mark.parametrize("q,n,m,lead", [(3, 2, 9, 1), (3, 2, 9, 2),
                                        (2, 1, 10, 1)])
def test_resume_from_filter_first_checkpoint(tmp_path, q, n, m, lead):
    # checkpoints of the filter-first pipeline carry a per-chunk squarefree
    # count and, on the coset (q=2, lead 1), per-chunk rank-1 counts; in
    # cells with p | m and no scale c != 1 (c^(m+n) = 1 only for c = 1) the
    # scan ranks every row, as that pipeline did
    spec = ScanSpec(q=q, n=n, m=m, lead=lead, workers=1, chunk_size=300)
    assert spec.shift_orbit == 1 and spec.scales == (1,)
    fresh = run_scan(spec).to_json_obj()
    ck = tmp_path / "scan.ckpt"
    starts = list(range(0, spec.total, spec.chunk_size))
    records = [{"fingerprint": spec.fingerprint(), "spec": {}}]
    for i, start in enumerate(starts[:-2]):
        payload = _filter_first_chunk(
            spec, start, min(start + spec.chunk_size, spec.total), [])
        records.append({"chunk": i, "payload": payload})
    if q == 2:
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
    # (n=2: m + n is odd, so no scale c != 1 reduces the cell further)
    spec = ScanSpec(q=3, n=2, m=7, lead=lead, workers=1, chunk_size=300)
    old = f"q3n2m7a{lead}squarefreec300w16r0.001ac16ak12"
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


@pytest.mark.parametrize("mode,lead", [("squarefree", 1),
                                       ("shift-stable", 1)])
def test_resume_refuses_checkpoint_without_scale_token(tmp_path, mode, lead):
    # q=3, n=1, m=7 (m=9 shift-stable): m + n is even, so c = 2 halves the
    # ranked rows.  A checkpoint written before the scale reduction carries
    # the fingerprint without its token, and its chunks count each ranked
    # row once per shift orbit only, so it must not resume
    m = 9 if mode == "shift-stable" else 7
    spec = ScanSpec(q=3, n=1, m=m, lead=lead, mode=mode, workers=1,
                    chunk_size=10)
    old = (f"q3n1m{m}a{lead}{mode}c10w16r0.001ac16ak12"
           + ("o3" if mode == "squarefree" else ""))
    assert spec.fingerprint() == old + "h2" + (
        "dF" if mode == "shift-stable" else "")
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


@pytest.mark.parametrize("lead", [1, 2])
def test_resume_refuses_shift_stable_checkpoint_of_p_rows(tmp_path, lead):
    # q=3, n=2, m=9 shift-stable: m + n is odd, so H is trivial and no orbit
    # token applies.  Chunk witnesses were P's rows before they became F's
    # digits, so such a checkpoint must not resume; one of today's does
    spec = ScanSpec(q=3, n=2, m=9, lead=lead, mode="shift-stable",
                    workers=1, chunk_size=10)
    old = f"q3n2m9a{lead}shift-stablec10w16r0.001ac16ak12"
    assert spec.scales == (1,) and spec.fingerprint() == old + "dF"
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
    fresh = run_scan(spec, checkpoint=str(ck))
    lines = ck.read_text().splitlines()
    ck.write_text("\n".join(lines[:-1]) + "\n")
    resumed = run_scan(spec, checkpoint=str(ck), resume=True)
    assert resumed.to_json_obj() == fresh.to_json_obj()


def _representative(spec, i):
    # whether odometer index i is ranked, from the definitions alone: with
    # an orbit of q shifts it lies below q^(m-1), and no image under a scale
    # c (c^(m+n) = 1, digit j times c^(n+j)) has a smaller index
    q = spec.q
    digits = [i // q**j % q for j in range(spec.free_coeffs)]
    if spec.shift_orbit > 1 and digits[-1]:
        return False
    return all(i <= sum(pow(c, spec.n + j, q) * d % q * q**j
                        for j, d in enumerate(digits))
               for c in range(1, q) if pow(c, spec.m + spec.n, q) == 1)


@pytest.mark.parametrize("q,n,m,lead,mode,chunk", [
    (3, 1, 7, 1, "squarefree", 300), (3, 1, 7, 2, "squarefree", 300),
    (2, 2, 9, 1, "squarefree", 100), (5, 1, 4, 3, "squarefree", 100),
    (3, 1, 6, 2, "squarefree", 100), (2, 1, 8, 1, "squarefree", 100),
    (3, 1, 18, 1, "shift-stable", 10), (3, 1, 18, 2, "shift-stable", 10),
    (5, 1, 3, 4, "squarefree", 40), (5, 1, 5, 1, "squarefree", 500),
    (7, 1, 2, 3, "squarefree", 20), (7, 2, 4, 1, "squarefree", 500),
    (3, 1, 15, 1, "shift-stable", 30), (3, 1, 15, 2, "shift-stable", 30),
    (5, 1, 15, 2, "shift-stable", 30)])
def test_engine_rows_one_per_shift_orbit(monkeypatch, q, n, m, lead, mode,
                                         chunk):
    # the engine ranks the orbit representatives, in both modes, plus the
    # audit picks that are not among them; ScanSpec.representatives counts
    # the representatives in closed form
    monkeypatch.setattr(scan, "_AUDIT_RATE", 0.05)
    monkeypatch.setattr(scan, "_AUDIT_CAP", 4)
    rows = []
    orders = RankEngine.vanishing_orders

    def counted(self, digits):
        rows.append(len(digits))
        return orders(self, digits)

    monkeypatch.setattr(RankEngine, "vanishing_orders", counted)
    spec = ScanSpec(q=q, n=n, m=m, lead=lead, mode=mode, workers=1,
                    chunk_size=chunk)
    table = run_scan(spec)
    assert table.audits > 0 and table.audit_failures == []
    ctx = field_make(q)

    def squarefree(i):
        digits = [i // q**j % q for j in range(spec.free_coeffs)] + [lead]
        return is_squarefree(shift_stable_expand(digits, q)
                             if mode == "shift-stable" else Poly(ctx, digits))

    reps = [i for i in range(spec.total) if _representative(spec, i)]
    assert spec.representatives == len(reps)
    ranked = set(reps)
    thresh = int(0.05 * 2**32)
    off = 0
    for start in range(0, spec.total, chunk):
        picked = [i for i in range(start, min(start + chunk, spec.total))
                  if i * 2654435761 % 2**32 < thresh and squarefree(i)][:4]
        off += sum(i not in ranked for i in picked)
    assert sum(rows) == len(ranked) + off
    # a reduced cell's audit reaches the extra engine call
    assert (off > 0) == (len(reps) < spec.total)


@pytest.mark.parametrize("q,n,m,lead,mode,chunk", [
    (3, 1, 7, 1, "squarefree", 300), (3, 2, 7, 2, "squarefree", 300),
    (3, 1, 6, 2, "squarefree", 100), (3, 2, 6, 1, "squarefree", 100),
    (5, 1, 3, 2, "squarefree", 40), (5, 1, 5, 3, "squarefree", 500),
    (2, 1, 9, 1, "squarefree", 100), (2, 1, 8, 1, "squarefree", 100),
    (7, 1, 4, 5, "squarefree", 300),
    (3, 1, 18, 1, "shift-stable", 10), (3, 1, 15, 2, "shift-stable", 30),
    (5, 1, 15, 2, "shift-stable", 30), (5, 2, 10, 4, "shift-stable", 7)])
def test_ranked_weights_cover_the_cell(q, n, m, lead, mode, chunk):
    # over all chunks, ScanSpec.ranked keeps exactly the representatives,
    # with their digits, and its weights, rank-0 rows included, add up to
    # every polynomial of the cell: shifts and trivial or non-trivial H,
    # p | m and p ∤ m, both modes
    spec = ScanSpec(q=q, n=n, m=m, lead=lead, mode=mode, chunk_size=chunk)
    kept, total = [], 0
    for start in range(0, spec.total, chunk):
        ranked = spec.ranked(start, min(start + chunk, spec.total))
        if ranked is None:
            assert start >= spec.total // spec.shift_orbit
            continue
        digits, idxs, weight = ranked
        assert digits.tolist() == _odometer(q, spec.free_coeffs, lead,
                                            idxs).tolist()
        kept += idxs.tolist()
        total += int(weight.sum())
    assert total == spec.total
    assert kept == [i for i in range(spec.total) if _representative(spec, i)]
    assert len(kept) == spec.representatives


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


def test_engine_setup_leaves_numpy_unloaded(fresh_python):
    # the benchmark's set-up builds the engines of its scan cells, and
    # numpy's import (about 0.14 s) would swamp its setup_s (about 0.05 s):
    # the engine builds the digits' basis and its certify plan on its first
    # batched call, not at construction
    code = ("import sys; from carlitz import scan; "
            "from carlitz.fastrank import RankEngine; "
            "from carlitz.motive import on_coset; "
            "RankEngine(3, 1, 27, phi=scan._mode_phi(3, 'shift-stable')); "
            "RankEngine(3, 1, 11); "
            "[scan._engines_for(3, n, m, mode, on_coset(3, n, m, a), False) "
            "for n, m, mode in [(1, 11, 'squarefree'), "
            "(1, 27, 'shift-stable'), (2, 10, 'squarefree')] "
            "for a in (1, 2)]; "
            "print('numpy' in sys.modules)")
    assert fresh_python(code) == "False"


def test_scans_leave_numpy_ma_unloaded(fresh_python):
    # numpy.ma costs 16-33 ms on its first import (np.unique without counts
    # reaches it), which every fresh fork-pool worker would pay inside its
    # first chunk; neither scan mode nor the coset audit may load it
    code = ("import sys; "
            "from carlitz.scan import ScanSpec, run_scan, coset_audit; "
            "t = run_scan(ScanSpec(q=3, n=1, m=7, lead=2, workers=1)); "
            "u = run_scan(ScanSpec(q=3, n=1, m=18, lead=1, "
            "mode='shift-stable', workers=1)); "
            "coset_audit(3, 1, 5); "
            "print(t.audits > 0, 'numpy' in sys.modules, "
            "'numpy.ma' in sys.modules)")
    assert fresh_python(code) == "True True False"
