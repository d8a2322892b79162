import json

import pytest

from carlitz.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_lfun_trivial(capsys):
    code, out, _ = run_cli(capsys, "lfun", "--q", "3", "--n", "1", "--poly", "1")
    assert code == 0
    assert json.loads(out) == {"0": [1]}


def test_lfun_rank2_witness(capsys):
    code, out, _ = run_cli(capsys, "lfun", "--q", "3", "--n", "1",
                           "--poly", "0,2,0,2")
    assert code == 0
    assert json.loads(out) == {"0": [1], "1": [1], "2": [1]}


def test_lfun_rejects_zero(capsys):
    code, _, err = run_cli(capsys, "lfun", "--q", "3", "--n", "1", "--poly", "0")
    assert code == 2
    assert "nonzero" in err


def test_rank_values(capsys):
    code, out, _ = run_cli(capsys, "rank", "--q", "3", "--n", "1", "--poly", "1")
    assert code == 0 and out.strip() == "0"
    code, out, _ = run_cli(capsys, "rank", "--q", "3", "--n", "1",
                           "--poly", "0,2,0,2")
    assert code == 0 and out.strip() == "2"


def test_rank_of_table_witness(capsys):
    # degree-21 shift-stable twist of rank 5
    from carlitz.scan import shift_stable_expand
    from carlitz.poly import poly_to_str
    w = poly_to_str(shift_stable_expand([0, 2, 0, 1, 0, 1, 0, 1], 3))
    code, out, _ = run_cli(capsys, "rank", "--q", "3", "--n", "1", "--poly", w)
    assert code == 0 and out.strip() == "5"


def test_rank_at_scaled_point(capsys):
    # order at U = 2 of the 2P-twist equals the rank of P at U = 1
    code, out, _ = run_cli(capsys, "rank", "--q", "3", "--n", "1",
                           "--poly", "0,1,0,1", "--at", "1")
    base = out.strip()
    code2, out2, _ = run_cli(capsys, "rank", "--q", "3", "--n", "1",
                             "--poly", "0,2,0,2", "--at", "2")
    assert code == code2 == 0
    assert out2.strip() == base
    code3, _, err = run_cli(capsys, "rank", "--q", "3", "--n", "1",
                            "--poly", "0,1", "--at", "0")
    assert code3 == 2 and "nonzero" in err


def test_orbit_families(capsys):
    code, out, _ = run_cli(capsys, "orbit", "--q", "3", "--n", "1",
                           "--poly", "0,1", "--gen", "mu")
    assert code == 0
    entries = json.loads(out)
    assert [e["poly"] for e in entries] == ["0,1", "1,1", "2,1"]
    code, out, _ = run_cli(capsys, "orbit", "--q", "3", "--n", "2",
                           "--poly", "0,1", "--gen", "sigma", "--k", "1")
    assert json.loads(out) == [{"gen": "sigma(1)", "poly": "0,1", "n": 6}]


def test_verify_identity_suite(capsys):
    code, out, _ = run_cli(capsys, "verify", "--q", "3", "--suite", "identity",
                           "--cases", "6", "--seed", "7")
    assert code == 0
    assert "0 failed" in out


def test_verify_euler_suite(capsys):
    code, out, _ = run_cli(capsys, "verify", "--q", "3", "--suite", "euler",
                           "--cases", "10", "--seed", "3")
    assert code == 0
    assert "euler: 10 passed, 0 failed" in out


def test_verify_conj_restricted_to_mu(capsys):
    code, out, _ = run_cli(capsys, "verify", "--q", "3", "--suite", "conj",
                           "--cases", "4", "--seed", "5", "--gen", "mu",
                           "--window", "6")
    assert code == 0
    assert "conj: 4 passed, 0 failed" in out


def test_verify_rejects_no_cases(capsys):
    for cases in ("0", "-3"):
        code, out, err = run_cli(capsys, "verify", "--q", "3", "--cases", cases)
        assert code == 2, cases
        assert "--cases must be >= 1" in err
        assert "passed" not in out


def test_scan_csv_output(capsys, tmp_path):
    out_file = tmp_path / "t.csv"
    code, out, _ = run_cli(capsys, "scan", "--q", "3", "--n", "1", "--m", "3",
                           "--lead", "2", "--csv", "--out", str(out_file),
                           "--workers", "1")
    assert code == 0
    text = out_file.read_text()
    assert "3,2,2,3" in text
    assert text.endswith("\n")


def test_scan_json_round_trip(capsys):
    code, out, _ = run_cli(capsys, "scan", "--q", "3", "--n", "1", "--m", "4",
                           "--lead", "1", "--workers", "1")
    assert code == 0
    obj = json.loads(out)
    assert obj["cells"][0]["m"] == 4
    for w in obj["cells"][0]["witnesses"].get("1", []):
        vals = [int(x) for x in w.split(",")]
        assert all(0 <= v < 3 for v in vals) and vals[-1] == 1


def test_scan_resume(capsys, tmp_path):
    ck = tmp_path / "ck.jsonl"
    args = ["scan", "--q", "3", "--n", "1", "--m", "5", "--lead", "2",
            "--workers", "1", "--chunk-size", "50", "--checkpoint", str(ck)]
    code, out1, _ = run_cli(capsys, *args)
    assert code == 0
    code, out2, _ = run_cli(capsys, *args, "--resume")
    assert code == 0
    assert json.loads(out1.splitlines()[-1]) == json.loads(out2.splitlines()[-1])


def test_scan_resume_needs_checkpoint(capsys):
    code, out, err = run_cli(capsys, "scan", "--q", "3", "--m", "3",
                             "--lead", "1", "--resume")
    assert code == 2
    assert "--resume needs --checkpoint" in err
    assert out == ""


def test_scan_reports_skipped_audit(capsys):
    # q=2, n=1, m=12: k_min = 13 is past audit_k_cap = 12
    code, out, err = run_cli(capsys, "scan", "--q", "2", "--m", "12",
                             "--lead", "1", "--workers", "1")
    assert code == 0
    assert err.splitlines() == ["audit skipped: k_min 13 > audit_k_cap 12"]
    assert json.loads(out)["audits"] == 0
    code, out, err = run_cli(capsys, "scan", "--q", "2", "--m", "11",
                             "--lead", "1", "--workers", "1")
    assert code == 0 and err == ""
    assert json.loads(out)["audits"] > 0


def test_scan_rejects_non_prime_q(capsys):
    code, _, err = run_cli(capsys, "scan", "--q", "4", "--n", "1", "--m", "3",
                           "--lead", "1")
    assert code == 2
    assert "scans need prime q" in err


def test_coset_command(capsys):
    code, out, _ = run_cli(capsys, "coset", "--q", "3", "--n", "1",
                           "--m-max", "3")
    assert code == 0
    rep = json.loads(out)
    assert rep["violations"] == []


def test_coset_rejects_bad_sizes(capsys):
    for extra, msg in ((["--n", "0", "--m-max", "2"], "n must be >= 1"),
                       (["--n", "1", "--m-max", "-1"], "m_max must be >= 0")):
        code, _, err = run_cli(capsys, "coset", "--q", "3", *extra)
        assert code == 2, extra
        assert msg in err


def test_rank_at_takes_field_elements(capsys):
    # --at is a field element, digit-encoded like a --poly coefficient
    for at in ("3", "5", "-1"):
        code, _, err = run_cli(capsys, "rank", "--q", "3", "--poly", "0,1,0,1",
                               "--at", at)
        assert code == 2 and "nonzero field element" in err
    # over GF(9): cP vanishes at U = 1/c; 4 is not in GF(3) and 1/5 = 4
    p = "3,8,2,5,7,1,0,2"
    scaled = "8,2,7,3,6,5,0,7"  # 5P
    for poly, at, want in ((p, "1", "1"), (p, "4", "0"), (scaled, "4", "1"),
                           (scaled, "1", "0")):
        code, out, _ = run_cli(capsys, "rank", "--q", "9", "--poly", poly,
                               "--at", at)
        assert code == 0 and out.strip() == want, (poly, at)
    code, _, err = run_cli(capsys, "rank", "--q", "9", "--poly", p,
                           "--at", "9")
    assert code == 2 and "nonzero field element" in err


def test_coset_rejects_non_prime_q(capsys):
    code, _, err = run_cli(capsys, "coset", "--q", "4", "--n", "1",
                           "--m-max", "2")
    assert code == 2
    assert "coset audit needs prime q" in err


def test_scan_rejects_bad_sizes(capsys):
    base = ["scan", "--q", "3", "--n", "1", "--m", "3", "--lead", "1"]
    for extra in (["--chunk-size", "0"], ["--workers", "-1"],
                  ["--witnesses", "-1"]):
        code, _, err = run_cli(capsys, *base, *extra)
        assert code == 2, extra
        assert "error:" in err


def test_dims_command(capsys):
    code, out, _ = run_cli(capsys, "dims", "--q", "3", "--r", "3")
    assert code == 0
    assert json.loads(out)["max_feasible_r"] == 3
    code, _, err = run_cli(capsys, "dims", "--q", "3", "--r", "0")
    assert code == 2 and "r must be >= 1" in err


def test_scan_rejects_bad_clrank_workers(capsys, monkeypatch):
    monkeypatch.setenv("CLRANK_WORKERS", "x")
    code, _, err = run_cli(capsys, "scan", "--q", "3", "--n", "1", "--m", "3",
                           "--lead", "1")
    assert code == 2 and "CLRANK_WORKERS" in err


def test_lfun_output_reparses_to_equal_value(capsys):
    from carlitz import field_make, Poly, LFun, l_function, TwistedPower
    f3 = field_make(3)
    code, out, _ = run_cli(capsys, "lfun", "--q", "3", "--n", "2",
                           "--poly", "1,2,0,1")
    assert code == 0
    obj = json.loads(out)
    rebuilt = LFun(f3, [Poly(f3, obj.get(str(j), [0]))
                        for j in range(max(int(k) for k in obj) + 1)])
    assert rebuilt == l_function(TwistedPower(Poly(f3, [1, 2, 0, 1]), 2))


def test_usage_error_exit_code(capsys):
    assert main(["rank", "--q", "3", "--poly", "xx"]) == 2
    assert main(["lfun", "--q", "6", "--poly", "1"]) == 2
    assert main(["nonsense"]) == 2
