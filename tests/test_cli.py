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


def test_orbit_scalars_over_extension_fields(capsys):
    # every scalar of GF(q) in the digit encoding, not its residue mod p:
    # on θ + 1 the images are θ + 1 + d, cθ + 1 and c^-1 (θ + 1)
    for q in (4, 9):
        for gen, count in (("mu", q), ("nu", q - 1), ("tau", q - 1)):
            code, out, _ = run_cli(capsys, "orbit", "--q", str(q), "--n", "1",
                                   "--poly", "1,1", "--gen", gen)
            assert code == 0, (q, gen)
            images = {e["poly"] for e in json.loads(out)}
            assert len(images) == count, (q, gen)


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


def test_verify_euler_suite_uses_q(capsys, monkeypatch):
    import carlitz.cli as cli
    seen = []
    real = cli.truncated_product

    def spy(tp, bound):
        seen.append(tp.ctx.order)
        return real(tp, bound)

    monkeypatch.setattr(cli, "truncated_product", spy)
    code, out, _ = run_cli(capsys, "verify", "--q", "5", "--suite", "euler",
                           "--cases", "2")
    assert code == 0
    assert "euler: 2 passed, 0 failed" in out
    assert seen and set(seen) == {5}


def test_verify_over_extension_fields(capsys):
    # generator scalars range over all of GF(q), never the zero from_int
    # would give for a multiple of p
    for q in ("4", "9"):
        code, out, _ = run_cli(capsys, "verify", "--q", q, "--suite",
                               "identity", "--cases", "3", "--seed", "1")
        assert code == 0, q
        assert " 0 failed" in out


def test_verify_conj_restricted_to_mu(capsys):
    code, out, _ = run_cli(capsys, "verify", "--q", "3", "--suite", "conj",
                           "--cases", "4", "--seed", "5", "--gen", "mu",
                           "--window", "6")
    assert code == 0
    assert "conj: 4 passed, 0 failed" in out


def test_verify_rejects_unknown_generator(capsys):
    # a misspelt family used to match no generator, so the suite checked
    # nothing and passed; the names the suites use all parse
    from carlitz.cli import build_parser
    code, out, err = run_cli(capsys, "verify", "--suite", "identity",
                             "--gen", "muu")
    assert code == 2 and out == "" and "invalid choice: 'muu'" in err
    names = ["mu", "nu", "iota", "tau", "sigma", "twistmul", "theta"]
    argv = ["verify"] + [a for g in names for a in ("--gen", g)]
    assert build_parser().parse_args(argv).gen == names


def test_verify_reports_sigma_apart(capsys):
    # Sigma(1)'s stated block shape fails for every twist; it gets its own
    # line and leaves the exit code at 0
    code, out, _ = run_cli(capsys, "verify", "--q", "3", "--cases", "15",
                           "--seed", "5")
    assert code == 0
    assert "conj: 75 passed, 0 failed" in out
    assert ("conj sigma (stated block shape, known false): 0 held, "
            "13 did not") in out


def test_verify_conj_failure_exits_one(capsys, monkeypatch):
    import carlitz.cli as cli
    real = cli.verify_conjugacy

    def broken_for_mu(g, tp, window):
        return not isinstance(g, cli.Mu) and real(g, tp, window)

    monkeypatch.setattr(cli, "verify_conjugacy", broken_for_mu)
    code, out, _ = run_cli(capsys, "verify", "--q", "3", "--suite", "conj",
                           "--cases", "4", "--seed", "5")
    assert code == 1
    assert "conj: 16 passed, 4 failed" in out


def test_verify_rejects_no_cases(capsys):
    for cases in ("0", "-3"):
        code, out, err = run_cli(capsys, "verify", "--q", "3", "--cases", cases)
        assert code == 2, cases
        assert "--cases must be >= 1" in err
        assert "passed" not in out


def test_verify_rejects_empty_window(capsys, monkeypatch):
    # rejected before any suite runs, whichever suite is picked
    import carlitz.cli as cli
    monkeypatch.setattr(cli, "_verify_euler", lambda *a: pytest.fail("ran"))
    for suite in ("all", "identity"):
        code, out, err = run_cli(capsys, "verify", "--q", "3", "--suite",
                                 suite, "--window", "0")
        assert code == 2, suite
        assert "--window must be >= 1" in err
        assert out == ""


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


def test_scan_checkpoint_default_fingerprint(capsys, tmp_path):
    # without --chunk-size and --witnesses the scan runs ScanSpec's defaults,
    # so the checkpoint header has the fingerprint of the plain spec
    from carlitz.scan import ScanSpec
    ck = tmp_path / "ck.jsonl"
    code, _, _ = run_cli(capsys, "scan", "--q", "3", "--m", "4", "--lead",
                         "2", "--workers", "1", "--checkpoint", str(ck))
    assert code == 0
    header = json.loads(ck.read_text().splitlines()[0])
    assert header["fingerprint"] == ScanSpec(3, 1, 4, 2).fingerprint()


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
    assert code == 0
    assert err.splitlines() == [
        "kept 1024 of 2048 rows, one per orbit (shifts 2, scales 1)"]
    assert json.loads(out)["audits"] > 0


def test_scan_reports_shift_orbit_reduction(capsys):
    # p ∤ m and m + n even: one row kept per orbit of the 3 θ-shifts and the
    # scales c = 1, 2, said on stderr; the JSON still counts every polynomial
    code, out, err = run_cli(capsys, "scan", "--q", "3", "--m", "5",
                             "--lead", "1", "--workers", "1")
    assert code == 0
    assert err.splitlines() == [
        "kept 45 of 243 rows, one per orbit (shifts 3, scales 2)"]
    assert json.loads(out)["cells"][0]["scanned"] == 243
    # shift-stable mode with m + n even: the scales alone
    code, out, err = run_cli(capsys, "scan", "--q", "3", "--m", "9",
                             "--lead", "1", "--workers", "1", "--shift-stable")
    assert code == 0
    assert err.splitlines() == [
        "kept 15 of 27 rows, one per orbit (shifts 1, scales 2)"]
    # p | m and m + n odd, in both modes: every row is kept, nothing is said
    for extra in (["--m", "6"], ["--m", "6", "--shift-stable"]):
        code, out, err = run_cli(capsys, "scan", "--q", "3", "--lead", "1",
                                 "--workers", "1", *extra)
        assert code == 0 and err == ""


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


def test_dims_rejects_non_prime_power(capsys):
    for q in ("6", "1", "12"):
        code, out, err = run_cli(capsys, "dims", "--q", q, "--r", "2")
        assert code == 2 and out == "" and "error:" in err, q
    code, _, err = run_cli(capsys, "dims", "--q", "6", "--r", "2")
    assert "6 is not a prime power" in err
    code, out, _ = run_cli(capsys, "dims", "--q", "4", "--r", "2")
    assert code == 0 and json.loads(out)["q"] == 4


def test_orbit_rejects_bad_twist_q(capsys):
    base = ["orbit", "--q", "3", "--n", "1", "--poly", "0,1",
            "--gen", "twistmul"]
    for bad in ("0,x", "0,3", "1,,2"):
        code, out, err = run_cli(capsys, *base, "--twist-q", bad)
        assert code == 2 and out == "", bad
        assert err.startswith("error: bad --twist-q: "), bad


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
