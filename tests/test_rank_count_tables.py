import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "rank_count_tables.py"


@pytest.fixture
def tables():
    spec = importlib.util.spec_from_file_location("rank_count_tables", SCRIPT)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_skipped_audits_are_reported(tables, monkeypatch, capsys):
    # shift-stable m=27 has k_min 14 > audit_k_cap 12; m=24 has k_min 12,
    # at the cap, and m=6 has k_min 4
    monkeypatch.setitem(tables.TIERS, "tiny",
                        dict(n=1, mode="shift-stable", degrees=(6, 24, 27)))
    assert tables.main(["--tier", "tiny", "--workers", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[1].split()[-2:] == ["max", "audits"]
    cells = [(i, ln.split()) for i, ln in enumerate(lines)
             if ln.split()[:1] in (["6"], ["24"], ["27"])]
    assert [c[:2] for _, c in cells] == [["6", "1"], ["6", "2"],
                                         ["24", "1"], ["24", "2"],
                                         ["27", "1"], ["27", "2"]]
    for i, cell in cells:
        following = lines[i + 1].strip()
        if cell[0] == "27":
            assert cell[-1] == "0"
            assert following == "audit skipped: k_min 14 > audit_k_cap 12"
        else:
            assert not following.startswith("audit skipped")
        if cell[0] == "24":
            assert int(cell[-1]) > 0


def test_audit_counts_and_failure_exit(tables, monkeypatch, capsys):
    real = tables.run_scan
    seen = []

    def failing(spec):
        table = real(spec)
        seen.append(table.audits)
        table.audit_failures.append({"poly": "1,1,1,1", "fast": 0,
                                     "symbolic": 1})
        return table

    monkeypatch.setattr(tables, "run_scan", failing)
    monkeypatch.setitem(tables.TIERS, "tiny",
                        dict(n=1, mode="squarefree", degrees=(8,)))
    assert tables.main(["--tier", "tiny", "--workers", "1"]) == 1
    captured = capsys.readouterr()
    cells = [ln.split() for ln in captured.out.splitlines()
             if ln.split()[:1] == ["8"]]
    assert [int(c[-1]) for c in cells] == seen
    assert sum(seen) > 0
    assert captured.out.count("!! audit failures") == 2
    assert "audit skipped" not in captured.out
    assert "2 audit failures" in captured.err
