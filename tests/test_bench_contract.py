"""The benchmark under ``perfbench/`` reaches into carlitz by name.

``perfbench/tracer.py`` patches internals by string (``_PATCHES``) and
unpacks the first seven arguments of ``scan._scan_chunk`` as
``(q, n, m, lead, mode, start, end)``.  The scan workloads call
``scan._engines_for`` with ``ScanSpec.use_batch_screen`` and read
``ScanSpec.audit_k_cap``.  The verify workload's set-up calls
``ExtField.mul_table``, ``add_table``, ``neg_table`` and ``inv_table`` on
its extension fields.  Renaming, deleting or reordering one of those
breaks ``perfbench/run.py --trace 1`` and ``perfbench/selftest.py`` without
failing any other test, so these tests load the benchmark's own modules by
path and use them as it does.
"""

import importlib.util
import json
import pathlib
import sys

import pytest

BENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"_perfbench_{name}",
                                                  BENCH / f"{name}.py")
    mod = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = mod  # dataclasses look their module up here
    spec.loader.exec_module(mod)
    return mod


@pytest.fixture(scope="module")
def bench():
    return _load("tracer"), _load("workloads")


def test_tracer_patches_resolve(bench, tmp_path):
    tracer, workloads = bench
    M = workloads.import_carlitz()
    for mod, path, *_ in tracer._PATCHES:
        owner = M[mod]
        for part in path.split("."):
            assert hasattr(owner, part), f"carlitz.{mod}.{path}"
            owner = getattr(owner, part)
        assert callable(owner), f"carlitz.{mod}.{path}"
    before = M["scan"]._scan_chunk
    with tracer.Tracer(M, str(tmp_path)).installed(full=True):
        assert M["scan"]._scan_chunk is not before
    assert M["scan"]._scan_chunk is before


def test_scan_workload_setup(bench):
    # setup calls scan._engines_for(q, n, m, mode, on_coset,
    # spec.use_batch_screen) for every cell
    _, workloads = bench
    for w in workloads.SMOKE.values():
        if w.kind == "scan":
            assert "M" in w.setup(0, pool_start=False)


@pytest.mark.parametrize("name", ["scan-generic", "verify"])
def test_traced_smoke_pass(bench, tmp_path, name):
    tracer, workloads = bench
    w = workloads.SMOKE[name]
    state = w.setup(0, pool_start=False)
    tr = tracer.Tracer(state["M"], str(tmp_path))
    with tr.installed(full=True):
        res = w.run_pass(state, tr, str(tmp_path), 0)
    assert res.checks.attempted > 0
    assert res.checks.failures == []
    assert tr.aggs["scan.chunk" if w.kind == "scan" else "motive.l_function"][0]


def test_scan_chunk_arguments(bench, monkeypatch):
    # the tracer keys each chunk span by args[:7]; the workloads compare k_min
    # with ScanSpec.audit_k_cap to count skipped audits
    _, workloads = bench
    scan = workloads.import_carlitz()["scan"]
    seen = []
    chunk = scan._scan_chunk

    def record(args):
        seen.append(args[:7])
        return chunk(args)

    monkeypatch.setattr(scan, "_scan_chunk", record)
    spec = scan.ScanSpec(q=3, n=1, m=6, lead=2, workers=1, chunk_size=100)
    scan.run_scan(spec)
    assert seen == [(3, 1, 6, 2, "squarefree", s, min(s + 100, 3**6))
                    for s in range(0, 3**6, 100)]
    assert scan.ScanSpec.audit_k_cap == spec.audit_k_cap == 12


def test_reduced_chunks_report_their_whole_range(bench, tmp_path):
    # a scan with p ∤ m ranks only the rows below q^(m-1), yet every chunk
    # reports scanned = end - start (the tracer's items for the chunk span)
    # and writes one checkpoint record (the pool and checkpoint checks count
    # them); a chunk past the representatives tallies nothing
    _, workloads = bench
    M = workloads.import_carlitz()
    past = 0
    for w in (workloads.SMOKE["scan-n2-pool"],
              workloads.WORKLOADS["scan-n2-pool"],
              workloads.WORKLOADS["scan-generic"]):
        for spec in w.specs(M):
            assert spec.shift_orbit == spec.q
            ck = tmp_path / f"ck-{spec.m}-{spec.lead}.jsonl"
            M["scan"].run_scan(spec, checkpoint=str(ck))
            records = [json.loads(line)
                       for line in ck.read_text().splitlines()[1:]]
            starts = range(0, spec.total, spec.chunk_size)
            assert [r["chunk"] for r in records] == list(range(len(starts)))
            for start, rec in zip(starts, records):
                end = min(start + spec.chunk_size, spec.total)
                assert rec["payload"]["scanned"] == end - start
                if start >= spec.total // spec.shift_orbit:
                    assert rec["payload"]["hist"] == {}
                    past += 1
    assert past > 0


def test_ext_field_table_accessors(bench):
    # the verify set-up calls these four accessors in its field-tables span:
    # they return the lists of the field's tables up to the cap, None above
    _, workloads = bench
    ff = workloads.import_carlitz()["ff"]
    f9, f512 = ff.field_make(3, 2), ff.field_make(2, 9)
    t = f9.tables()
    assert f9.mul_table() is t.mul and f9.add_table() is t.add
    assert f9.neg_table() is t.neg and f9.inv_table() is t.inv
    assert len(t.mul) == 81 and len(t.inv) == 9
    assert f512.tables() is None
    for acc in ("mul_table", "add_table", "neg_table", "inv_table"):
        assert getattr(f512, acc)() is None
