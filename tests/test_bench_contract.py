"""The benchmark under ``perfbench/`` reaches into carlitz by name.

``perfbench/tracer.py`` patches internals by string (``_PATCHES``) and
unpacks the first seven arguments of ``scan._scan_chunk`` as
``(q, n, m, lead, mode, start, end)``.  The scan workloads call
``scan._engines_for`` with ``ScanSpec.use_batch_screen`` and read
``ScanSpec.audit_k_cap``.  Renaming, deleting or reordering one of those
breaks ``perfbench/run.py --trace 1`` and ``perfbench/selftest.py`` without
failing any other test, so these tests load the benchmark's own modules by
path and use them as it does.
"""

import importlib.util
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
