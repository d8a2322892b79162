#!/usr/bin/env python3
"""Benchmark of the carlitz scans and verification routes.

Run from the root of a checkout (it imports ``src/carlitz`` from there):

    python3 perfbench/run.py --workload scan-generic --seed 1 --seconds 20 \
        --trace 0

Workloads are defined and explained in ``perfbench/workloads.py``.  A run
sets up once, then times whole passes of its workload while another pass
still fits in ``--seconds`` (at least one pass), checks every pass's output,
and prints a report followed by one JSON result line.

``--trace 0`` reports the end-to-end metrics (tracing off).  Times are in
seconds at a nominal machine speed, set by a reference loop sampled next to
the work (calib.py), because a host shared with other tenants can change
speed by 1.5x within seconds; the raw times are printed beside them.

- ``wall_s``: median wall time of a pass;
- ``polys_per_s``: median polynomials per second (enumerated by the scans;
  verified twists plus coset-audited polynomials for ``verify``);
- ``twist_ms_p50``/``twist_ms_p95``: per-twist time; for ``verify`` one
  sample per twist (all routes and the identity), for the scans one sample
  per chunk (chunk time / polynomials in it);
- ``setup_s``: median over five fresh interpreters of the time to import
  carlitz and build the workload's engines, screens, field tables and
  primes (plus the fork-pool start for pooled scans);
- ``peak_rss_mb``: peak resident memory of this process and its children.

Failed checks are not a metric (a metric must never read 0): they are the
result's ``failed`` out of ``attempted``, and the report's ``error_rate``.

``--trace 1`` traces the set-up, runs one pass untraced, then traces
further passes, and reports the per-layer metrics: the set-up's part plus
the mean of one traced pass, in raw seconds.  ``trace.overhead_s`` is the
traced minus the untraced pass time, both at the nominal speed.  It also prints the layer table (calls,
busy and self seconds, share of the pass wall time per module) and writes
the spans to ``perfbench-out/``.

Any failed output check makes ``correct`` false and the exit code 1.
Self-test: ``python3 perfbench/selftest.py``.
"""

from __future__ import annotations

import os

# Pin native thread pools before numpy can be imported.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402

from calib import NOMINAL_S, Calibrator, loop_time, ref_around  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import (MODULES, WORKLOADS, effective_workers,  # noqa: E402
                       import_carlitz)

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_SAMPLES = 5
OUT_DIR = "perfbench-out"

END_TO_END = {"wall_s": "s", "polys_per_s": "1/s", "twist_ms_p50": "ms",
              "twist_ms_p95": "ms", "setup_s": "s", "peak_rss_mb": "MB"}

PER_LAYER = {
    "scan.chunks": "count", "scan.chunk_s": "s", "scan.enum_self_s": "s",
    "scan.sqfree_calls": "count", "scan.sqfree_s": "s",
    "scan.sqfree_yield": "ratio", "scan.audit_calls": "count",
    "scan.audit_s": "s", "scan.audit_skipped_cells": "count",
    "scan.parallel_eff": "ratio", "scan.checkpoint_bytes": "bytes",
    "scan.coset_audit_polys": "count", "scan.coset_audit_s": "s",
    "fastrank.screen_rows": "count", "fastrank.screen_certified": "count",
    "fastrank.screen_yield": "ratio", "fastrank.screen_s": "s",
    "fastrank.engine_calls": "count", "fastrank.engine_s": "s",
    "fastrank.points": "count", "fastrank.points_per_call": "ratio",
    "fastrank.mult_at_s": "s", "fastrank.engine_setup_s": "s",
    "motive.l_function_calls": "count", "motive.l_function_s": "s",
    "linalg.det_calls": "count", "linalg.det_s": "s",
    "euler.truncated_product_s": "s", "euler.local_factor_calls": "count",
    "euler.local_factor_s": "s", "euler.residue_ctx_s": "s",
    "symmetry.check_l_identity_s": "s", "lfun.order_at_s": "s",
    "lfun.substitute_s": "s", "poly.irreducibles_s": "s",
    "ff.field_tables_s": "s",
    "trace.wall_s": "s", "trace.overhead_s": "s", "trace.covered": "ratio",
}

# per-layer metric -> (span name, field); fields: calls, busy, self, x1, x2
_FROM_AGGS = {
    "scan.chunks": ("scan.chunk", 0), "scan.chunk_s": ("scan.chunk", 1),
    "scan.enum_self_s": ("scan.chunk", 2),
    "scan.sqfree_calls": ("scan.sqfree", 0),
    "scan.sqfree_s": ("scan.sqfree", 1),
    "scan.audit_calls": ("scan.audit", 0), "scan.audit_s": ("scan.audit", 1),
    "scan.coset_audit_s": ("scan.coset_audit", 1),
    "fastrank.screen_rows": ("fastrank.screen", 3),
    "fastrank.screen_certified": ("fastrank.screen", 4),
    "fastrank.screen_s": ("fastrank.screen", 1),
    "fastrank.engine_calls": ("fastrank.engine", 0),
    "fastrank.engine_s": ("fastrank.engine", 1),
    "fastrank.points": ("fastrank.mult_at", 0),
    "fastrank.mult_at_s": ("fastrank.mult_at", 1),
    "fastrank.engine_setup_s": ("fastrank.engine_setup", 1),
    "motive.l_function_calls": ("motive.l_function", 0),
    "motive.l_function_s": ("motive.l_function", 1),
    "linalg.det_calls": ("linalg.det", 0), "linalg.det_s": ("linalg.det", 1),
    "euler.truncated_product_s": ("euler.truncated_product", 1),
    "euler.local_factor_calls": ("euler.local_factor", 0),
    "euler.local_factor_s": ("euler.local_factor", 1),
    "euler.residue_ctx_s": ("euler.residue_ctx", 1),
    "symmetry.check_l_identity_s": ("symmetry.check_l_identity", 1),
    "lfun.order_at_s": ("lfun.order_at", 1),
    "lfun.substitute_s": ("lfun.substitute", 1),
    "poly.irreducibles_s": ("poly.irreducibles", 1),
    "ff.field_tables_s": ("ff.field_tables", 1),
}


class EnvironmentProblem(RuntimeError):
    """The checkout cannot run the benchmark (no source tree, bad import)."""


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def source_dir() -> str:
    src = os.path.join(os.getcwd(), "src")
    if not os.path.isfile(os.path.join(src, "carlitz", "__init__.py")):
        raise EnvironmentProblem(
            "src/carlitz not found: run from the root of a carlitz checkout")
    return src


def import_checked(src: str) -> dict:
    if src not in sys.path:
        sys.path.insert(0, src)
    M = import_carlitz()
    got = os.path.realpath(os.path.dirname(M["scan"].__file__))
    if got != os.path.realpath(os.path.join(src, "carlitz")):
        raise EnvironmentProblem(f"carlitz imported from {got}, not {src}")
    return M


# -- measurement ----------------------------------------------------------

def setup_probe(name: str, seed: int, smoke: bool, src: str):
    """(set-up seconds, reference-loop seconds) from a fresh interpreter."""
    cmd = [sys.executable, os.path.join(HERE, "probe.py"), name, str(seed)]
    if smoke:
        cmd.append("--smoke")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(cmd, capture_output=True, text=True, env=env,
                         timeout=120)
    if out.returncode:
        raise RuntimeError(f"set-up probe failed:\n{out.stderr}")
    got = json.loads(out.stdout.strip().splitlines()[-1])
    return got["setup_s"], got["ref_s"]


def measure(workload, state, tracer, workdir, seconds, calib):
    """Whole passes while another one fits in ``seconds``; at least one.

    Each pass is bracketed by reference-loop samples (see calib.py); the
    time those and any samples taken during the pass cost is not counted in
    the pass's wall time.  ``wall_ref`` and ``samples`` are scaled to the
    nominal reference speed.
    """
    passes = []
    t_start = time.perf_counter()
    calib.sample()
    while True:
        first_span = len(tracer.spans)
        first_ref = len(calib.samples) - 1
        spent = calib.spent
        tracer.worker_refs.clear()
        t0 = time.perf_counter()
        res = workload.run_pass(state, tracer, workdir, len(passes))
        wall = time.perf_counter() - t0 - (calib.spent - spent)
        calib.sample()
        worker_refs = {proc: ([r[0] for r in refs], [r[1] for r in refs])
                       for proc, refs in tracer.worker_refs.items() if refs}
        workers = max(1, len(worker_refs))
        wall -= sum(r[2] for refs in tracer.worker_refs.values()
                    for r in refs) / workers
        in_units = wall_ref = pool_raw = pool_ref = 0.0
        samples = []
        for s in tracer.spans[first_span:]:
            name, t0s, t1s, items, proc = s[2], s[3], s[4], s[6], s[7]
            if (name != workload.sample_span
                    and name not in workload.unit_spans):
                continue
            if proc == "main":
                scale = NOMINAL_S / calib.ref_around(t0s, t1s)
            elif proc in worker_refs:
                scale = NOMINAL_S / ref_around(*worker_refs[proc], t0s, t1s)
                pool_raw += t1s - t0s
                pool_ref += (t1s - t0s) * scale
            else:
                scale = 1.0  # traced runs sample no reference in workers
            if proc == "main" and name in workload.unit_spans:
                in_units += t1s - t0s
                wall_ref += (t1s - t0s) * scale
            if name == workload.sample_span:
                samples.append((t1s - t0s) * 1000.0 / items * scale)
        wall_ref += (wall - in_units) * (pool_ref / pool_raw if pool_raw
                                         else 1.0)
        passes.append({"wall": wall, "wall_ref": wall_ref, "result": res,
                       "ref": statistics.median(calib.samples[first_ref:]),
                       "samples": samples})
        if time.perf_counter() - t_start + wall > seconds:
            return passes


def timed_passes(workload, state, tracer, workdir, seconds, full):
    """``measure`` with the tracer at the given level and fresh calibration.

    Fully traced passes sample the reference loop only around the pass:
    samples taken inside cell spans would count in the layers' time.
    """
    calib = Calibrator()
    with tracer.installed(full):
        if not full:
            tracer.unit_hook = calib.tick
            tracer.worker_ref = loop_time
        return measure(workload, state, tracer, workdir, seconds, calib)


def quantile(values, pct):
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def peak_rss_mb() -> float:
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(self_kb, child_kb) / 1024.0


def end_to_end(passes, setup_samples):
    """Times in seconds at the nominal reference speed (see calib.py)."""
    walls = [p["wall_ref"] for p in passes]
    samples = [x for p in passes for x in p["samples"]]
    return {
        "wall_s": statistics.median(walls),
        "polys_per_s": statistics.median(p["result"].polys / w
                                         for p, w in zip(passes, walls)),
        "twist_ms_p50": quantile(samples, 50),
        "twist_ms_p95": quantile(samples, 95),
        "setup_s": statistics.median(raw * NOMINAL_S / ref
                                     for raw, ref in setup_samples),
        "peak_rss_mb": peak_rss_mb(),
    }


def _diff(after, before):
    out = {}
    for part in ("aggs", "layers", "worker_layers"):
        out[part] = {}
        for k, v in after[part].items():
            b = before[part].get(k, [0] * len(v))
            out[part][k] = [x - y for x, y in zip(v, b)]
    return out


def per_layer(workload, setup_d, pass_d, passes, untraced_wall_ref):
    """Set-up part plus the mean of one traced pass, per metric.

    Seconds are raw, except ``trace.overhead_s``: the median traced pass
    minus the untraced pass, both at the nominal reference speed, so that
    the host's swings in speed do not swamp it.
    """
    npass = len(passes)

    def agg(name, i):
        s = setup_d["aggs"].get(name)
        p = pass_d["aggs"].get(name)
        return (s[i] if s else 0) + (p[i] / npass if p else 0)

    out = {k: agg(*v) for k, v in _FROM_AGGS.items()}
    extra = {}
    for p in passes:
        for k, v in p["result"].extra.items():
            extra[k] = extra.get(k, 0) + v / npass
    out.update({"scan.checkpoint_bytes": 0, "scan.audit_skipped_cells": 0,
                "scan.coset_audit_polys": 0})
    out.update(extra)

    def ratio(a, b):
        return a / b if b else 0.0

    out["scan.sqfree_yield"] = ratio(agg("scan.sqfree", 3),
                                     out["scan.sqfree_calls"])
    out["fastrank.screen_yield"] = ratio(out["fastrank.screen_certified"],
                                         out["fastrank.screen_rows"])
    out["fastrank.points_per_call"] = ratio(out["fastrank.points"],
                                            out["fastrank.engine_calls"])
    cell_wall = agg("scan.cell", 1)
    out["scan.parallel_eff"] = ratio(out["scan.chunk_s"],
                                     cell_wall * effective_workers(workload))
    out["trace.wall_s"] = statistics.median(p["wall"] for p in passes)
    out["trace.overhead_s"] = (statistics.median(p["wall_ref"] for p in passes)
                               - untraced_wall_ref)
    covered = sum(v[3] for k, v in pass_d["layers"].items() if k in MODULES)
    out["trace.covered"] = ratio(covered, sum(p["wall"] for p in passes))
    return out


def layer_table(pass_d, passes):
    """Rows (process, layer, calls, busy_s, self_s, share of wall), one pass.

    Pool workers run beside the main process, whose cell spans then mostly
    wait; their rows are listed apart so that each process's shares add up.
    """
    npass = len(passes)
    wall = sum(p["wall"] for p in passes) / npass
    rows = []
    for proc, part in (("main", "layers"), ("workers", "worker_layers")):
        if not any(v[1] for v in pass_d[part].values()):
            continue
        for layer in MODULES + ("bench",):
            _, calls, busy, self_s = [x / npass for x in
                                      pass_d[part].get(layer, [0, 0, 0, 0])]
            if calls:
                rows.append((proc, layer, calls, busy, self_s, self_s / wall))
    main_self = sum(r[4] for r in rows if r[0] == "main")
    rows.append(("main", "(no span)", 0, 0.0, wall - main_self,
                 (wall - main_self) / wall))
    return rows


def hottest(pass_d, npass, top=6):
    items = [(v[2] / npass, k) for k, v in pass_d["aggs"].items() if v[0]]
    return sorted(items, reverse=True)[:top]


# -- provenance -----------------------------------------------------------

def provenance(workload, src):
    import numpy
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    git_sha = None
    root = os.getcwd()
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
            text=True, timeout=10,
            env=dict(os.environ,
                     GIT_CEILING_DIRECTORIES=os.path.dirname(root)))
        if out.returncode == 0:
            git_sha = out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    pkg = os.path.join(src, "carlitz")
    for fname in sorted(os.listdir(pkg)):
        if fname.endswith(".py"):
            with open(os.path.join(pkg, fname), "rb") as fh:
                digest.update(fname.encode() + b"\0" + fh.read())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": git_sha,
        "src_sha256": digest.hexdigest(),
        "threads": {v: os.environ[v] for v in THREAD_VARS},
        "workers": effective_workers(workload),
        "engines_at_first_timed_pass": (
            "warm: set-up fills scan._ENGINES before any pass"
            if workload.kind == "scan" else
            "n/a: verify keeps its own engines, built in set-up"),
    }


# -- one run --------------------------------------------------------------

def run(workload, seed, seconds, trace, smoke=False):
    """One benchmark run; returns (result dict, report dict)."""
    src = source_dir()
    report = {"workload": workload.name, "seed": seed, "seconds": seconds,
              "trace": trace}
    setup_samples = []
    if not trace:
        setup_samples = [setup_probe(workload.name, seed, smoke, src)
                         for _ in range(SETUP_SAMPLES)]
    M = import_checked(src)
    report["provenance"] = provenance(workload, src)
    with tempfile.TemporaryDirectory(prefix=".perfbench-tmp-",
                                     dir=os.getcwd()) as workdir:
        tracer = Tracer(M, workdir)
        if not trace:
            state = workload.setup(seed, pool_start=False)
            passes = timed_passes(workload, state, tracer, workdir, seconds,
                                  full=False)
            metrics = end_to_end(passes, setup_samples)
            report["setup_samples"] = setup_samples
        else:
            with tracer.installed(full=True):
                s0 = tracer.snapshot()
                state = workload.setup(seed, tracer, pool_start=False)
                setup_d = _diff(tracer.snapshot(), s0)
            untraced = timed_passes(workload, state, tracer, workdir, 0,
                                    full=False)
            s2 = tracer.snapshot()
            traced = timed_passes(workload, state, tracer, workdir,
                                  max(0, seconds - untraced[0]["wall"]),
                                  full=True)
            pass_d = _diff(tracer.snapshot(), s2)
            passes = untraced + traced
            metrics = per_layer(workload, setup_d, pass_d, traced,
                                untraced[0]["wall_ref"])
            report["layer_table"] = layer_table(pass_d, traced)
            report["hottest_self_s"] = hottest(pass_d, len(traced))
            report["spans"] = tracer.spans
    attempted = sum(p["result"].checks.attempted for p in passes)
    failures = [f for p in passes for f in p["result"].checks.failures]
    report["passes"] = [{"wall_s": p["wall"], "ref_s": p["ref"],
                         "polys": p["result"].polys,
                         "samples": len(p["samples"])} for p in passes]
    report["error_rate"] = len(failures) / attempted
    report["failures"] = failures
    units = PER_LAYER if trace else END_TO_END
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    return result, report


def print_report(result, report):
    def say(line=""):
        print(f"# {line}")

    say(f"workload {report['workload']} seed {report['seed']} "
        f"trace {report['trace']}")
    say(f"provenance {json.dumps(report['provenance'], sort_keys=True)}")
    walls = ", ".join(f"{p['wall_s']:.3f}" for p in report["passes"])
    refs = ", ".join(f"{p['ref_s'] * 1000:.2f}" for p in report["passes"])
    say(f"passes: {len(report['passes'])} (raw wall s: {walls}; "
        f"reference loop ms: {refs}; nominal {NOMINAL_S * 1000:g})")
    if report.get("setup_samples"):
        say("set-up probes (raw s, reference loop ms): " + ", ".join(
            f"{raw:.3f}/{ref * 1000:.2f}" for raw, ref in report["setup_samples"]))
    say(f"checks: {result['attempted']} attempted, {result['failed']} failed, "
        f"error_rate {report['error_rate']:.4g}")
    for f in report["failures"][:20]:
        say(f"FAILED {f}")
    for name, m in result["metrics"].items():
        say(f"{name:30s} {m['value']:.6g} {m['unit']}")
    if "layer_table" in report:
        say()
        say("layer table, one traced pass:")
        say(f"{'process':8s} {'layer':10s} {'calls':>10s} {'busy_s':>9s} "
            f"{'self_s':>9s} {'share':>7s}")
        for proc, layer, calls, busy, self_s, share in report["layer_table"]:
            say(f"{proc:8s} {layer:10s} {calls:10.0f} {busy:9.3f} "
                f"{self_s:9.3f} {share:7.1%}")
        say(f"covered by module spans: "
            f"{result['metrics']['trace.covered']['value']:.1%}; "
            f"tracing overhead "
            f"{result['metrics']['trace.overhead_s']['value']:+.3f} s")
        say("largest self times: " + ", ".join(
            f"{name} {s:.3f} s" for s, name in report["hottest_self_s"]))


def write_report(result, report):
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"{report['workload']}-seed{report['seed']}"
                                 f"-trace{report['trace']}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"result": result, "report": report}, fh)


def main(argv=None, table=None, smoke=False) -> int:
    args = parse_args(argv)
    table = WORKLOADS if table is None else table
    try:
        result, report = run(table[args.workload], args.seed, args.seconds,
                             args.trace, smoke=smoke)
    except EnvironmentProblem as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print_report(result, report)
    if not smoke:
        write_report(result, report)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
