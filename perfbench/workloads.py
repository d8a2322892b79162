"""The benchmark's workloads: their inputs, set-up, one timed pass, and checks.

Three exhaustive scans (q = 3, leading coefficients 1 and 2) and one
verification grid.  Why each exists:

- ``scan-generic`` (squarefree mode, n=1, m=11, one worker): enumeration and
  the squarefree filter dominate; the rank engine does little.
- ``scan-stable`` (shift-stable mode, n=1, m=27, one worker): the
  point-evaluation engine over GF(27) dominates; the audit never runs
  because k_min = 14 exceeds ``audit_k_cap`` = 12.
- ``scan-n2-pool`` (n=2, m=10, two workers, a checkpoint file per cell): the
  only workload through the fork pool, ``imap`` ordering and the JSONL
  checkpoint writes; 3-term point weights.
- ``verify``: a fixed (q, n, m) grid, four twists per cell, each through the
  determinant, the truncated Euler product and (prime q) the point engine,
  plus one L-function identity; then ``coset_audit(3, n, 7)`` for n = 1, 2.
  The only workload that reaches the symbolic layers, the GF(4) and GF(9)
  base fields and the second enumerator.

The scans are exhaustive and take no seed.  The seed drives ``verify``: it
picks the coefficients and the generators, a fresh set for each pass; the
grid is fixed so that the totals stay steady across seeds.

Nothing here imports carlitz at module level: ``setup`` does, so that the
set-up probe times the import.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import multiprocessing as mp
import os
import random
import time
from dataclasses import dataclass, field

perf = time.perf_counter

MODULES = ("scan", "fastrank", "motive", "linalg", "euler", "symmetry", "lfun",
           "poly", "ff")


def import_carlitz() -> dict:
    return {name: importlib.import_module(f"carlitz.{name}")
            for name in MODULES}


class Checks:
    """Attempted and failed output checks, with a message per failure."""

    def __init__(self):
        self.attempted = 0
        self.failures: list = []

    def expect(self, what: str, got, want):
        self.attempted += 1
        if got != want:
            self.failures.append(f"{what}: got {got!r}, want {want!r}")


@dataclass
class PassResult:
    polys: int
    checks: Checks
    extra: dict = field(default_factory=dict)  # per-pass layer figures


def effective_workers(workload) -> int:
    """The workload's worker count, capped at the CPUs this process may use."""
    return min(workload.workers, len(os.sched_getaffinity(0)))


def _k_min(q, n, m):
    return max(1, -((m + n) // -(q - 1)))


def _on_coset(q, n, m, lead):
    return (m + n) % (q - 1) == 0 and lead == (-1) ** n % q


@dataclass(frozen=True)
class ScanWorkload:
    """One exhaustive scan per leading coefficient, checked against tallies.

    ``expected[lead][r]`` is the number of squarefree twists of rank >= r.
    """

    name: str
    mode: str
    n: int
    m: int
    workers: int
    checkpoint: bool
    expected: dict
    q: int = 3
    leads: tuple = (1, 2)
    chunk_size: int = 8192

    kind = "scan"
    sample_span = "scan.chunk"
    unit_spans = ("scan.chunk",)

    def specs(self, M):
        return [M["scan"].ScanSpec(q=self.q, n=self.n, m=self.m, lead=lead,
                                   mode=self.mode,
                                   workers=effective_workers(self),
                                   chunk_size=self.chunk_size)
                for lead in self.leads]

    def setup(self, seed, tracer=None, pool_start: bool = True) -> dict:
        """Import carlitz, build each cell's engine, screen and field tables.

        The scan is exhaustive: the seed does not change it.

        With more than one worker, also start (and stop) a fork pool of that
        size, the fixed cost every pooled ``run_scan`` pays.
        """
        M = import_carlitz()
        for spec in self.specs(M):
            M["scan"]._engines_for(
                spec.q, spec.n, spec.m, spec.mode,
                _on_coset(spec.q, spec.n, spec.m, spec.lead),
                spec.use_batch_screen)
        workers = effective_workers(self)
        if pool_start and workers > 1:
            pool = mp.get_context("fork").Pool(workers)
            pool.map(abs, range(workers))  # returns once every worker is up
            pool.close()
            pool.join()
        return {"M": M}

    def run_pass(self, state, tracer, workdir, k) -> PassResult:
        """Scan every cell once (``k``, the pass index, changes nothing)."""
        M = state["M"]
        checks = Checks()
        polys = 0
        ck_bytes = 0
        skipped = 0
        for spec in self.specs(M):
            m, lead = spec.m, spec.lead
            ck = (os.path.join(workdir, f"ck-{m}-{lead}.jsonl")
                  if self.checkpoint else None)
            with tracer.span("scan.cell", "scan", key=f"{m}/{lead}",
                             items=spec.total):
                table = M["scan"].run_scan(spec, checkpoint=ck)
            nchunks = -(-spec.total // spec.chunk_size)
            if spec.workers > 1 and nchunks > 1:  # run_scan's pool condition
                got = tracer.collect_workers()
                if got != nchunks:
                    raise RuntimeError(f"pool workers reported {got} of "
                                       f"{nchunks} chunks")
            polys += spec.total
            self._check_cell(checks, table, spec)
            if ck:
                ck_bytes += os.path.getsize(ck)
                with open(ck, encoding="utf-8") as fh:
                    records = [json.loads(line) for line in fh]
                checks.expect(f"m={m} a={lead} checkpoint records",
                              sorted(r["chunk"] for r in records[1:]),
                              list(range(nchunks)))
                os.remove(ck)
            if _k_min(spec.q, spec.n, m) > spec.audit_k_cap:
                skipped += 1
        return PassResult(polys, checks, {"scan.checkpoint_bytes": ck_bytes,
                                          "scan.audit_skipped_cells": skipped})

    def _check_cell(self, checks, table, spec):
        m, lead, q = spec.m, spec.lead, spec.q
        cell = f"m={m} a={lead}"
        for r, want in sorted(self.expected[lead].items()):
            checks.expect(f"{cell} rank>={r}", table.count(m, lead, r), want)
        checks.expect(f"{cell} audit failures", table.audit_failures, [])
        squarefree = table.squarefree.get((m, lead), 0)
        if self.mode == "squarefree" and m >= 2:
            # Carlitz: q^m - q^(m-1) squarefree polynomials with fixed lead
            checks.expect(f"{cell} squarefree", squarefree,
                          q**m - q**(m - 1))
        if _on_coset(q, spec.n, m, lead):
            checks.expect(f"{cell} coset rank>=1", table.count(m, lead, 1),
                          squarefree)


@dataclass(frozen=True)
class VerifyWorkload:
    """Each twist through three L-function routes and one identity check."""

    name: str
    qs: tuple
    ns: tuple
    ms: tuple
    twists_per_cell: int
    coset_m_max: int
    coset_ns: tuple = (1, 2)
    euler_bound: int = 3

    kind = "verify"
    sample_span = "bench.twist"
    unit_spans = ("bench.twist", "scan.coset_audit")
    workers = 1

    GENERATORS = ("mu", "nu", "iota", "tau")

    def twists(self, seed: int, k: int):
        """(q, n, m, coeffs, generator kind, generator parameter) per twist.

        Each pass draws a fresh set, so that a run's per-twist percentiles
        rest on more twists than one pass holds.  Within a cell the
        generator kinds are a seeded permutation, so every kind occurs
        equally often whatever the seed.
        """
        rng = random.Random(f"{seed}/{k}")
        out = []
        for q in self.qs:
            for n in self.ns:
                for m in self.ms:
                    kinds = []
                    while len(kinds) < self.twists_per_cell:
                        batch = list(self.GENERATORS)
                        rng.shuffle(batch)
                        kinds.extend(batch)
                    for j in range(self.twists_per_cell):
                        coeffs = ([rng.randrange(q) for _ in range(m)]
                                  + [rng.randrange(1, q)])
                        kind = kinds[j]
                        param = (rng.randrange(q) if kind == "mu"
                                 else rng.randrange(1, q))
                        out.append((q, n, m, tuple(coeffs), kind, param))
        return out

    def setup(self, seed, tracer=None, pool_start: bool = True) -> dict:
        """Import carlitz, field contexts and tables, primes, rank engines.

        Pass k then verifies ``twists(seed, k)``.
        """
        M = import_carlitz()
        ff, fastrank, euler = M["ff"], M["fastrank"], M["euler"]
        fields = {}
        engines = {}
        for q in self.qs:
            ctx = ff.field_from_cardinality(q)
            fields[q] = ctx
            if isinstance(ctx, ff.ExtField):
                with (tracer.span("ff.field_tables", "ff") if tracer
                      else contextlib.nullcontext()):
                    ctx.mul_table()
                    ctx.add_table()
                    ctx.neg_table()
                    ctx.inv_table()
            else:
                for n in self.ns:
                    for m in self.ms:
                        engines[(q, n, m)] = fastrank.RankEngine(q, n, m)
            for d in range(1, self.euler_bound + 1):
                euler.primes_of_degree(ctx, d)
        return {"M": M, "seed": seed, "fields": fields,
                "engines": engines}

    def run_pass(self, state, tracer, workdir, k) -> PassResult:
        """Verify the k-th twist set, then run the coset audits."""
        M = state["M"]
        poly, motive, euler, lfun = M["poly"], M["motive"], M["euler"], M["lfun"]
        symmetry, scan = M["symmetry"], M["scan"]
        gens = {"mu": symmetry.Mu, "nu": symmetry.Nu,
                "iota": lambda _: symmetry.Iota(None), "tau": symmetry.Tau}
        checks = Checks()
        twists = self.twists(state["seed"], k)
        for i, (q, n, m, coeffs, kind, param) in enumerate(twists):
            ctx = state["fields"][q]
            eng = state["engines"].get((q, n, m))
            where = f"q={q} n={n} P={','.join(map(str, coeffs))}"
            with tracer.span("bench.twist", "bench", key=f"twist/{i}", items=1):
                tp = motive.TwistedPower(poly.Poly(ctx, list(coeffs)), n)
                lf = motive.l_function(tp)
                bound = min(tp.k_min, self.euler_bound)
                euler_ok = (euler.truncated_product(tp, bound)
                            == lf.truncate(bound))
                if eng is not None:
                    engine_order = eng.vanishing_order(coeffs, 0)
                    det_order = lfun.lfun_order_at(lf, ctx.one)
                ident_ok = symmetry.check_l_identity(gens[kind](param), tp).ok
            checks.expect(f"{where} euler product to U^{bound}", euler_ok, True)
            if eng is not None:
                checks.expect(f"{where} engine order", engine_order, det_order)
            checks.expect(f"{where} {kind} identity", ident_ok, True)
        audited = 0
        for n in self.coset_ns:
            with tracer.span("scan.coset_audit", "scan", key=f"coset/{n}"):
                rep = scan.coset_audit(3, n, self.coset_m_max)
            audited += rep["checked"]
            checks.expect(f"coset_audit n={n} violations", rep["violations"],
                          [])
            checks.expect(f"coset_audit n={n} on-coset rank>=1",
                          rep["on_coset_rank_ge1"], rep["on_coset"])
        return PassResult(len(twists) + audited, checks,
                          {"scan.coset_audit_polys": audited})


WORKLOADS = {w.name: w for w in (
    ScanWorkload("scan-generic", "squarefree", n=1, m=11, workers=1,
                 checkpoint=False,
                 expected={1: {2: 3, 3: 0}, 2: {2: 717, 3: 0}}),
    ScanWorkload("scan-stable", "shift-stable", n=1, m=27, workers=1,
                 checkpoint=False,
                 expected={1: {1: 866, 2: 46, 3: 7, 4: 3},
                           2: {1: 13122, 2: 380, 3: 18, 4: 4}}),
    ScanWorkload("scan-n2-pool", "squarefree", n=2, m=10, workers=2,
                 checkpoint=True,
                 expected={1: {2: 21}, 2: {2: 0}}),
    VerifyWorkload("verify", qs=(2, 3, 4, 5, 9), ns=(1, 2),
                   ms=tuple(range(0, 13, 2)), twists_per_cell=4,
                   coset_m_max=7),
)}

# Seconds-scale versions of every workload for the self-test; the tallies
# are the acceptance tables' entries for these degrees.
SMOKE = {w.name: w for w in (
    ScanWorkload("scan-generic", "squarefree", n=1, m=7, workers=1,
                 checkpoint=False,
                 expected={1: {2: 0, 3: 0}, 2: {2: 33, 3: 0}}),
    ScanWorkload("scan-stable", "shift-stable", n=1, m=9, workers=1,
                 checkpoint=False,
                 expected={1: {1: 3, 2: 0}, 2: {1: 18, 2: 3, 3: 0}}),
    ScanWorkload("scan-n2-pool", "squarefree", n=2, m=8, workers=2,
                 checkpoint=True, chunk_size=2048,
                 expected={1: {2: 9}, 2: {2: 0}}),
    VerifyWorkload("verify", qs=(3, 9), ns=(1,), ms=(0, 2, 4),
                   twists_per_cell=2, coset_m_max=4),
)}
