"""Exhaustive rank tallies over twist-polynomial coefficient space.

A scan fixes (q, n, degree m, leading coefficient a) and walks every
squarefree P with those parameters (optionally restricted to shift-stable P,
i.e. polynomials in θ^q - θ), tallying how many have analytic rank >= r and
keeping a bounded list of witnesses per exact rank.

Enumeration is a little-endian odometer over the free digits: index c maps
to digits (c % q, (c//q) % q, ...), the leading coefficient appended.  The
digits are G's coefficients in P = G(φ(θ)), and one map gives a mode its φ
(``_mode_phi``): θ in squarefree mode, where the digits are P's
coefficients, and θ^q - θ in shift-stable mode.  The rank engine takes φ,
which fixes its point rule and the basis that maps digits to P's rows
(``RankEngine.rows``; see fastrank).  ``ScanSpec`` reads the digit width,
the q | m check, the θ-shift cut and the fingerprint's ``dF`` token off
deg φ, and a chunk does not branch on the mode.  Work is split into
fixed-size chunks merged in chunk order, so the result is identical for any
worker count.  Long scans can checkpoint per-chunk tallies to a JSONL file
and resume.  Every payload, fresh from a worker or from a checkpoint of any
version, reaches the merge through one reader (``_read_payload``), which
refuses a payload that is not a chunk of its cell.

Scans need prime q: coefficient rows and the shift-stable expansion are
computed mod q as integers, and the rank engine works over GF(q) = Z/q.

The number of squarefree P needs no enumeration: with a fixed leading
coefficient it is q^m - q^(m-1) for m >= 2 and q^m for m <= 1 (Carlitz,
"The arithmetic of polynomials in a Galois field", 1932), and ``run_scan``
sets each cell's ``squarefree`` from it.  In shift-stable mode the formula
counts G at degree m/q: P' = -G'(θ^q - θ), so gcd(P, P') = 1 exactly when
gcd(G, G') = 1.

Scans rank one row per orbit of P -> c^n·P(cθ + d), which keeps the analytic
rank (``Mu`` and ``Tau(c^-n)∘Nu(c)``, see symmetry), the degree and
squarefreeness; ``ScanSpec`` owns this reduction.  The shift d moves a_(m-1)
to a_(m-1) + m·d·a_m, so in generic scans with p ∤ m each orbit of q shifts
has exactly one member with a_(m-1) = 0, at an odometer index below q^(m-1)
and below every other P's: only those rows are ranked (``shift_orbit`` = q;
a chunk past them ranks nothing, but keeps its bounds and its ``scanned``
count).  Cells with deg φ > 1 or p | m get no shift cut.  The scale c
multiplies a_i by c^(n+i) and so sends cell (m, a) to (m, a·c^(m+n)):
H = {c : c^(m+n) = 1}, of order gcd(m+n, q-1), maps each cell onto itself
(``scales``).  It multiplies digit i by c^(n+i) in both modes (φ(cθ) = c·φ
for both φ), which keeps the lead and a_(m-1) = 0.  A row is ranked iff
no H-image has a smaller index, and counts shift_orbit·|H|/|Stab(row)| times
(``ranked``; Burnside weights, and the odd P at q=3, n=1 have |Stab| = 2).
Witnesses stay the engine's digit rows, in payloads and checkpoints, until
``run_scan`` writes P's rows (``RankEngine.rows``), and come out as the full
enumeration's: a P among the first ``witness_cap`` of its rank has its
representative, of no larger index, among the first ``witness_cap``
representatives, so each list becomes the first ``witness_cap`` of its
H-images in odometer order (reversed digits, in both modes); a list still
short then holds every row of its rank with a_(m-1) = 0, and their q shifts
P(θ + d) give the rest.

The squarefree test is one numpy kernel (``_squarefree_mask``) on the free
digits, since P is squarefree iff G is.  Scans rank first and test
squarefreeness last, in both modes: the engine ranks every representative
of the chunk, and the kernel runs only on the rows that a tally, a witness
or the audit reads.  Those are the rows of rank above the base (1 on the
distinguished coset, 0 off it), on the coset a prefix of the rank-1 rows
long enough for the witnesses, and, in the audit stage, the hash
candidates.  On the coset every squarefree P has rank >= 1, so the rank-1
count is the closed form minus the counts of rank >= 2.

Ranks come from the point-evaluation engine (exact; fastrank describes its
certify and count phases and its points), one batched call per chunk on the
free digits of the ranked rows; the engine computes P's rows only for its
groups' heads and the few rows it counts.  On the distinguished coset
(m ≡ -n mod q-1, a_m = (-1)^n) the rank is computed as 1 + the vanishing
order of the leading principal block's determinant, which restores the
early exit that the forced (1-U) factor would otherwise deny.

A deterministic 1-in-1000 subsample (index hash, capped per chunk) is
audited against the full division-free determinant, a second route that
does not touch the engine: ``motive.analytic_ranks`` takes the picks as one
stack of k_min x k_min matrices through one Berkowitz call and reads each
order at U = 1 from the Hasse derivatives of its L-function.  The audit is
a stage of its own after the chunk loop (``_audit_chunks``), in the pool
when the scan has one: a chunk hands on only its hash hits among the
ranked rows with their ranks, so a chunk past the ranked rows does no work
at all.  The stage takes the chunks in runs of about ``_AUDIT_RUN`` picks.
Per run it hashes each chunk's index range, tests the hits for
squarefreeness in one kernel call and keeps each chunk's first
``_AUDIT_CAP`` squarefree hits.  So the picks are the same with or without
the orbit reduction, and for any run size.  A pick that is not a ranked
representative gets its rank from one engine call per run, and every pick
its determinant from one Berkowitz stack per run.
The audit is skipped when the stable matrix size k_min = max(1,
floor((m+n)/(q-1))) exceeds ``_AUDIT_K_CAP`` (``audit_skip_reason``; at q = 3,
n = 1 the shift-stable m = 24 has k_min 12 and is audited, m = 27 is not);
``carlitz scan`` and ``scripts/rank_count_tables.py`` say so.

The exhaustive coset audit (``coset_audit``) runs on the same chunk pipeline,
the odometer and one batched engine call per block, but always with the
full-size matrix and never the reduced block: the reduced block assumes the
forced (1-U) factor that the audit exists to check.
"""

from __future__ import annotations

import contextlib
import json
import multiprocessing as mp
import os
from dataclasses import dataclass, field, asdict
from functools import lru_cache
from typing import ClassVar

from .ff import check_int, field_from_cardinality, field_make, is_prime
from .fastrank import RankEngine, _powers
from .motive import analytic_ranks, on_coset, reduced_block_size, stable_size
# analytic_rank is unused here; the benchmark's tracer patches it (item 2)
from .motive import analytic_rank  # noqa: F401
from .poly import Poly

__all__ = [
    "ScanSpec", "RankTable", "ScanCapError", "run_scan",
    "shift_stable_expand", "coset_audit", "dim_report", "default_workers",
    "audit_skip_reason",
]

_AUDIT_MIX = 2654435761  # Knuth multiplicative hash
# the symbolic audit's share of rows, its picks per chunk and its k_min cap
_AUDIT_RATE = 1e-3
_AUDIT_CAP = 16
_AUDIT_K_CAP = 12
# picks per audit run: run_scan audits a cell's chunks in runs of about this
# many picks, one engine call and one determinant stack each
_AUDIT_RUN = 1024
# odometer rows per scan chunk (the default) and per coset-audit block
_CHUNK = 8192
# largest enumeration a scan runs without force=True
_SCAN_CAP = 3**16


def _mode_phi(q, mode):
    """φ for a scan mode, little-endian: the digits are G's coefficients in
    P = G(φ(θ)), with φ = θ, or θ^q - θ in shift-stable mode."""
    return ((0, q - 1) + (0,) * (q - 2) + (1,) if mode == "shift-stable"
            else (0, 1))


class ScanCapError(RuntimeError):
    """Enumeration larger than the scan cap (pass force=True)."""


def default_workers() -> int:
    env = os.environ.get("CLRANK_WORKERS")
    if env:
        try:
            workers = int(env)
        except ValueError:
            workers = 0  # rejected below, like any value < 1
        if workers < 1:
            raise ValueError(
                f"CLRANK_WORKERS must be an integer >= 1, got {env!r}")
        return workers
    if hasattr(os, "sched_getaffinity"):  # the CPUs this process may use
        return len(os.sched_getaffinity(0))
    return max(1, os.cpu_count() or 1)


@dataclass(frozen=True)
class ScanSpec:
    q: int
    n: int
    m: int
    lead: int
    mode: str = "squarefree"  # "squarefree" | "shift-stable"
    workers: int = 0          # 0 = default_workers()
    chunk_size: int = _CHUNK
    force: bool = False
    # read by the benchmark only, until ROADMAP item 2 (scans have no screen)
    use_batch_screen: ClassVar[bool] = False
    audit_k_cap: ClassVar[int] = _AUDIT_K_CAP  # alias, as above
    witness_cap: int = 16

    def __post_init__(self):
        check_int(self.q, 0, "q")  # an int; is_prime refuses the rest
        if not is_prime(self.q):
            raise ValueError("scans need prime q")
        check_int(self.n, 1, "n")
        check_int(self.m, 1, "degree")
        check_int(self.lead, 1, "leading coefficient", self.q)
        if self.mode not in ("squarefree", "shift-stable"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.m % self._deg:
            raise ValueError(f"{self.mode} scans need deg φ = {self._deg} | m")
        check_int(self.chunk_size, 1, "chunk size")
        check_int(self.workers, 0, "worker count")
        check_int(self.witness_cap, 0, "witness cap")

    @property
    def _deg(self) -> int:
        return len(_mode_phi(self.q, self.mode)) - 1

    @property
    def free_coeffs(self) -> int:
        return self.m // self._deg

    @property
    def total(self) -> int:
        return self.q**self.free_coeffs

    @property
    def shift_orbit(self) -> int:
        """Polynomials counted per ranked row: q when the scan ranks one P
        per θ-shift orbit (deg φ = 1, p ∤ m), else 1."""
        return self.q if self._deg == 1 and self.m % self.q else 1

    @property
    def scales(self) -> tuple:
        """The scale group H = {c : c^(m+n) = 1} of GF(q)*, 1 first: the c
        for which P -> c^n·P(cθ) maps the cell onto itself (module doc)."""
        return tuple(c for c in range(1, self.q)
                     if pow(c, self.m + self.n, self.q) == 1)

    @property
    def _factors(self) -> list:
        # H on digit rows: digit i times c^(n+i), the lead fixed (module doc)
        return [[pow(c, self.n + i, self.q)
                 for i in range(self.free_coeffs + 1)] for c in self.scales]

    @property
    def representatives(self) -> int:
        """Rows the engine ranks, one per orbit, in both modes:
        (1/|H|)·Σ_c q^(#ranked digits c fixes)."""
        digits = self.free_coeffs - (self.shift_orbit > 1)
        return sum(self.q ** fs[:digits].count(1)
                   for fs in self._factors) // len(self.scales)

    @property
    def reduction(self) -> str:
        """The orbit reduction in words, as ``carlitz scan`` reports it."""
        return (f"kept {self.representatives} of {self.total} rows, one per "
                f"orbit (shifts {self.shift_orbit}, "
                f"scales {len(self.scales)})")

    def ranked(self, start: int, end: int):
        """Digits, odometer indices and weights of the rows of start..end-1
        that the scan ranks; None, before numpy's import, if there are none."""
        stop = min(end, self.total // self.shift_orbit)
        if stop <= start:
            return None
        import numpy as np

        q, factors = self.q, self._factors
        digits = _odometer(q, self.free_coeffs, self.lead, start, stop)
        idxs = np.arange(start, stop, dtype=np.int64)
        least = np.zeros(len(idxs), dtype=np.int64)  # image index - index
        stab = np.ones(len(idxs), dtype=np.int64)
        for fs in factors[1:]:
            diff = np.zeros(len(idxs), dtype=np.int64)
            for i, f in enumerate(fs):
                if f != 1:
                    diff += (digits[:, i] * f % q - digits[:, i]) * q**i
            least = np.minimum(least, diff)
            stab += diff == 0
        weight = len(factors) // stab
        if len(factors) > 1:  # with H trivial every row is kept, uncopied
            keep = least >= 0
            digits, idxs, weight = digits[keep], idxs[keep], weight[keep]
        return digits, idxs, weight * self.shift_orbit

    def expand_witnesses(self, rows) -> list:
        """The full enumeration's first ``witness_cap`` digit rows of a rank
        from the ranked rows' (module doc)."""
        q, factors = self.q, self._factors
        rows = {tuple(x * f % q for x, f in zip(row, fs))
                for row in rows for fs in factors}
        if self.shift_orbit > 1 and len(rows) < self.witness_cap:
            # squarefree mode, where the digits are P's coefficients
            ctx = field_make(q)
            rows = [tuple(Poly(ctx, row).compose(Poly(ctx, (d, 1))).coeffs)
                    for row in rows for d in range(q)]  # P(θ + d)
        return sorted(rows, key=lambda row: row[::-1])[:self.witness_cap]

    def fingerprint(self) -> str:
        # the orbit tokens keep checkpoints of scans that ranked more rows,
        # and counted each fewer times, from resuming a reduced scan; "dF"
        # marks chunk witnesses as G's digits (deg φ > 1), not P's rows
        orbit = f"o{self.shift_orbit}" if self.shift_orbit > 1 else ""
        if len(self.scales) > 1:
            orbit += f"h{len(self.scales)}"
        if self._deg > 1:
            orbit += "dF"
        return (f"q{self.q}n{self.n}m{self.m}a{self.lead}"
                f"{self.mode}c{self.chunk_size}w{self.witness_cap}"
                f"r{_AUDIT_RATE}ac{_AUDIT_CAP}ak{_AUDIT_K_CAP}{orbit}")


@dataclass
class RankTable:
    """Cumulative tallies count(m, a, r) = #{squarefree P : rank >= r}."""

    q: int
    n: int
    mode: str
    hist: dict = field(default_factory=dict)        # (m, a) -> {rank: count}
    witnesses: dict = field(default_factory=dict)   # (m, a, rank) -> [str]
    scanned: dict = field(default_factory=dict)     # (m, a) -> enumerated
    squarefree: dict = field(default_factory=dict)  # (m, a) -> squarefree
    audits: int = 0
    audit_failures: list = field(default_factory=list)

    def count(self, m: int, a: int, r: int) -> int:
        h = self.hist.get((m, a), {})
        return sum(c for rank, c in h.items() if rank >= r)

    def max_rank(self, m: int | None = None, a: int | None = None) -> int:
        best = 0
        for (mm, aa), h in self.hist.items():
            if (m is None or mm == m) and (a is None or aa == a):
                best = max(best, max(h, default=0))
        return best

    def to_csv(self) -> str:
        lines = ["m,a,r,count"]
        for (m, a) in sorted(self.hist):
            for r in self._report_ranks(m, a):
                lines.append(f"{m},{a},{r},{self.count(m, a, r)}")
        return "\n".join(lines) + "\n"

    def _report_ranks(self, m, a):
        top = max(self.hist.get((m, a), {0: 0}), default=0)
        return range(1, max(top, 1) + 1)

    def to_json_obj(self) -> dict:
        return {
            "q": self.q, "n": self.n, "mode": self.mode,
            "cells": [
                {"m": m, "a": a,
                 "scanned": self.scanned.get((m, a), 0),
                 "squarefree": self.squarefree.get((m, a), 0),
                 "counts": {str(r): self.count(m, a, r)
                            for r in self._report_ranks(m, a)},
                 "rank_histogram": {str(r): c
                                    for r, c in sorted(self.hist[(m, a)].items())},
                 "witnesses": {str(r): list(self.witnesses.get((m, a, r), []))
                               for r in sorted({rr for (mm, aa, rr)
                                                in self.witnesses
                                                if (mm, aa) == (m, a)})}}
                for (m, a) in sorted(self.hist)],
            "audits": self.audits,
            "audit_failures": self.audit_failures,
        }

    @classmethod
    def from_json_obj(cls, obj) -> "RankTable":
        t = cls(q=obj["q"], n=obj["n"], mode=obj["mode"])
        for cell in obj["cells"]:
            key = (cell["m"], cell["a"])
            t.hist[key] = {int(r): c for r, c in cell["rank_histogram"].items()}
            t.scanned[key] = cell.get("scanned", 0)
            t.squarefree[key] = cell.get("squarefree", 0)
            for r, ws in cell.get("witnesses", {}).items():
                t.witnesses[(cell["m"], cell["a"], int(r))] = list(ws)
        t.audits = obj.get("audits", 0)
        t.audit_failures = list(obj.get("audit_failures", []))
        return t


# -- per-chunk worker ---------------------------------------------------------

_ENGINES: dict = {}


@lru_cache(maxsize=None)
def _cell_spec(q, n, m, lead, mode):
    # the chunks' and audit runs' ScanSpec, validated once per cell and
    # process: a chunk past the ranked rows does no other work
    return ScanSpec(q, n, m, lead, mode)


def _engines_for(q, n, m, mode, on_coset, _screen=None):
    # The sixth argument is ignored: it was the screen switch, and stays
    # while the benchmark passes it (goes with ROADMAP item 1).
    key = (q, n, m, mode, on_coset)
    if key not in _ENGINES:
        k = reduced_block_size(q, n, m) if on_coset else None
        _ENGINES[key] = RankEngine(q, n, m, phi=_mode_phi(q, mode), k=k)
    return _ENGINES[key]


def audit_skip_reason(q: int, n: int, m: int) -> str | None:
    """Why a scan of degree m runs no symbolic audit, or None if it runs one.

    Cells with a stable matrix size k_min = max(1, floor((m+n)/(q-1)))
    above ``_AUDIT_K_CAP`` are not audited: at q = 3, n = 1, shift-stable
    m = 24 (k_min 12) is audited and m = 27 (k_min 14) is not.  The audit's
    batched division-free determinant costs about 0.3-1.9 ms per twist at
    k_min = 13-19 in a stack of 16 picks, and 0.5-2.4 ms in a stack of 5
    (q = 2, 3, n = 1, random twists, median of 5 on a 2-core Xeon).  The
    audit stage stacks up to about ``_AUDIT_RUN`` picks per Berkowitz call,
    and in stacks of 128 and 512 a twist costs 0.25-1.7 ms at k_min = 13-19
    (same machine, median of 3).  So the cap guards the scans' run time, not
    the audit's feasibility.
    """
    k_min = stable_size(q, n, m)
    if k_min > _AUDIT_K_CAP:
        return f"k_min {k_min} > audit_k_cap {_AUDIT_K_CAP}"
    return None


def _squarefree_mask(rows, p):
    """Row-wise gcd(P, P') == 1 for an (N, m+1) array of coefficient rows.

    Bernstein-Yang divsteps over GF(p), run in lockstep on every row: with
    f = θ^m P(1/θ), g = θ^(m-1) P'(1/θ) and δ = 1, each of exactly 2m-1 steps
    swaps f and g where δ > 0 and g_0 != 0, then sets
    g <- (f_0 g - g_0 f)/θ and δ <- 1-δ (swapped) or 1+δ (not swapped).
    At the end deg gcd(P, P') = δ/2, so P is squarefree iff δ = 0.  Rows never
    branch and every shift is the same for all of them.  Scaling f or g by a
    unit leaves the δ sequence alone, so g need not be negated after a swap.
    Step j (counting down) reads only the first j coefficients, which lets
    the arrays shrink over the second half.  The steps run on int16 when
    f_0 g - g_0 f fits it with room to spare, 2(p-1)^2 < 2^15, and on int64
    above that.
    """
    import numpy as np

    rows = np.asarray(rows, dtype=np.int64)
    count, width = rows.shape
    m = width - 1
    if not count or m == 0:
        return np.ones(count, dtype=bool)  # no rows, or nonzero constants
    dtype = np.int16 if 2 * (p - 1) ** 2 < 2**15 else np.int64
    # coefficient index first, so f[j] is the θ^j coefficient of every row
    f = np.ascontiguousarray(rows.T[::-1] % p, dtype=dtype)
    g = np.zeros_like(f)
    g[:m] = rows.T[:0:-1] * np.arange(m, 0, -1)[:, None] % p
    delta = np.ones(count, dtype=np.int64)
    for left in range(2 * m - 1, 0, -1):
        w = min(m + 1, left)
        f = f[:w]
        g = g[:w]
        swap = (delta > 0) & (g[0] != 0)
        h = f[0] * g
        h -= g[0] * f
        h %= p
        f = np.where(swap, g, f)
        delta = np.where(swap, 1 - delta, 1 + delta)
        g[:w - 1] = h[1:]
        g[w - 1:] = 0
    return delta == 0


def _squarefree_ints(coeffs, p) -> bool:
    """Squarefree test of one little-endian coefficient list."""
    return bool(_squarefree_mask([coeffs], p)[0])


def shift_stable_expand(c, q: int) -> Poly:
    """P = sum_i c[i] (θ^q - θ)^i from a little-endian coefficient sequence."""
    if not len(c):
        return Poly(field_make(q), [])
    basis = _powers(q, _mode_phi(q, "shift-stable"), len(c) - 1)
    return Poly(field_make(q), (list(c) @ basis % q).tolist())


def _odometer(q, mfree, lead, start, end=None):
    """Rows for odometer indices start..end-1, or for the index array start
    when end is None: free coefficients, then lead."""
    import numpy as np

    if end is None:
        idxs = np.array(start, dtype=np.int64)  # a copy: divmod overwrites it
    else:
        idxs = np.arange(start, end, dtype=np.int64)
    rows = np.empty((len(idxs), mfree + 1), dtype=np.int64)
    for j in range(mfree):  # digit j is the remainder, idxs the carry
        np.divmod(idxs, q, out=(idxs, rows[:, j]))
    rows[:, mfree] = lead
    return rows


def _row_str(row):
    return ",".join(map(str, row))


def _squarefree_count(q, m):
    """Squarefree polynomials over GF(q) of degree m with a fixed lead.

    q^m - q^(m-1) for m >= 2 and q^m for m <= 1 (Carlitz 1932).
    """
    return q**m - q**(m - 1) if m >= 2 else q**m


def _audit_mask(idxs):
    """Which odometer indices the symbolic audit samples: their Knuth hash
    falls below _AUDIT_RATE * 2^32.  uint64 products wrap mod 2^64, which
    keeps the low 32 bits exact."""
    import numpy as np

    hashed = (np.asarray(idxs).astype(np.uint64, copy=False)
              * np.uint64(_AUDIT_MIX) & np.uint64(2**32 - 1))
    return hashed < int(_AUDIT_RATE * 2**32)


def _scan_chunk(args):
    q, n, m, lead, mode, start, end, witness_cap = args
    out = {"hist": {}, "witnesses": {}, "scanned": end - start, "picks": []}
    # the rows the chunk ranks (ScanSpec.ranked); past them it does no work
    ranked = _cell_spec(q, n, m, lead, mode).ranked(start, end)
    if ranked is None:
        return out
    import numpy as np

    digits, idxs, weight = ranked
    coset = on_coset(q, n, m, lead)
    base = 1 if coset else 0
    eng = _engines_for(q, n, m, mode, coset)

    def squarefree(sel):
        # P is squarefree iff G is, so the test reads the free digits
        return sel[_squarefree_mask(digits[sel], q)]

    # rank first: the engine sees every ranked row, and only the rows that a
    # tally or a witness reads get the squarefree test
    ranks = base + eng.vanishing_orders(digits)

    hist, witnesses = out["hist"], out["witnesses"]
    if coset:
        # every squarefree row has rank >= 1 here, so run_scan derives the
        # rank-1 count; its witnesses are the first squarefree rank-1 rows,
        # tested in growing prefixes (at least one, so that the key appears
        # exactly when the chunk has such a row)
        ones = np.nonzero(ranks == 1)[0]
        want = max(witness_cap, 1)
        first, lo, size = ones[:0], 0, 2 * want
        while len(first) < want and lo < len(ones):
            first = np.concatenate([first, squarefree(ones[lo:lo + size])])
            lo += size
            size *= 2
        if len(first):
            witnesses[1] = list(map(_row_str,
                                    digits[first[:witness_cap]].tolist()))
    high = squarefree(np.nonzero(ranks > base)[0])
    # bincount, not np.unique, which imports numpy.ma in each fresh worker
    tally = np.bincount(ranks[high], weights=weight[high])
    for r in np.nonzero(tally)[0].tolist():
        hist[r] = int(tally[r])
        first = high[ranks[high] == r][:witness_cap]
        witnesses[r] = list(map(_row_str, digits[first].tolist()))

    # the audit's hash hits among the ranked rows, squarefree or not, with
    # the rank their tally used; _audit_chunks picks from them
    if audit_skip_reason(q, n, m) is None:
        hit = _audit_mask(idxs)
        out["picks"] = np.column_stack([idxs[hit], ranks[hit]]).tolist()
    return out


def _audit_chunks(args):
    """The symbolic audit of a run of consecutive chunks of one cell.

    ``chunks`` holds (start, end, picks) per chunk, where picks is the
    payload's [index, rank] list as ``_read_payload`` gives it.  A chunk's
    audit picks are its first ``_AUDIT_CAP`` squarefree hash hits: each
    chunk's index range is hashed on its own, and one squarefree test runs
    over the run's hits.
    A pick among the ranked rows reads its rank from the payload; the rest,
    not orbit representatives, take theirs from one engine call, and every
    pick's determinant goes through one batched ``analytic_ranks`` call.
    Returns the audit count and the failures, in index order.
    """
    q, n, m, lead, mode, chunks = args
    import numpy as np

    spec = _cell_spec(q, n, m, lead, mode)
    coset = on_coset(q, n, m, lead)
    hits = []
    for start, end, _ in chunks:  # each chunk's index range on its own
        every = np.arange(start, end, dtype=np.uint64)
        hits.append(start + np.nonzero(_audit_mask(every))[0])
    idxs = np.concatenate(hits)
    digits = _odometer(q, spec.free_coeffs, lead, idxs)
    squarefree = _squarefree_mask(digits, q)
    keep, at = [], 0
    for h in hits:  # per chunk, its first _AUDIT_CAP squarefree hits
        mine = np.nonzero(squarefree[at:at + len(h)])[0][:_AUDIT_CAP]
        keep.append(at + mine)
        at += len(h)
    keep = np.concatenate(keep)
    idxs, digits = idxs[keep], digits[keep]
    if not len(idxs):
        return {"audits": 0, "audit_failures": []}

    known = dict(pick for _, _, picks in chunks for pick in picks)
    fast = np.array([known.get(i, -1) for i in idxs.tolist()], dtype=np.int64)
    rest = fast < 0
    eng = _engines_for(q, n, m, mode, coset)
    if rest.any():
        fast[rest] = (1 if coset else 0) + eng.vanishing_orders(digits[rest])
    # the second route: every pick's determinant in one batched call
    rows = eng.rows(digits).tolist()
    slow = analytic_ranks(rows, n, field_make(q))
    failures = [{"poly": _row_str(row), "fast": rank, "symbolic": sym}
                for row, rank, sym in zip(rows, fast.tolist(), slow.tolist())
                if sym != rank]
    return {"audits": len(idxs), "audit_failures": failures}


def _audit_runs(chunks):
    """The chunks' indices in runs of consecutive chunks, each expecting at
    most about ``_AUDIT_RUN`` picks (at least one chunk per run).  The hash
    hits of a range of L indices number about _AUDIT_RATE * L."""
    runs, size = [], 0
    for i, (start, end) in enumerate(chunks):
        expect = min(_AUDIT_CAP, _AUDIT_RATE * (end - start))
        if not runs or size + expect > _AUDIT_RUN:
            runs.append([])
            size = 0
        runs[-1].append(i)
        size += expect
    return runs


def _merge_chunk(table: RankTable, spec: ScanSpec, payload: dict):
    # payload in _read_payload's shape
    key = (spec.m, spec.lead)
    cell = table.hist.setdefault(key, {})
    for r, c in payload["hist"].items():
        cell[r] = cell.get(r, 0) + c
    for r, rows in payload["witnesses"].items():
        mine = table.witnesses.setdefault((spec.m, spec.lead, r), [])
        mine.extend(rows[:spec.witness_cap - len(mine)])
    table.scanned[key] = table.scanned.get(key, 0) + payload["scanned"]


def _read_payload(payload, spec: ScanSpec, start: int, end: int) -> dict:
    """Chunk start..end-1's payload, fresh from ``_scan_chunk`` (int rank
    keys) or from a checkpoint of any version (decimal strings), in the one
    shape the merge and the audit read: int rank -> count above the cell's
    base rank, int rank -> witness digit rows (tuples), ``scanned`` and
    [index, rank] picks.  Of older shapes it drops "squarefree", "audits",
    "audit_failures" and hist ranks at or below the base (``run_scan``
    derives the coset's rank 1), and reads missing picks as none.  Raises
    ValueError if the payload is not a chunk of this cell, among others for
    a kept count below 1, a rank above k_min, a kept rank without a witness
    list, a witness list without a kept count (but the coset's rank 1) or
    longer than it or ``witness_cap``."""
    def check(ok, what):
        if not ok:
            raise ValueError(f"malformed chunk {start}..{end - 1}: {what}")

    def rank(r):  # an int key or its checkpoint form; bools, "01" refused
        s = str(r) if type(r) in (int, str) else ""
        check(s.isdecimal() and s == str(int(s)) and int(s) <= k_min,
              f"rank {r!r}")
        return int(s)

    lead, digits = str(spec.lead), {str(d) for d in range(spec.q)}

    def row(w):  # free_coeffs + 1 digits in 0..q-1, the last the lead
        parts = w.split(",") if type(w) is str else []
        check(len(parts) == spec.free_coeffs + 1 and parts[-1] == lead
              and digits.issuperset(parts), f"witness {w!r}")
        return tuple(map(int, parts))

    p = payload if type(payload) is dict else {}
    hist, ws, picks = p.get("hist"), p.get("witnesses"), p.get("picks", [])
    k_min = stable_size(spec.q, spec.n, spec.m)  # L has U-degree <= k_min
    check(type(hist) is dict and all(type(c) is int for c in hist.values())
          and type(ws) is dict and all(type(w) is list for w in ws.values())
          and type(p.get("scanned")) is int and p["scanned"] == end - start
          and type(picks) is list
          and all(type(pk) is list and [*map(type, pk)] == [int, int]
                  and start <= pk[0] < end and 0 <= pk[1] <= k_min
                  for pk in picks), "its fields")
    base = 1 if on_coset(spec.q, spec.n, spec.m, spec.lead) else 0
    witnesses = {rank(r): list(map(row, w)) for r, w in ws.items()}
    kept = {r: c for r, c in zip(map(rank, hist), hist.values()) if r > base}
    # every version of _scan_chunk wrote a witness list beside each count,
    # and none without a count but the coset's rank 1
    check(all(c >= 1 and r in witnesses for r, c in kept.items())
          and all(r in kept or r == base == 1 for r in witnesses),
          "a count below 1, or a count or a witness list alone")
    cap = spec.witness_cap  # and no list longer than its count or the cap
    check(all(len(w) <= min(kept.get(r, cap), cap) for r, w in
              witnesses.items()), "more witnesses than the count or the cap")
    return {"hist": kept, "witnesses": witnesses,
            "scanned": end - start, "picks": picks}


def _read_checkpoint(path: str, spec: ScanSpec, chunks: list) -> dict | None:
    """Payloads by chunk index, each read by ``_read_payload``, from the
    checkpoint of a scan whose chunks are ``chunks``, (start, end) pairs.

    Records are written whole, one per line, and flushed, so a crash can
    leave only the final line torn.  A final line that is unterminated or
    does not parse is cut from the file, so its chunk runs again and the next
    record starts on a fresh line.  A bad line anywhere else raises, and so
    do a header of another scan, a record whose chunk is not an int (bools
    refused) in range, and a payload that ``_read_payload`` refuses; all
    before any chunk runs.  None means the file holds no complete record,
    not even the header (a crash before its first flush).
    """
    records = []
    with open(path, "r+b") as fh:
        lines = fh.read().splitlines(keepends=True)
        offset = 0
        for i, line in enumerate(lines):
            try:
                if not line.endswith(b"\n"):
                    raise ValueError("unterminated record")
                records.append(json.loads(line))
            except ValueError:
                if i < len(lines) - 1:
                    raise
                break
            offset += len(line)
        if not records:
            return None
        header, *records = records
        if (not isinstance(header, dict)
                or header.get("fingerprint") != spec.fingerprint()):
            raise ValueError("checkpoint belongs to a different scan")
        done = {}
        for rec in records:
            i = rec.get("chunk") if isinstance(rec, dict) else None
            if type(i) is not int or not 0 <= i < len(chunks):
                raise ValueError("malformed checkpoint record")
            done[i] = _read_payload(rec.get("payload"), spec, *chunks[i])
        fh.truncate(offset)
    return done


def _write_record(fh, record):
    fh.write(json.dumps(record) + "\n")
    fh.flush()


def run_scan(spec: ScanSpec, checkpoint: str | None = None,
             resume: bool = False) -> RankTable:
    """Execute a scan; deterministic for any worker count."""
    total = spec.total
    if total > _SCAN_CAP and not spec.force:
        raise ScanCapError(
            f"enumeration size {total} exceeds cap {_SCAN_CAP}; set force")
    chunks = [(s, min(s + spec.chunk_size, total))
              for s in range(0, total, spec.chunk_size)]
    done = None
    if checkpoint and resume and os.path.exists(checkpoint):
        done = _read_checkpoint(checkpoint, spec, chunks)
    results = dict(done or {})
    todo = [i for i in range(len(chunks)) if i not in results]
    args = [(spec.q, spec.n, spec.m, spec.lead, spec.mode,
             chunks[i][0], chunks[i][1], spec.witness_cap) for i in todo]
    workers = spec.workers or default_workers()
    with contextlib.ExitStack() as stack:
        ck = None
        if checkpoint:
            ck = stack.enter_context(open(
                checkpoint, "w" if done is None else "a", encoding="utf-8"))
            if done is None:
                _write_record(ck, {"fingerprint": spec.fingerprint(),
                                   "spec": asdict(spec)})
        pool = None
        if workers > 1 and len(args) > 1:  # at most one worker per chunk
            pool = stack.enter_context(
                mp.get_context("fork").Pool(min(workers, len(args))))
            payloads = pool.imap(_scan_chunk, args)
        else:
            payloads = map(_scan_chunk, args)
        for chunk_i, payload in zip(todo, payloads):
            results[chunk_i] = _read_payload(payload, spec, *chunks[chunk_i])
            if ck:  # the raw payload, as the worker wrote it
                _write_record(ck, {"chunk": chunk_i, "payload": payload})
        audits = []
        if audit_skip_reason(spec.q, spec.n, spec.m) is None:
            # one audit stage per run of chunks, in the pool when there is
            # one: a parent that did numpy work would make every forked
            # worker of a later scan larger
            runs = [(spec.q, spec.n, spec.m, spec.lead, spec.mode,
                     [(*chunks[i], results[i]["picks"]) for i in run])
                    for run in _audit_runs(chunks)]
            audits = (pool.map if pool else map)(_audit_chunks, runs)

    table = RankTable(q=spec.q, n=spec.n, mode=spec.mode)
    for i in range(len(chunks)):
        _merge_chunk(table, spec, results[i])
    for audit in audits:
        table.audits += audit["audits"]
        table.audit_failures.extend(audit["audit_failures"])
    key = (spec.m, spec.lead)
    table.squarefree[key] = squarefree = _squarefree_count(
        spec.q, spec.free_coeffs)
    coset = on_coset(spec.q, spec.n, spec.m, spec.lead)
    ones = squarefree - sum(table.hist[key].values())
    if coset and ones:  # every squarefree P has rank >= 1 on the coset
        table.hist[key][1] = ones
    # the witnesses are digit rows until here (module doc)
    eng = _engines_for(spec.q, spec.n, spec.m, spec.mode, coset)
    for wkey, rows in table.witnesses.items():
        if rows:  # none with witness_cap = 0
            rows = eng.rows(spec.expand_witnesses(rows)).tolist()
        table.witnesses[wkey] = list(map(_row_str, rows))
    return table


# -- distinguished-coset audit ------------------------------------------------

def coset_audit(q: int, n: int, m_max: int) -> dict:
    """Exhaustively check rank >= 1 on the coset m ≡ -n (q-1), a_m = (-1)^n.

    Also reports how often rank >= 1 occurs off the coset, and the coset's
    description as the (leading coefficient, m mod q-1) pair.  Every P of
    degree <= m_max counts, squarefree or not.  Ranks come from the scan's
    full-size engines: the reduced block assumes the forced (1-U) factor,
    which is what this audit checks.
    """
    check_int(q, 0, "q")  # an int; is_prime refuses the rest
    if not is_prime(q):
        raise ValueError("coset audit needs prime q")
    check_int(n, 1, "n")
    check_int(m_max, 0, "m_max")
    lead_target = (-1) ** n % q
    m_target = (-n) % (q - 1)
    violations = []
    on_total = on_ge1 = off_total = off_ge1 = 0
    for m in range(0, m_max + 1):
        eng = _engines_for(q, n, m, "squarefree", False)
        for lead in range(1, q):
            on = on_coset(q, n, m, lead)
            for start in range(0, q**m, _CHUNK):
                rows = _odometer(q, m, lead, start, min(start + _CHUNK, q**m))
                ge1 = eng.vanishing_orders(rows) >= 1
                hits = int(ge1.sum())
                if on:
                    on_total += len(rows)
                    on_ge1 += hits
                    violations += map(_row_str, rows[~ge1].tolist())
                else:
                    off_total += len(rows)
                    off_ge1 += hits
    return {
        "q": q, "n": n, "m_max": m_max,
        "coset": {"lead": lead_target, "m_mod_q_minus_1": m_target},
        "subgroup_index": (q - 1) ** 2,
        "checked": on_total + off_total,
        "on_coset": on_total,
        "on_coset_rank_ge1": on_ge1,
        "violations": violations,
        "off_coset": off_total,
        "off_coset_rank_ge1": off_ge1,
    }


# -- parameter-count calculators ----------------------------------------------

def equation_count(r0: int, k: int) -> int:
    """Number of coefficient equations forcing rank >= r0 at matrix size k."""
    return r0 * (k + 1) - r0 * (r0 - 1) // 2


def _single_feasible(q: int, r: int, k: int) -> bool:
    # free parameters k(q-1)-1 must cover the (r-1)-extra-orders equations
    return k * (q - 1) - 1 >= (r - 1) * k - (r - 1) * (r - 2) // 2


def dim_report(q: int, r: int, mode: str = "single", m: int | None = None) -> dict:
    """Naive parameter/equation counts and the feasibility verdicts.

    ``single``: is there one k >= r making rank >= r unforced?  The maximal
    feasible r is 2q-3.  ``infinite-family``: are there infinitely many such
    k?  Maximal feasible r is q (1 at q = 2).  ``shift-stable``: expected
    dimensions of the shift-stable loci for the given even/odd m/q class.
    """
    field_from_cardinality(q)  # ValueError unless q is a prime power
    check_int(r, 1, "r")
    if m is not None:
        check_int(m, 0, "m")
    out = {"q": q, "r": r, "mode": mode, "single_max_r": 2 * q - 3}
    if mode == "single":
        if m is not None:
            if (m + 1) % (q - 1) != 0:
                raise ValueError("single-mode m needs q-1 | m+1")
            ks = [(m + 1) // (q - 1)]
            if not _single_feasible(q, r, ks[0]):
                ks = []
        else:
            ks = [k for k in range(max(r, 1), 4 * q + r + 10)
                  if _single_feasible(q, r, k)]
        feasible = bool(ks)
        out["feasible"] = feasible
        if feasible:
            k = ks[0]
            out["k"] = k
            out["m"] = k * (q - 1) - 1
            out["equations"] = equation_count(r - 1, k - 1)
            out["parameters"] = k * (q - 1) - 1
            out["expected_dimension"] = out["parameters"] - out["equations"]
        out["max_feasible_r"] = max(
            (rr for rr in range(1, 4 * q)
             if any(_single_feasible(q, rr, k) for k in range(rr, 8 * q + rr))),
            default=0)
        return out
    if mode == "infinite-family":
        def family_ok(rr):
            return rr < q or rr == q and (q - 1) * (q - 2) >= 2
        out["feasible"] = family_ok(r)
        out["max_feasible_r"] = out["family_max_r"] = max(
            rr for rr in range(1, 2 * q + 2) if family_ok(rr))
        return out
    if mode == "shift-stable":
        if m is None or m % q != 0:
            raise ValueError("shift-stable mode needs m with q | m")
        m_st = m // q
        out["m"] = m
        out["m_st"] = m_st
        if m_st % 2 == 1:
            out["expected_dims"] = {
                "lead_-1": {"r1": m_st, "r2": (m - 3) // 6,
                            "r3": "negative"},
                "lead_1": {"r1": (m_st + 1) // 2, "r2": "negative"},
            }
        else:
            out["expected_dims"] = {
                "any_lead": {"r1": m // 6 - 1, "r2": "negative"},
            }
        return out
    raise ValueError(f"unknown mode {mode!r}")
