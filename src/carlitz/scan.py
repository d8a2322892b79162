"""Exhaustive rank tallies over twist-polynomial coefficient space.

A scan fixes (q, n, degree m, leading coefficient a) and walks every
squarefree P with those parameters (optionally restricted to shift-stable P,
i.e. polynomials in θ^q - θ), tallying how many have analytic rank >= r and
keeping a bounded list of witnesses per exact rank.

Enumeration is a little-endian odometer over the free digits: index c maps
to digits (c % q, (c//q) % q, ...), the leading coefficient appended.  The
digits are P's coefficients, or in shift-stable mode F's, where
P = F(θ^q - θ); there P's coefficient rows are the digits times the basis
of the powers (θ^q - θ)^i (``_stable_basis``, in closed form).  Beyond the
digits, the basis and the squarefree policy below, a chunk does not branch
on the mode; the engine takes its points from it (see fastrank).  Work is
split into fixed-size chunks merged in chunk order, so the result is
identical for any worker count.  Long scans can checkpoint per-chunk
tallies to a JSONL file and resume.

Scans need prime q: coefficient rows and the shift-stable expansion are
computed mod q as integers, and the rank engine works over GF(q) = Z/q.

The number of squarefree P needs no enumeration: with a fixed leading
coefficient it is q^m - q^(m-1) for m >= 2 and q^m for m <= 1 (Carlitz,
"The arithmetic of polynomials in a Galois field", 1932), and ``run_scan``
sets each cell's ``squarefree`` from it.  In shift-stable mode the formula
counts F at degree m/q, where P = F(θ^q - θ): then P' = -F'(θ^q - θ), so
gcd(P, P') = 1 exactly when gcd(F, F') = 1.

Generic scans with p ∤ m rank one P per θ-shift orbit.  The shift
P -> P(θ + d) keeps the analytic rank (the ``Mu`` identity
L(P(θ+d))(T - d) = L(P), see symmetry), the degree, the lead and
squarefreeness, and it moves a_(m-1) to a_(m-1) + m·d·a_m.  With p ∤ m the
q shifts of P are therefore distinct, and exactly one has a_(m-1) = 0: the
representatives are the odometer indices below q^(m-1).  A chunk ranks only
its rows below q^(m-1) and counts each of them q times
(``ScanSpec.shift_orbit``); a chunk past them ranks nothing, but keeps its
bounds and its ``scanned`` count.  The witness lists come out as the full
enumeration's, because every representative's index lies below every other
P's: a list that reached ``witness_cap`` is already right, and a shorter one
holds every representative of its rank, so ``run_scan`` replaces it with
the first ``witness_cap`` of their q shifts in odometer order.  Shift-stable
scans are left alone (the shifts fix P), and so are cells with p | m, where
the shift leaves a_(m-1) unchanged.

The squarefree test itself is one numpy kernel (``_squarefree_mask``):
Bernstein-Yang divsteps computing deg gcd(P, P') for every row in lockstep.
It reads the free digits, since P is squarefree iff F is.  The mode picks
one of two policies, each the faster on its own workload.  Generic scans
rank first and test squarefreeness last: the engine ranks every row of the
chunk, and the kernel runs only on the rows that a tally, a witness or the
audit reads.  Those are the rows of rank above the base (1 on the
distinguished coset, 0 off it), on the coset a prefix of the rank-1 rows
long enough for the witnesses, and the audit's hash candidates.  On the
coset every squarefree P has rank >= 1, so the rank-1 count is the closed
form minus the counts of rank >= 2.  Shift-stable scans filter F first,
dropping the odometer indices with the rows, because at degree m/q the
kernel costs little next to the engine.

Ranks come from the point-evaluation engine (exact; see fastrank), one
batched call per chunk on the free digits of the ranked rows, with the
basis in shift-stable mode; the engine computes P's rows only for the few
it counts.  The engine
certifies first, settling the bulk "order 0" outcome at the first point
where det(M(t) - I) != 0.  Rows in odometer order share their high digits
in runs of up to q^s, and the low digits reach only a few top rows of
M(t) - I, so at each point the engine eliminates the other rows once per
run and tests a small r x r Schur complement per row.  Only the rows whose
det vanishes at every point, certified order >= 1, pay for the charpoly.
The engine takes one point per Frobenius orbit (per orbit of
Artin-Schreier values t^q - t for shift-stable rows), largest orbits
first.  So it visits last the prime-field
points and, for shift-stable rows, the points whose Artin-Schreier value
lies in GF(q): a nonzero det is least likely there.  On the
distinguished coset (m ≡ -n mod q-1, a_m = (-1)^n) the rank is computed as
1 + the vanishing order of the leading principal block's determinant, which
restores the early exit that the forced (1-U) factor would otherwise deny.

A deterministic 1-in-1000 subsample (index hash, capped per chunk) is
audited against the full division-free determinant, a second route that
does not touch the engine: ``motive.analytic_ranks`` takes a chunk's picks
as one stack of k_min x k_min matrices through one Berkowitz call and reads
each order at U = 1 from the Hasse derivatives of its L-function.
The picks are the same with or without the orbit reduction: the hash runs
over the chunk's whole index range, and a squarefree pick past the
representatives gets its rank from one more engine call per chunk.
The audit is skipped when the stable matrix size k_min exceeds
``_AUDIT_K_CAP`` (``audit_skip_reason``); ``carlitz scan`` and
``scripts/rank_count_tables.py`` say so.

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
from typing import ClassVar

from .ff import binom_mod_p, field_from_cardinality, field_make, is_prime
from .fastrank import RankEngine
from .motive import analytic_ranks, on_coset, reduced_block_size, stable_size
# unused since the audit went batched; importable here while the benchmark's
# tracer patches scan.analytic_rank (ROADMAP item 2)
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
# odometer rows per scan chunk (the default) and per coset-audit block
_CHUNK = 8192
# largest enumeration a scan runs without force=True
_SCAN_CAP = 3**16


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
    # Scans have no separate screen any more (the engine's certify phase
    # replaced it); the constant stays while the benchmark reads it, and goes
    # with the benchmark change of ROADMAP item 1.
    use_batch_screen: ClassVar[bool] = False
    # _AUDIT_K_CAP, kept here while the benchmark reads it, like the above
    audit_k_cap: ClassVar[int] = _AUDIT_K_CAP
    witness_cap: int = 16

    def __post_init__(self):
        if not is_prime(self.q):
            raise ValueError("scans need prime q")
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if self.m < 1:
            raise ValueError("degree must be >= 1")
        if not 1 <= self.lead < self.q:
            raise ValueError("leading coefficient must be a nonzero residue")
        if self.mode not in ("squarefree", "shift-stable"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.mode == "shift-stable" and self.m % self.q != 0:
            raise ValueError("shift-stable scans need q | m")
        if self.chunk_size < 1:
            raise ValueError("chunk size must be >= 1")
        if self.workers < 0:
            raise ValueError("worker count must be >= 0")
        if self.witness_cap < 0:
            raise ValueError("witness cap must be >= 0")

    @property
    def free_coeffs(self) -> int:
        return self.m // self.q if self.mode == "shift-stable" else self.m

    @property
    def total(self) -> int:
        return self.q**self.free_coeffs

    @property
    def shift_orbit(self) -> int:
        """Polynomials counted per ranked row: q when the scan ranks one P
        per θ-shift orbit (squarefree mode, p ∤ m), else 1."""
        if self.mode == "squarefree" and self.m % self.q:
            return self.q
        return 1

    def fingerprint(self) -> str:
        # the orbit token keeps checkpoints of full enumerations, whose
        # chunks count every row, from resuming a reduced scan
        orbit = f"o{self.shift_orbit}" if self.shift_orbit > 1 else ""
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


def _engines_for(q, n, m, mode, on_coset, _screen=None):
    # The sixth argument is ignored: it was the screen switch, and stays
    # while the benchmark passes it (goes with ROADMAP item 1).
    key = (q, n, m, mode, on_coset)
    eng = _ENGINES.get(key)
    if eng is None:
        k = reduced_block_size(q, n, m) if on_coset else None
        eng = RankEngine(q, n, m, shift_stable=mode == "shift-stable", k=k)
        _ENGINES[key] = eng
    return eng


def audit_skip_reason(q: int, n: int, m: int) -> str | None:
    """Why a scan of degree m runs no symbolic audit, or None if it runs one.

    Cells with a stable matrix size k_min above ``_AUDIT_K_CAP`` are not
    audited.  The audit's batched division-free determinant costs about
    0.3-1.9 ms per twist at k_min = 13-19 in a stack of 16 picks, and
    0.5-2.4 ms in a stack of 5 (q = 2, 3, n = 1, random twists, median of 5
    on a 2-core Xeon), so the cap guards the scans' run time, not the
    audit's feasibility.
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
    if m == 0:
        return np.ones(count, dtype=bool)  # nonzero constants
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


def _stable_basis(q, m_st):
    """Coefficient rows of (θ^q - θ)^i for i = 0..m_st, an int64 array.

    (θ^q - θ)^i = sum_j C(i, j) (-1)^(i-j) θ^(i + (q-1)j), mod q.
    """
    import numpy as np

    basis = np.zeros((m_st + 1, q * m_st + 1), dtype=np.int64)
    for i in range(m_st + 1):
        for j in range(i + 1):
            basis[i, i + (q - 1) * j] = (
                (-1) ** (i - j) * binom_mod_p(i, j, q) % q)
    return basis


def shift_stable_expand(c, q: int) -> Poly:
    """P = sum_i c[i] (θ^q - θ)^i from a little-endian coefficient sequence."""
    import numpy as np

    if not len(c):
        return Poly(field_make(q), [])
    # fixed by every θ -> θ + d by construction
    digits = np.asarray(c, dtype=np.int64)
    return Poly(field_make(q),
                (digits @ _stable_basis(q, len(c) - 1) % q).tolist())


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


def _scan_chunk(args):
    q, n, m, lead, mode, start, end, witness_cap = args
    import numpy as np

    spec = ScanSpec(q, n, m, lead, mode)
    shift = mode == "shift-stable"
    coset = on_coset(q, n, m, lead)
    base = 1 if coset else 0
    eng = _engines_for(q, n, m, mode, coset)
    # the ranked rows: the whole range, or with an orbit of q shifts, the
    # part of it below q^(m-1), where a_(m-1) = 0 (module doc)
    ranked_end = max(start, min(end, spec.total // spec.shift_orbit))
    # the free digits: P's coefficients, or F's where P = F(θ^q - θ), and
    # their odometer indices, kept in step with them
    digits = _odometer(q, spec.free_coeffs, lead, start, ranked_end)
    idxs = np.arange(start, ranked_end, dtype=np.int64)
    basis = None
    if shift:
        # filter first: at degree m/q the kernel costs little next to the
        # engine
        keep = _squarefree_mask(digits, q)
        digits, idxs = digits[keep], idxs[keep]
        basis = _stable_basis(q, m // q)

    def squarefree(sel):
        # P is squarefree iff F is, so the test reads the free digits
        return sel[_squarefree_mask(digits[sel], q)]

    def coeffs(rows):
        # P's coefficient rows from digit rows, as lists
        return (rows if basis is None else rows @ basis % q).tolist()

    # rank first in generic mode: the engine sees every ranked row, and only
    # the rows that a tally, a witness or the audit reads get the squarefree
    # test
    ranks = base + eng.vanishing_orders(digits, basis)

    witnesses: dict = {}
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
                                    coeffs(digits[first[:witness_cap]])))
    high = squarefree(np.nonzero(ranks > base)[0])
    hist: dict = {}
    found, counts = np.unique(ranks[high], return_counts=True)
    for r, c in zip(found.tolist(), counts.tolist()):
        hist[r] = c * spec.shift_orbit
        first = high[ranks[high] == r][:witness_cap]
        witnesses[r] = list(map(_row_str, coeffs(digits[first])))

    audit_failures = []
    picks = np.zeros(0, dtype=np.int64)
    pick_digits = digits[:0]
    if audit_skip_reason(q, n, m) is None:
        # Knuth hash of every odometer index of the chunk, ranked or not;
        # uint64 products wrap mod 2^64, which keeps the low 32 bits exact
        every = np.arange(start, end, dtype=np.uint64)
        hashed = every * np.uint64(_AUDIT_MIX) & np.uint64(2**32 - 1)
        picks = start + np.nonzero(hashed < int(_AUDIT_RATE * 2**32))[0]
        pick_digits = _odometer(q, spec.free_coeffs, lead, picks)
        keep = np.nonzero(_squarefree_mask(pick_digits, q))[0][:_AUDIT_CAP]
        picks, pick_digits = picks[keep], pick_digits[keep]
    # a pick among the ranked rows reads its rank from them (in shift-stable
    # mode idxs holds every squarefree index); the rest, past the shift
    # representatives, take theirs from one more engine call
    fast = np.empty(len(picks), dtype=np.int64)
    inside = picks < ranked_end
    fast[inside] = ranks[np.searchsorted(idxs, picks[inside])]
    if not inside.all():
        fast[~inside] = base + eng.vanishing_orders(pick_digits[~inside], basis)
    if len(picks):
        # the second route: every pick's determinant in one batched call
        rows = coeffs(pick_digits)
        slow = analytic_ranks(rows, n, field_make(q))
        for row, rank, sym in zip(rows, fast.tolist(), slow.tolist()):
            if sym != rank:
                audit_failures.append(
                    {"poly": _row_str(row), "fast": rank, "symbolic": sym})

    return {
        "hist": hist,
        "witnesses": witnesses,
        "scanned": end - start,
        "audits": len(picks),
        "audit_failures": audit_failures,
    }


def _merge_chunk(table: RankTable, spec: ScanSpec, payload: dict):
    # a payload's "squarefree" (checkpoints of older versions) is ignored:
    # run_scan sets the cell's count from the closed form
    key = (spec.m, spec.lead)
    cell = table.hist.setdefault(key, {})
    for r, c in payload["hist"].items():
        r = int(r)
        cell[r] = cell.get(r, 0) + c
    for r, ws in payload["witnesses"].items():
        r = int(r)
        wkey = (spec.m, spec.lead, r)
        mine = table.witnesses.setdefault(wkey, [])
        room = spec.witness_cap - len(mine)
        if room > 0:
            mine.extend(ws[:room])
    table.scanned[key] = table.scanned.get(key, 0) + payload["scanned"]
    table.audits += payload["audits"]
    table.audit_failures.extend(payload["audit_failures"])


def _read_checkpoint(path: str, fingerprint: str) -> dict | None:
    """Completed chunk payloads from the JSONL checkpoint of a scan.

    Records are written whole, one per line, and flushed, so a crash can
    leave only the final line torn.  A final line that is unterminated or
    does not parse is cut from the file, so its chunk runs again and the next
    record starts on a fresh line.  A bad line anywhere else raises, and so
    does a header of another scan.  None means the file holds no complete
    record, not even the header (a crash before its first flush).
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
        if records[0].get("fingerprint") != fingerprint:
            raise ValueError("checkpoint belongs to a different scan")
        fh.truncate(offset)
    return {rec["chunk"]: rec["payload"] for rec in records[1:]}


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
        done = _read_checkpoint(checkpoint, spec.fingerprint())
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
        if workers > 1 and len(args) > 1:
            pool = stack.enter_context(mp.get_context("fork").Pool(workers))
            payloads = pool.imap(_scan_chunk, args)
        else:
            payloads = map(_scan_chunk, args)
        for chunk_i, payload in zip(todo, payloads):
            results[chunk_i] = payload
            if ck:
                _write_record(ck, {"chunk": chunk_i, "payload": payload})

    table = RankTable(q=spec.q, n=spec.n, mode=spec.mode)
    for i in range(len(chunks)):
        _merge_chunk(table, spec, results[i])
    key = (spec.m, spec.lead)
    table.squarefree[key] = squarefree = _squarefree_count(
        spec.q, spec.free_coeffs)
    if on_coset(spec.q, spec.n, spec.m, spec.lead):
        # every squarefree P has rank >= 1 on the coset; set rather than
        # add, since older checkpoints carry per-chunk rank-1 counts
        cell = table.hist[key]
        cell.pop(1, None)
        ones = squarefree - sum(cell.values())
        if ones:
            cell[1] = ones
    if spec.shift_orbit > 1:
        _expand_witnesses(table, spec)
    return table


def _expand_witnesses(table: RankTable, spec: ScanSpec):
    """The full enumeration's witness lists from the representatives' lists.

    A representative has a_(m-1) = 0, so its index lies below q^(m-1) and
    below every other P's.  A full list therefore is already the full
    enumeration's, and a short one holds every representative of its rank:
    the first ``witness_cap`` of their q shifts P(θ + d), in odometer order,
    are the full enumeration's list.
    """
    ctx = field_make(spec.q)
    shifts = [Poly(ctx, (d, 1)) for d in range(spec.q)]  # θ + d
    for key, ws in table.witnesses.items():
        if len(ws) >= spec.witness_cap:
            continue
        rows = [[int(c) for c in Poly(ctx, list(map(int, w.split(","))))
                 .compose(s).coeffs] for w in ws for s in shifts]
        # equal leads: the reversed row orders by odometer index
        rows.sort(key=lambda row: row[::-1])
        table.witnesses[key] = list(map(_row_str, rows[:spec.witness_cap]))


# -- distinguished-coset audit ------------------------------------------------

def coset_audit(q: int, n: int, m_max: int) -> dict:
    """Exhaustively check rank >= 1 on the coset m ≡ -n (q-1), a_m = (-1)^n.

    Also reports how often rank >= 1 occurs off the coset, and the coset's
    description as the (leading coefficient, m mod q-1) pair.  Every P of
    degree <= m_max counts, squarefree or not.  Ranks come from the scan's
    full-size engines: the reduced block assumes the forced (1-U) factor,
    which is what this audit checks.
    """
    if not is_prime(q):
        raise ValueError("coset audit needs prime q")
    if n < 1:
        raise ValueError("n must be >= 1")
    if m_max < 0:
        raise ValueError("m_max must be >= 0")
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
    k?  Maximal feasible r is q (for q >= 3).  ``shift-stable``: expected
    dimensions of the shift-stable loci for the given even/odd m/q class.
    """
    field_from_cardinality(q)  # ValueError unless q is a prime power
    if r < 1:
        raise ValueError("r must be >= 1")
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
            if rr < q:
                return True
            if rr == q:
                return (q - 1) * (q - 2) >= 2
            return False
        out["feasible"] = family_ok(r)
        out["max_feasible_r"] = max(rr for rr in range(1, 2 * q + 2)
                                    if family_ok(rr))
        out["family_max_r"] = q
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
