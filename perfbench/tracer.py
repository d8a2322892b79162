"""Spans and counters around calls into the carlitz modules.

The tracer wraps module entry points from outside the package: each name is
patched where its caller looks it up (``scan`` imports ``analytic_rank`` by
name, so ``scan.analytic_rank`` is the name to patch, not
``motive.analytic_rank``).  Nothing under ``src/`` knows about it.

Two levels:

- ``full=False`` patches only ``scan._scan_chunk``.  It gives the per-chunk
  clock behind the end-to-end per-polynomial figures (and, in pool workers,
  the reference-loop samples of calib.py) and costs one timer pair per chunk
  of 8192 polynomials.
- ``full=True`` patches every layer boundary listed in ``_PATCHES``.  Hot
  inner calls (``_squarefree_ints``, ``_mult_at``) get counts and summed
  seconds only; every other call also gets a span record.

Every wrapped call updates, for its name, ``[calls, busy_s, self_s, x1, x2]``
(self time is the call's duration minus the time of wrapped calls inside it;
``x1``/``x2`` are result counters such as squarefree hits), and, for its
layer, ``[depth, calls, busy_s, self_s]`` where busy time counts only calls
not nested in another call of the same layer.

Fork-pool workers inherit the patches.  A worker's chunk wrapper notices the
new pid, starts from empty aggregates, and after each chunk appends that
chunk's aggregates and spans to a spool file that the parent merges by chunk
key.  Payloads and checkpoint records are left untouched.
"""

from __future__ import annotations

import json
import os
import time
from contextlib import contextmanager

perf = time.perf_counter

# (module, owner attribute path, span name, layer, keep span records)
_PATCHES = [
    ("scan", "_squarefree_ints", "scan.sqfree", "scan", False),
    ("scan", "analytic_rank", "scan.audit", "scan", True),
    ("fastrank", "BatchScreen.order_zero_mask", "fastrank.screen", "fastrank",
     True),
    ("fastrank", "BatchScreen.__init__", "fastrank.engine_setup", "fastrank",
     True),
    ("fastrank", "RankEngine.__init__", "fastrank.engine_setup", "fastrank",
     True),
    ("fastrank", "RankEngine.vanishing_order", "fastrank.engine", "fastrank",
     True),
    ("fastrank", "RankEngine._mult_at", "fastrank.mult_at", "fastrank", False),
    ("fastrank", "_Tables", "ff.field_tables", "ff", True),
    ("motive", "l_function", "motive.l_function", "motive", True),
    ("symmetry", "l_function", "motive.l_function", "motive", True),
    ("motive", "det_identity_minus_mu", "linalg.det", "linalg", True),
    ("motive", "lfun_order_at", "lfun.order_at", "lfun", True),
    ("lfun", "lfun_order_at", "lfun.order_at", "lfun", True),
    ("symmetry", "lfun_substitute", "lfun.substitute", "lfun", True),
    ("symmetry", "check_l_identity", "symmetry.check_l_identity", "symmetry",
     True),
    ("euler", "truncated_product", "euler.truncated_product", "euler", True),
    ("euler", "local_factor", "euler.local_factor", "euler", True),
    ("symmetry", "local_factor", "euler.local_factor", "euler", True),
    ("euler", "residue_ctx", "euler.residue_ctx", "euler", True),
    ("euler", "irreducibles_of_degree", "poly.irreducibles", "poly", True),
]


def _screen_counts(args, out):
    # (rows screened, rows certified order 0)
    return len(out), int(out.sum())


_RESULT_COUNTERS = {"fastrank.screen": _screen_counts}

_ACTIVE: "Tracer | None" = None


def _traced_scan_chunk(args):
    # Module-level so the fork pool can pickle it by reference.
    tr = _ACTIVE
    if os.getpid() != tr.pid:
        tr._become_worker()
    q, n, m, lead, mode, start, end = args[:7]
    key = f"{m}/{lead}/{start}"
    sample_ref = tr.worker and tr.worker_ref is not None
    if sample_ref and not tr.ref_started:
        tr.ref_started = True
        tr._ref_sample()
    frame = tr._enter(*tr._slots("scan.chunk", "scan"), "scan.chunk", key)
    try:
        return tr.originals["scan._scan_chunk"](args)
    finally:
        tr._exit(frame, items=end - start)
        if sample_ref:
            tr._ref_sample()
        if tr.worker:
            tr._spool(key)


class Tracer:
    """Owns the patch set, the aggregates and the span records of one run."""

    def __init__(self, modules: dict, spool_dir: str):
        self.modules = modules
        self.spool_dir = spool_dir
        self.pid = os.getpid()
        self.worker = False
        self.proc = "main"
        self.stack: list = []
        self.aggs: dict = {}     # name -> [calls, busy, self, x1, x2]
        self.layers: dict = {}   # layer -> [depth, calls, busy, self]
        self.worker_layers: dict = {}  # layer -> [0, calls, busy, self]
        self.spans: list = []    # (id, parent, name, t0, t1, key, items, proc)
        self.next_id = 1
        self.key = None
        self.originals: dict = {}
        self._installed: list = []
        self.unit_hook = None  # called after each main-process unit span
        # Reference-loop timer that pool workers run before their first
        # chunk and after each chunk (see calib.py); samples reach the
        # parent through the spool as proc -> [(end time, loop s, cost s)].
        self.worker_ref = None
        self.worker_refs: dict = {}
        self.refs: list = []
        self.ref_started = False

    # -- patching -------------------------------------------------------

    @contextmanager
    def installed(self, full: bool):
        """Patches in place for the ``with`` body, removed afterwards."""
        global _ACTIVE
        if self._installed:
            raise RuntimeError("tracer already installed")
        _ACTIVE = self
        try:
            self._patch(self.modules["scan"], "_scan_chunk",
                        _traced_scan_chunk, "scan._scan_chunk")
            for mod, path, name, layer, keep in (_PATCHES if full else ()):
                owner = self.modules[mod]
                *outer, attr = path.split(".")
                for part in outer:
                    owner = getattr(owner, part)
                self._patch(owner, attr,
                            self._wrap(getattr(owner, attr), name, layer, keep),
                            f"{mod}.{path}")
            yield self
        finally:
            for owner, attr, orig in reversed(self._installed):
                setattr(owner, attr, orig)
            self._installed.clear()
            self.unit_hook = None
            self.worker_ref = None
            _ACTIVE = None

    def _patch(self, owner, attr, new, label):
        orig = getattr(owner, attr)
        self.originals[label] = orig
        self._installed.append((owner, attr, orig))
        setattr(owner, attr, new)

    def _wrap(self, fn, name, layer, keep):
        agg, lay = self._slots(name, layer)
        counter = _RESULT_COUNTERS.get(name)
        tr = self
        if not keep:
            def hot(*args, **kwargs):
                stack = tr.stack
                frame = [0.0, 0, None]
                stack.append(frame)
                lay[0] += 1
                t0 = perf()
                try:
                    out = fn(*args, **kwargs)
                finally:
                    dt = perf() - t0
                    stack.pop()
                    lay[0] -= 1
                    lay[1] += 1
                    if not lay[0]:
                        lay[2] += dt
                    lay[3] += dt - frame[0]
                    agg[0] += 1
                    agg[1] += dt
                    agg[2] += dt - frame[0]
                    if stack:
                        stack[-1][0] += dt
                if out:
                    agg[3] += 1
                return out
            return hot

        def spanned(*args, **kwargs):
            frame = tr._enter(agg, lay, name, None)
            try:
                out = fn(*args, **kwargs)
            finally:
                tr._exit(frame)
            if counter is not None:
                x1, x2 = counter(args, out)
                agg[3] += x1
                agg[4] += x2
            return out
        return spanned

    # -- spans ----------------------------------------------------------

    def _slots(self, name, layer):
        return (self.aggs.setdefault(name, [0, 0.0, 0.0, 0, 0]),
                self.layers.setdefault(layer, [0, 0, 0.0, 0.0]))

    def _enter(self, agg, lay, name, key):
        sid = self.next_id
        self.next_id = sid + 1
        stack = self.stack
        parent = stack[-1][1] if stack else 0
        outer_key = self.key
        if key is not None:
            self.key = key
        lay[0] += 1
        frame = [0.0, sid, agg, lay, parent, name, outer_key, perf()]
        stack.append(frame)
        return frame

    def _exit(self, frame, items=None):
        t1 = perf()
        child, sid, agg, lay, parent, name, outer_key, t0 = frame
        dt = t1 - t0
        stack = self.stack
        stack.pop()
        lay[0] -= 1
        lay[1] += 1
        if not lay[0]:
            lay[2] += dt
        lay[3] += dt - child
        agg[0] += 1
        agg[1] += dt
        agg[2] += dt - child
        if stack:
            stack[-1][0] += dt
        self.spans.append((sid, parent, name, t0, t1, self.key, items,
                           self.proc))
        self.key = outer_key
        if items is not None and self.unit_hook and not self.worker:
            self.unit_hook()

    @contextmanager
    def span(self, name, layer, key=None, items=None):
        """Explicit span from the benchmark's own code (cells, twists)."""
        frame = self._enter(*self._slots(name, layer), name, key)
        try:
            yield
        finally:
            self._exit(frame, items)

    # -- fork-pool workers ----------------------------------------------

    def _become_worker(self):
        self.pid = os.getpid()
        self.worker = True
        self.proc = f"worker-{self.pid}"
        self.stack = []
        self.key = None
        self.refs = []
        self.ref_started = False
        self._zero()

    def _ref_sample(self):
        t0 = perf()
        value = self.worker_ref()
        t1 = perf()
        self.refs.append((t1, value, t1 - t0))

    def _zero(self):
        for v in self.aggs.values():
            v[:] = [0, 0.0, 0.0, 0, 0]
        for v in self.layers.values():
            v[:] = [0, 0, 0.0, 0.0]
        self.spans = []
        self.refs = []

    def _spool(self, key):
        rec = {"key": key, "proc": self.proc, "aggs": self.aggs,
               "spans": self.spans, "refs": self.refs,
               "layers": {k: v[1:] for k, v in self.layers.items()}}
        path = os.path.join(self.spool_dir, f"worker-{self.pid}.jsonl")
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(rec) + "\n")
        self._zero()

    def collect_workers(self) -> int:
        """Merge and delete the spool files; returns the chunk records read."""
        keys = []
        for fname in sorted(os.listdir(self.spool_dir)):
            if not fname.startswith("worker-"):
                continue
            path = os.path.join(self.spool_dir, fname)
            with open(path, encoding="utf-8") as fh:
                for line in fh:
                    rec = json.loads(line)
                    keys.append(rec["key"])
                    for name, v in rec["aggs"].items():
                        mine = self.aggs.setdefault(name, [0, 0.0, 0.0, 0, 0])
                        for i, x in enumerate(v):
                            mine[i] += x
                    for layer, v in rec["layers"].items():
                        mine = self.worker_layers.setdefault(
                            layer, [0, 0, 0.0, 0.0])
                        for i, x in enumerate(v):
                            mine[i + 1] += x
                    self.worker_refs.setdefault(rec["proc"], []).extend(
                        rec["refs"])
                    for sid, parent, *rest in rec["spans"]:
                        # worker span ids live in their own space
                        self.spans.append((-sid, -parent, *rest))
            os.remove(path)
        if len(keys) != len(set(keys)):
            raise RuntimeError("a chunk was reported twice by the pool workers")
        return len(keys)

    # -- snapshots ------------------------------------------------------

    def snapshot(self) -> dict:
        """Copy of the aggregates, for per-phase differences."""
        return {
            "aggs": {k: list(v) for k, v in self.aggs.items()},
            "layers": {k: list(v) for k, v in self.layers.items()},
            "worker_layers": {k: list(v) for k, v in self.worker_layers.items()},
        }
