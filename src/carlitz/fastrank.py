"""Exact vanishing orders at U = 1 by evaluation at interpolation points.

The U^j coefficient of det(I - M U) has T-degree at most n*j <= n*k, so every
Hasse-derivative value H^i_U det(I - M U)|_{U=1} is a polynomial in T of
degree <= n*k.  Consequently the vanishing order of det(I - M U) at U = 1
(over GF(q)[T]) equals the minimum over any n*k + 1 distinct points t of the
multiplicity of the eigenvalue 1 of M(t): the per-point multiplicity can only
exceed the global order at roots of the first nonvanishing Hasse derivative,
and that polynomial cannot vanish at all n*k + 1 points.

For shift-stable twist polynomials every such derivative lies in
GF(q)[T^q - T], so points with distinct Artin-Schreier values t^q - t suffice
and floor(n*k/q) + 1 of them are enough.

Per point, the multiplicity of eigenvalue 1 is the number of trailing zero
coefficients of the characteristic polynomial of M(t) - I, computed by
Hessenberg reduction over a small lookup-table field (Cohen's recurrence).
Points are scanned in a fixed order with two early exits: multiplicity 0
settles order 0 immediately, and reaching a known lower bound settles the
order exactly.  The minimum does not depend on the order, so the order is
chosen to reach the multiplicity-0 exit early: det(M(t) - I) is a
polynomial over GF(q) in T (in S = T^q - T for shift-stable rows), and it
vanishes at a point of GF(q) far more often than at a point outside it.
Extension-field points therefore come first and prime-field points last;
for shift-stable engines the points whose Artin-Schreier value t^q - t lies
in GF(q) go last as well.

Two forms run the same points in the same order.  ``vanishing_order`` takes
one coefficient sequence and runs in pure Python; it serves single twists
and is the oracle for the batched form.  ``vanishing_orders`` takes an
(N, m+1) array and keeps every row in lockstep with numpy.  Per point it
builds M(t) - I for the rows still live.  At the first point it runs
batched Gaussian elimination on a copy, with a pivot per row: a nonzero
determinant is exactly multiplicity 0, which settles most rows at a
fraction of the cost of the full kernel (the det-first exit).  The rows
with determinant 0 go on: they are reduced to Hessenberg form with a pivot
per row (a row without a pivot swaps with itself), Cohen's recurrence runs
across the batch, and each multiplicity is read off the first nonzero
charpoly coefficient.  At later points every live row has already shown
multiplicity >= 1; most of them have order >= 1, so det(M(t) - I) vanishes
at every t and the elimination would be wasted there: those points run the
charpoly kernel alone.  Field arithmetic goes through uint16 copies of the
same GF(p^s) lookup tables.  The early exits become a mask: a row leaves
the batch once its running minimum reaches the lower bound.

The engine supports prime q (digit-encoded subfield elements embed as
themselves).
"""

from __future__ import annotations

import math

from .ff import PrimeField, binom_mod_p, field_make

__all__ = ["RankEngine", "BatchScreen", "reduced_block_size"]

_FIELD_CAP = 256  # flat q^s * q^s tables
_TABLES: dict = {}  # (p, s) -> _Tables, read-only and shared by all engines


def reduced_block_size(q: int, n: int, m: int) -> int:
    """Size of the leading principal block left of the forced (1-U) factor.

    On the distinguished coset (q-1 | m+n with a_m = (-1)^n) the stable
    matrix size is (m+n)/(q-1) and rows from that index down make
    det(I - M U) = (1-U) * det(I - M1 U) with M1 the leading principal block
    one smaller.
    """
    if (m + n) % (q - 1) != 0:
        raise ValueError("reduced block needs q-1 | m+n")
    return (m + n) // (q - 1) - 1


def _index_map(p: int, n: int, m: int, k: int):
    """(k, k, n+1) array: entry (i, j, l) is the a-index (i+1)p - (j+1) - l.

    M(t)[i][j] = sum_l w_l(t) * a[(i+1)p - (j+1) - l]; out-of-range indices
    point to the zero-padding slot m+1.
    """
    import numpy as np
    i, j, l = np.ogrid[:k, :k, :n + 1]
    idx = (i + 1) * p - (j + 1) - l
    return np.where((idx >= 0) & (idx <= m), idx, m + 1)


class _Tables:
    __slots__ = ("q", "mul", "add", "sub", "neg", "inv", "_ops")

    def __init__(self, p: int, s: int):
        if p**s > _FIELD_CAP:
            raise ValueError(f"point field GF({p}^{s}) above table cap")
        f = field_make(p, s)
        q = self.q = p**s
        self.mul = [f.mul(a, b) for a in range(q) for b in range(q)]
        self.add = [f.add(a, b) for a in range(q) for b in range(q)]
        self.sub = [f.sub(a, b) for a in range(q) for b in range(q)]
        self.neg = [f.neg(a) for a in range(q)]
        self.inv = [0] + [f.inv(a) for a in range(1, q)]
        self._ops = None

    def ops(self):
        """Elementwise numpy mul, add and sub, and the inv table, built once.

        They act on uint16 arrays through flat uint16 copies of the tables:
        q <= 256, so an element and the flat index a*q + b both fit uint16,
        and a take on uint16 runs about 3x faster than on intp.
        """
        if self._ops is None:
            import numpy as np
            q = self.q
            t_mul, t_add, t_sub, t_inv = (
                np.asarray(t, dtype=np.uint16)
                for t in (self.mul, self.add, self.sub, self.inv))

            def mul(a, b):
                return t_mul.take(a * q + b)

            def add(a, b):
                return t_add.take(a * q + b)

            def sub(a, b):
                return t_sub.take(a * q + b)

            self._ops = (mul, add, sub, t_inv)
        return self._ops


class RankEngine:
    """Vanishing order of det(I - M(P) U) at U = 1 for fixed (q, n, m, k)."""

    def __init__(self, p: int, n: int, m: int, *, shift_stable: bool = False,
                 k: int | None = None):
        if not isinstance(field_make(p), PrimeField):
            raise ValueError("engine requires prime q")
        self.p = p
        self.n = n
        self.m = m
        if k is None:
            k = max(1, math.ceil((m + n) / (p - 1)))
        self.k = k
        self._idx = None  # _index_map, built on the first batched call
        if k == 0:
            self.points = self.point_weights = []
            return
        bound = n * k
        if shift_stable:
            need = bound // p + 1
            s = 1
            while p ** (s - 1) < need:
                s += 1
        else:
            need = bound + 1
            s = 1
            while p**s < need:
                s += 1
        t = _TABLES.get((p, s))
        if t is None:
            t = _TABLES[(p, s)] = _Tables(p, s)
        self.tables = t
        q = t.q
        mul, sub = t.mul, t.sub
        if shift_stable:
            # one point per Artin-Schreier value t^p - t
            found, seen = [], set()  # (AS value, point)
            for x in range(q):
                xp = x
                for _ in range(p - 1):
                    xp = mul[xp * q + x]
                asv = sub[xp * q + x]
                if asv not in seen:
                    seen.add(asv)
                    found.append((asv, x))
                    if len(found) == need:
                        break
            # AS values in GF(p) last, and prime-field points (AS value 0)
            # last of all: det vanishes there most often (module doc)
            found.sort(key=lambda ax: (ax[0] < p, ax[1] < p))
            pts = [x for _, x in found]
        else:
            # prime-field points last (module doc)
            pts = sorted(range(need), key=lambda x: x < p)
        self.point_weights = [self._weights(x) for x in pts]
        self.points = pts

    def _weights(self, x):
        # w_l(x) = (-1)^l C(n,l) x^(n-l), embedded prime coefficients
        q, mul = self.tables.q, self.tables.mul
        n, p = self.n, self.p
        ws = []
        for l in range(n + 1):
            c = binom_mod_p(n, l, p)
            if l % 2 == 1:
                c = -c % p
            tp = 1
            for _ in range(n - l):
                tp = mul[tp * q + x]
            ws.append(mul[c * q + tp])
        return ws

    def vanishing_order(self, coeffs, lower_bound: int = 0) -> int:
        """Order at U = 1 given P's coefficient sequence (length m+1 ints).

        ``lower_bound`` is a certified lower bound on the order (used on the
        distinguished coset where the order is >= 1 by the forced factor);
        once the running minimum reaches it, the answer is exact.
        """
        if self.k == 0:
            return 0
        best = None
        for ws in self.point_weights:
            mult = self._mult_at(coeffs, ws)
            if best is None or mult < best:
                best = mult
                if best <= lower_bound:
                    return best
        return best

    def vanishing_orders(self, rows, lower_bound: int = 0):
        """``vanishing_order`` of every row of an (N, m+1) integer array.

        All rows walk the points in lockstep, one batched pass per point; a
        row leaves once its running minimum reaches ``lower_bound``.  The
        det-first exit runs at the first point only (module doc).
        """
        import numpy as np
        rows = np.asarray(rows)
        best = np.full(len(rows), self.k, dtype=np.int64)
        if self.k == 0:
            return best
        live = np.arange(len(rows))
        for i, ws in enumerate(self.point_weights):
            if live.size == 0:
                break
            if i == 0:
                mult = self._mults_at(rows[live], ws)
            else:
                mult = self._charpoly_mults(self._matrices(rows[live], ws))
            best[live] = np.minimum(best[live], mult)
            live = live[best[live] > lower_bound]
        return best

    def _mults_at(self, rows, ws):
        # _mult_at for every row of an (N, m+1) array: the det-first exit,
        # then Hessenberg and charpoly for the rows with det(M(t) - I) = 0
        import numpy as np
        h = self._matrices(rows, ws)
        mult = np.zeros(len(rows), dtype=np.int64)
        left = np.nonzero(~self._det_nonzero(h.copy()))[0]
        if left.size:
            mult[left] = self._charpoly_mults(h[:, :, left])
        return mult

    def _matrices(self, rows, ws):
        # M(t) - I for every row of an (N, m+1) array, as a (k, k, N) uint16
        # array: row axis last, where the eliminations run fastest
        import numpy as np
        mul, add, sub, _ = self.tables.ops()
        if self._idx is None:
            self._idx = _index_map(self.p, self.n, self.m, self.k)
        # coefficient-major, with the zero-padding slot m+1 as the last row
        cols = np.zeros((self.m + 2, len(rows)), dtype=np.uint16)
        cols[:-1] = np.asarray(rows).T
        k = self.k
        h = np.zeros((k, k, len(rows)), dtype=np.uint16)
        for l, w in enumerate(ws):
            if w:
                h = add(h, mul(w, cols[self._idx[:, :, l]]))
        diag = np.arange(k)
        h[diag, diag] = sub(h[diag, diag], 1)  # M - I
        return h

    def _det_nonzero(self, a):
        # det != 0 for each matrix of a (k, k, N) array, by Gaussian
        # elimination with a pivot per row (a row with no pivot in column c
        # swaps row c with itself); overwrites a
        import numpy as np
        mul, _, sub, inv = self.tables.ops()
        k, count = self.k, a.shape[2]
        at = np.arange(count)
        ok = np.ones(count, dtype=bool)
        for c in range(k):
            piv = c + (a[c:, c] != 0).argmax(axis=0)
            top = a[c, c:].copy()
            a[c, c:] = a[piv, c:, at].T
            a[piv, c:, at] = top.T
            ok &= a[c, c] != 0
            f = mul(a[c + 1:, c], inv.take(a[c, c]))
            a[c + 1:, c + 1:] = sub(a[c + 1:, c + 1:],
                                    mul(f[:, None], a[c, c + 1:]))
        return ok

    def _charpoly_mults(self, h):
        # multiplicity of eigenvalue 0 of each matrix of a (k, k, N) array;
        # overwrites h
        import numpy as np
        mul, add, sub, inv = self.tables.ops()
        k, count = self.k, h.shape[2]
        # Hessenberg reduction by similarity, pivot per row (a row with no
        # pivot swaps row and column c+1 with themselves)
        at = np.arange(count)
        for c in range(k - 2):
            piv = c + 1 + (h[c + 1:, c] != 0).argmax(axis=0)
            top = h[c + 1].copy()
            h[c + 1] = h[piv, :, at].T
            h[piv, :, at] = top.T
            left = h[:, c + 1].copy()
            h[:, c + 1] = h[:, piv, at]
            h[:, piv, at] = left
            # rows r -= f_r row c+1, then column c+1 += f_r column r; the
            # eliminations for different r commute
            f = mul(h[c + 2:, c], inv.take(h[c + 1, c]))
            h[c + 2:, c:] = sub(h[c + 2:, c:], mul(f[:, None], h[c + 1, c:]))
            for r in range(c + 2, k):
                h[:, c + 1] = add(h[:, c + 1], mul(f[r - c - 2], h[:, r]))
        # Cohen's charpoly recurrence, coefficient-major polynomials
        polys = [np.ones((1, count), dtype=np.uint16)]
        for mm in range(1, k + 1):
            prev = polys[mm - 1]
            cur = np.zeros((mm + 1, count), dtype=np.uint16)
            cur[1:] = prev
            cur[:mm] = sub(cur[:mm], mul(h[mm - 1, mm - 1], prev))
            tprod = np.ones(count, dtype=np.uint16)
            for i in range(mm - 1, 0, -1):
                tprod = mul(tprod, h[i, i - 1])
                coef = mul(h[i - 1, mm - 1], tprod)
                cur[:i] = sub(cur[:i], mul(coef, polys[i - 1]))
            polys.append(cur)
        # the charpoly is monic, so some coefficient is nonzero
        return (polys[k] != 0).argmax(axis=0)

    def _mult_at(self, a, ws):
        # multiplicity of eigenvalue 1 of M(t), via charpoly of M(t) - I
        t = self.tables
        q, mul, add, sub, inv = t.q, t.mul, t.add, t.sub, t.inv
        k, n, p, m = self.k, self.n, self.p, self.m
        rows = []
        for i in range(1, k + 1):
            base = i * p - 1  # a-index at column j0=0 and l=0, minus j0+l
            row = [0] * k
            lo = max(0, base - m)  # j0+l >= base-m
            hi = min(k - 1 + n, base)
            if lo <= hi:
                for j0 in range(k):
                    idx0 = base - j0
                    acc = 0
                    for l in range(n + 1):
                        idx = idx0 - l
                        if 0 <= idx <= m:
                            c = a[idx]
                            if c:
                                acc = add[acc * q + mul[ws[l] * q + c]]
                    row[j0] = acc
            rows.append(row)
        for i in range(k):
            rows[i][i] = sub[rows[i][i] * q + 1]  # M - I
        # Hessenberg reduction by similarity, with pivoting
        h = rows
        for c in range(k - 2):
            piv = -1
            for r in range(c + 1, k):
                if h[r][c]:
                    piv = r
                    break
            if piv < 0:
                continue
            if piv != c + 1:
                h[c + 1], h[piv] = h[piv], h[c + 1]
                for r in range(k):
                    hr = h[r]
                    hr[c + 1], hr[piv] = hr[piv], hr[c + 1]
            pinv = inv[h[c + 1][c]]
            hc1 = h[c + 1]
            for r in range(c + 2, k):
                f = h[r][c]
                if f:
                    fm = mul[f * q + pinv]
                    frow = mul[fm * q:fm * q + q]
                    hr = h[r]
                    for j in range(c, k):
                        hr[j] = sub[hr[j] * q + frow[hc1[j]]]
                    for r2 in range(k):
                        hr2 = h[r2]
                        hr2[c + 1] = add[hr2[c + 1] * q + frow[hr2[r]]]
        # Cohen's charpoly recurrence for Hessenberg matrices
        polys = [[1]]
        for mm in range(1, k + 1):
            prev = polys[mm - 1]
            hm = h[mm - 1][mm - 1]
            cur = [0] * (mm + 1)
            for idx in range(mm):
                cur[idx + 1] = prev[idx]
            if hm:
                hrow = mul[hm * q:hm * q + q]
                for idx in range(mm):
                    cur[idx] = sub[cur[idx] * q + hrow[prev[idx]]]
            tprod = 1
            for i in range(mm - 1, 0, -1):
                tprod = mul[tprod * q + h[i][i - 1]]
                if not tprod:
                    break
                coef = mul[h[i - 1][mm - 1] * q + tprod]
                if coef:
                    crow = mul[coef * q:coef * q + q]
                    pi = polys[i - 1]
                    for idx in range(len(pi)):
                        cur[idx] = sub[cur[idx] * q + crow[pi[idx]]]
            polys.append(cur)
        final = polys[k]
        mult = 0
        while mult <= k and final[mult] == 0:
            mult += 1
        return mult


class BatchScreen:
    """Certificate that the vanishing order is 0, at the prime-field points.

    A nonzero det(M(t) - I) at any t = 0..p-1 proves order 0; this runs the
    engine's elimination kernel there.  Scans no longer call it: the engine's
    det-first exit does the same job at every point.  It stays only because
    the benchmark's tracer patches its methods, and goes with the benchmark
    change of ROADMAP item 1.
    """

    def __init__(self, p: int, n: int, m: int, k: int):
        self.engine = RankEngine(p, n, m, k=k)
        self.weights = [self.engine._weights(t) for t in range(p)] if k else []

    def order_zero_mask(self, block):
        """block: (N, m+1) integer array of coefficient rows -> bool mask."""
        import numpy as np
        eng = self.engine
        rows = np.asarray(block)
        certified = np.zeros(len(rows), dtype=bool)
        undecided = np.arange(len(rows))
        for ws in self.weights:
            if undecided.size == 0:
                break
            nz = eng._det_nonzero(eng._matrices(rows[undecided], ws))
            certified[undecided[nz]] = True
            undecided = undecided[~nz]
        return certified
