"""Exact vanishing orders at U = 1 by evaluation at interpolation points.

The U^j coefficient of det(I - M U) has T-degree at most n*j <= n*k, so every
Hasse-derivative value H^i_U det(I - M U)|_{U=1} is a polynomial in T of
degree <= n*k.  Consequently the vanishing order of det(I - M U) at U = 1
(over GF(q)[T]) equals the minimum over any n*k + 1 distinct points t of the
multiplicity of the eigenvalue 1 of M(t): the per-point multiplicity can only
exceed the global order at roots of the first nonvanishing Hasse derivative,
and that polynomial cannot vanish at all n*k + 1 points.

The point rule.  The engine's digits are G's coefficients in P = G(φ(θ)),
for a φ over GF(p) of degree d that makes each of those Hasse derivatives a
polynomial in φ(T): φ = T for every twist, and φ = T^p - T for shift-stable
ones (their derivatives lie in GF(p)[T^p - T]).  It has degree
<= floor(n*k/d) in φ, so it cannot vanish at need = floor(n*k/d) + 1
distinct values of φ.  The engine takes prime q = p, so the derivatives
have coefficients in GF(p), and such a polynomial H has H(y^p) = H(y)^p:
its roots are closed under Frobenius.  Equally M(t^p) is M(t) with
Frobenius on every entry and φ(t^p) = φ(t)^p, so det(M(t) - I) and the
multiplicity of eigenvalue 1 agree at t and t^p.  Hence one point per
Frobenius orbit of φ values stands for the whole orbit, and the points
suffice once their orbit sizes add up to need.  The point field is the
smallest GF(p^s) with p^s >= d*need: any φ of degree d is at most d-to-1,
so it takes at least p^s/d values there, and its orbits together always
reach need.  The engine evaluates φ by Horner on the field's tables, keeps
the first x met in each orbit of φ(x), takes the orbits largest first and
stops once their sizes reach need.

Per point, the multiplicity of eigenvalue 1 is the number of trailing zero
coefficients of the characteristic polynomial of M(t) - I, computed by
Hessenberg reduction (Cohen's recurrence) on the point field's lookup
tables, which ``ff`` builds once per field from a log/antilog pair.
Multiplicity 0 is det(M(t) - I) != 0, and since that det is the U = 1 value
(up to sign), by the argument above a det vanishing at every point certifies
order >= 1.  The points' order is chosen to reach a nonzero det early: the
det lies in GF(q)[φ(T)] and vanishes where φ takes a value in GF(q) far
more often than elsewhere.  So those points, the orbits of size 1, come
last, and the prime-field points last of all.

Both forms build M(t) the way ``motive`` defines the matrix: the band of
P(θ)(T - θ)^n at T = t, v[x] = sum_l w_l(t) a[x - l] with
w_l(t) = (-1)^l C(n, l) t^(n-l) (``motive.band_signs``), then one gather
through ``motive.band_index``, M(t)[i][j] = v[(i+1)p - (j+1)].

``vanishing_order`` takes one coefficient sequence and runs in pure Python;
it serves single twists and is the oracle for the batched form.  It walks
the points taking the charpoly multiplicity, and stops at multiplicity 0 or
once its running minimum reaches a known lower bound.

``vanishing_orders`` takes an (N, w) array of the engine's digits, G's
coefficients.  ``rows`` maps them to P's coefficient rows, digits @ basis
mod p, where the basis holds the rows of φ^i (``_powers``; the identity for
φ = θ).  So φ alone fixes what a digit row means and which points the
engine takes.  The engine builds the basis and its certify plan on its
first batched call, and runs the live rows in lockstep with numpy, in two
phases, over uint16 copies of the point field's tables (``_ops``).

Certify: at every point, a nonzero det(M(t) - I) settles order 0 and the
row leaves.  Rows run in groups: runs of consecutive rows with equal digits
from position s up (this s counts digits, not the point field's degree;
the odometer varies digit 0 fastest, so up to p^s rows share them).
Digit x moves the coefficients in the support of basis row x and so only
band slots up to n above them, and row i of M(t) reads slots
(i+1)p - k .. (i+1)p - 1; so digits 0..s-1 reach only the top r = r(s)
rows of M(t) - I, and the other k - r rows, B, are the same for the whole
group.  Write the top rows as A0 + sum_x d_x A_x: A0 those of the group's
row with digits 0..s-1 set to 0, A_x those of the pure band of basis row x
(fixed per point).  Row operations that eliminate the first k - r
columns of N = [B^T | A0^T | A_0^T .. A_(s-1)^T] bring [B^T | A^T] to the
form [[U, *], [0, S]], and being linear they send A to
S = S0 + sum_x d_x S_x, with S0 and S_x the trailing r rows of the A0 and
A_x blocks.  Hence

    det(M(t) - I) = ± prod pivots(U) · det(S0 + sum_x d_x S_x).

A zero pivot means B's rows are dependent, and every row of the group has
det 0 at t; otherwise each row tests its own r x r matrix.  One kernel,
``_eliminate``, runs both eliminations with a pivot per matrix;
``_det_nonzero`` is that kernel on whole k x k matrices and stays as the
oracle.  The rule for s: a group's elimination (k - r columns over
k + s*r) is shared by up to p^s rows, and a row pays for its combination
(s blocks of r x r) and an r x r elimination, while r(s) grows with s.  The
engine estimates the cost per row in table lookups, once, for s
= 0 and every s with r(s) < k, and takes the cheapest (``_Plan``).  s = 0
(r = 0, one row per group) is plain elimination of every row; an engine
takes it when digit 0 already reaches all k rows (k <= 2 and small q = 2
cells) or when no s pays.

Count: only the rows certified order >= 1 get the charpoly, point by point:
Hessenberg reduction with a pivot per row (a row without a pivot swaps with
itself), Cohen's recurrence across the batch, and the multiplicity read off
the first nonzero coefficient.  A row leaves once its running minimum
reaches 1, so an order-1 row leaves at its first point of multiplicity 1.
The order is the minimum over all points, so this schedule gives the scalar
form's answer.

The engine supports prime q (digit-encoded subfield elements embed as
themselves).
"""

from __future__ import annotations

from functools import cached_property, lru_cache

from .ff import check_int, field_make, from_digits, is_prime, to_digits
from .motive import _band_gather, band_index, band_signs, stable_size

__all__ = ["RankEngine", "BatchScreen"]


def _powers(p, phi, count):
    """Coefficient rows of φ^i for i = 0..count, an int64 array; φ is
    little-endian over GF(p)."""
    import numpy as np

    width = (len(phi) - 1) * count + 1
    rows = np.zeros((count + 1, width), dtype=np.int64)
    rows[0, 0] = 1
    for i in range(count):
        rows[i + 1] = np.convolve(rows[i], phi)[:width] % p
    return rows


def _Tables(p: int, s: int):
    """The point field GF(p^s)'s ``ff`` tables, a ``FieldTables``."""
    t = field_make(p, s).tables()
    if t is None:  # ff builds no flat q^s * q^s tables above its cap
        raise ValueError(f"point field GF({p}^{s}) above table cap")
    return t


@lru_cache(maxsize=None)
def _ops(p: int, s: int):
    """Elementwise numpy mul, add and sub over GF(p^s), and its inv table,
    built once per field and shared by every engine over it.

    They act on uint16 arrays through flat uint16 copies of the tables:
    q <= 256, so an element and the flat index a*q + b both fit uint16, and
    a take on uint16 runs about 3x faster than on intp.
    """
    import numpy as np
    t = field_make(p, s).tables()
    q = t.q
    t_mul, t_add, t_sub, t_inv = (np.asarray(x, dtype=np.uint16)
                                  for x in (t.mul, t.add, t.sub, t.inv))

    def mul(a, b):
        return t_mul.take(a * q + b)

    def add(a, b):
        return t_add.take(a * q + b)

    def sub(a, b):
        return t_sub.take(a * q + b)

    return mul, add, sub, t_inv


class _Plan:
    """How the certify phase splits M(t) - I for the engine (module doc).

    Digit x of a row moves the coefficients in the support of basis row x,
    and so the band slots up to n above them; ``r`` is one more than the
    last row of M(t) that a slot moved by digits 0..s-1 reaches.  ``s`` is
    the one of lowest estimated cost per row, counted in table lookups:
    the group elimination of k - r columns over k + s*r, shared by up to
    p^s rows, then per row the combination of s blocks and an r x r
    elimination.  s = 0 (r = 0) is plain elimination of every row.

    The combination S0 + sum d_x S_x is linear over GF(p), so it runs on
    the base-p digits of the point field's elements, each digit in its own
    b bits of a uint16, with plain integer arithmetic: ``pack`` spreads an
    element's digits, b bits hold the largest digit sum (p-1)(1 + s(p-1)),
    and ``unpack`` reduces each digit sum mod p back to an element.  An s
    whose e digits of b bits overflow 16 bits (GF(p^e) the point field) is
    not considered.

    ``blocks[i]`` holds A_0^T .. A_(s-1)^T at the i-th point as a (k, s*r)
    array; ``nidx`` gathers N = [B^T | A0^T] from the band and ``diag`` is
    where N holds M's diagonal.
    """

    __slots__ = ("s", "r", "nidx", "diag", "blocks", "pack", "unpack")

    def __init__(self, eng):
        import numpy as np
        k, p, basis = eng.k, eng.p, eng._basis
        q, e = eng.tables.q, eng.tables.e  # the point field is GF(p^e)
        idx = _band_gather(p, k, eng.m + eng.n + 1)
        reach = [0]
        for row in basis:
            slots = np.flatnonzero(row)[:, None] + np.arange(eng.n + 1)
            hit = np.flatnonzero(np.isin(idx, slots).any(axis=1))
            reach.append(max(reach[-1], hit[-1] + 1 if hit.size else 0))

        def bits(s):
            return ((p - 1) * (1 + s * (p - 1))).bit_length()

        def elim(rows, cols, width):
            # a mul and a sub per updated entry
            return sum(2 * (rows - c - 1) * (width - c - 1)
                       for c in range(cols))

        def cost(s):
            r, w = reach[s], k + s * reach[s]
            group = elim(k, k - r, w) + k * w
            return group / p**s + (1 + s) * r * r + elim(r, r, r)

        s = min((s for s in range(len(basis))
                 if not s or reach[s] < k and bits(s) * e <= 16), key=cost)
        r, b = reach[s], bits(s)
        self.s, self.r = s, r
        order = list(range(r, k)) + list(range(r))
        self.nidx = idx[order].T
        self.diag = (np.arange(k), np.argsort(order))
        self.blocks = [
            eng._band(basis[:s], ws)[idx[:r].T].transpose(0, 2, 1)
            .reshape(k, s * r) for ws in eng.point_weights]
        shifts = b * np.arange(e)
        digits = to_digits(np.arange(q), p, e)
        self.pack = (digits << shifts).sum(axis=1).astype(np.uint16)
        sums = np.arange(1 << (b * e))[:, None] >> shifts & ((1 << b) - 1)
        self.unpack = from_digits(sums % p, p, e).astype(np.uint16)


class RankEngine:
    """Vanishing order of det(I - M(P) U) at U = 1 for fixed q, n, m, φ, k."""

    def __init__(self, p: int, n: int, m: int, *, phi=(0, 1),
                 k: int | None = None):
        check_int(p, 0, "p")  # an int; is_prime refuses the rest
        if not is_prime(p):
            raise ValueError("engine requires prime q")
        phi = tuple(c % p for c in phi)
        if len(phi) < 2 or not phi[-1]:
            raise ValueError("φ must have degree >= 1")
        check_int(n, 1, "n")
        check_int(m, 0, "m")
        if k is None:
            k = stable_size(p, n, m)
        check_int(k, 0, "k")
        self.p = p
        self.n = n
        self.m = m
        self.phi = phi
        self.k = k
        self._idx = band_index(p, k, m + n + 1)  # M(t) from the band at t
        if k == 0:
            self.points = self.point_weights = []
            return
        # orbits of φ values reaching need, in the smallest GF(p^s) whose
        # p^s/d values of φ (d = deg φ) can reach it (module doc)
        d = len(phi) - 1
        need = n * k // d + 1
        s = 1
        while p**s < d * need:
            s += 1
        t = self.tables = _Tables(p, s)
        q, frob, mul, add = t.q, t.frob, t.mul, t.add
        # one point per Frobenius orbit of φ(x), the first x met in each
        orbits, seen = [], set()  # (orbit size, point)
        for x in range(q):
            y = 0
            for c in reversed(phi):  # Horner; c embeds as itself
                y = add[mul[y * q + x] * q + c]
            if y in seen:
                continue
            size = 0
            while y not in seen:
                seen.add(y)
                y = frob[y]
                size += 1
            orbits.append((size, x))
        # largest orbits first, so orbits of size 1 (φ values in GF(p)) come
        # last, and prime-field points last of all: det vanishes there most
        # often (module doc)
        orbits.sort(key=lambda sx: (-sx[0], sx[1] < p))
        pts, reach = [], 0
        for size, x in orbits:
            if reach >= need:
                break
            pts.append(x)
            reach += size
        self.point_weights = [self._weights(x) for x in pts]
        self.points = pts

    def _weights(self, x):
        # w_l(x) = (-1)^l C(n,l) x^(n-l), embedded prime coefficients
        q, mul = self.tables.q, self.tables.mul
        ws = []
        for l, c in enumerate(band_signs(self.n, self.p)):
            tp = 1
            for _ in range(self.n - l):
                tp = mul[tp * q + x]
            ws.append(mul[c * q + tp])
        return ws

    def vanishing_order(self, coeffs, lower_bound: int = 0) -> int:
        """Order at U = 1 given P's coefficient sequence (length m+1 ints).

        Takes the charpoly multiplicity at each point in turn; the oracle
        for ``vanishing_orders``.  ``lower_bound`` is a certified lower
        bound on the order (>= 1 on the distinguished coset, by the forced
        factor); once the running minimum reaches it, the answer is exact.
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

    def vanishing_orders(self, digits):
        """``vanishing_order`` of the P of every row of ``digits``.

        ``digits`` is an (N, w) integer array of the engine's digits
        (``rows``).  Certify, then count (module doc); the certify phase
        groups the rows by their digits from position s up.
        """
        import numpy as np
        digits = np.asarray(digits)
        best = np.full(len(digits), self.k, dtype=np.int64)
        if self.k == 0:
            return best
        live = np.arange(len(digits))
        for i in range(len(self.points)):
            if live.size == 0:
                break
            nz = self._certify(digits[live], i)
            best[live[nz]] = 0
            live = live[~nz]
        rows = self.rows(digits[live])
        for ws in self.point_weights:
            if live.size == 0:
                break
            mult = self._charpoly_mults(self._matrices(rows, ws))
            best[live] = np.minimum(best[live], mult)
            more = best[live] > 1
            live, rows = live[more], rows[more]
        return best

    def rows(self, digits):
        """P's coefficient rows, an (N, m+1) array, of an (N, w) array of
        the engine's digits: G's coefficients, where P = G(φ(θ))."""
        return digits @ self._basis % self.p

    @cached_property
    def _basis(self):
        # the rows of φ^i, built on first use (numpy stays out of
        # construction)
        return _powers(self.p, self.phi, self.m // (len(self.phi) - 1))

    @cached_property
    def _plan(self):
        return _Plan(self)

    def _certify(self, digits, i):
        # det(M(t) - I) != 0 at the i-th point for every row of digits, by
        # one elimination of the shared rows per group (module doc)
        import numpy as np
        _, _, sub, _ = _ops(self.p, self.tables.e)
        plan = self._plan
        k, s, r = self.k, plan.s, plan.r
        # groups: runs of rows with equal digits from position s up
        hi = digits[:, s:]
        new = np.ones(len(digits), dtype=bool)
        new[1:] = (hi[1:] != hi[:-1]).any(axis=1)
        sizes = np.diff(np.append(np.flatnonzero(new), len(digits)))
        heads = digits[new]
        heads[:, :s] = 0
        # N = [B^T | A0^T | A_0^T .. A_(s-1)^T] per group
        a = np.empty((k, k + s * r, len(heads)), dtype=np.uint16)
        a[:, :k] = self._band(self.rows(heads),
                              self.point_weights[i])[plan.nidx]
        a[plan.diag] = sub(a[plan.diag], 1)
        a[:, k:] = plan.blocks[i][:, :, None]
        ok = self._eliminate(a, k - r)
        # S0 + sum d_x S_x per row, on packed base-p digits (_Plan)
        tail = np.repeat(plan.pack.take(a[k - r:, k - r:]), sizes, axis=2)
        acc = tail[:, :r].copy()
        for x in range(s):
            acc += digits[:, x].astype(np.uint16) * tail[:, r * (x + 1):
                                                            r * (x + 2)]
        return np.repeat(ok, sizes) & self._eliminate(plan.unpack.take(acc),
                                                      r)

    def _band(self, rows, ws):
        # the band v[x] = sum_l w_l(t) a[x - l] at t of every row of an
        # (N, m+1) array, with the zero slot m+n+1, as (m+n+2, N) uint16
        import numpy as np
        mul, add, _, _ = _ops(self.p, self.tables.e)
        n, m = self.n, self.m
        cols = np.asarray(rows, dtype=np.uint16).T  # coefficient-major
        v = np.zeros((m + n + 2, cols.shape[1]), dtype=np.uint16)
        for l, w in enumerate(ws):
            if w:
                v[l:l + m + 1] = add(v[l:l + m + 1], mul(w, cols))
        return v

    def _matrices(self, rows, ws):
        # M(t) - I for every row of an (N, m+1) array, as a (k, k, N) uint16
        # array: row axis last, where the eliminations run fastest.  One
        # gather of the band through motive's band index
        import numpy as np
        _, _, sub, _ = _ops(self.p, self.tables.e)
        idx = _band_gather(self.p, self.k, self.m + self.n + 1)
        h = self._band(rows, ws)[idx]
        diag = np.arange(self.k)
        h[diag, diag] = sub(h[diag, diag], 1)  # M - I
        return h

    def _det_nonzero(self, a):
        # det != 0 for each matrix of a (k, k, N) array; overwrites a
        return self._eliminate(a, self.k)

    def _eliminate(self, a, ncols):
        # Gaussian elimination of the first ncols columns of each matrix of
        # an (R, W, N) array, R >= ncols, every row operation applied to all
        # W columns, with a pivot per matrix (the first nonzero entry; a
        # matrix with no pivot in column c keeps its rows); True where every
        # pivot is nonzero.  Only the matrices whose pivot row moves take
        # part in the swap.  Overwrites a
        import numpy as np
        mul, _, sub, inv = _ops(self.p, self.tables.e)
        ok = np.ones(a.shape[2], dtype=bool)
        for c in range(ncols):
            piv = c + (a[c:, c] != 0).argmax(axis=0)
            at = np.flatnonzero(piv != c)
            if at.size:
                top = a[c, c:, at]
                a[c, c:, at] = a[piv[at], c:, at]
                a[piv[at], c:, at] = top
            ok &= a[c, c] != 0
            f = mul(a[c + 1:, c], inv.take(a[c, c]))
            a[c + 1:, c + 1:] = sub(a[c + 1:, c + 1:],
                                    mul(f[:, None], a[c, c + 1:]))
        return ok

    def _charpoly_mults(self, h):
        # multiplicity of eigenvalue 0 of each matrix of a (k, k, N) array;
        # overwrites h
        import numpy as np
        mul, add, sub, inv = _ops(self.p, self.tables.e)
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
        k, n, m = self.k, self.n, self.m
        # the band at t, v[x] = sum_l w_l(t) a[x - l], and the zero slot
        v = [0] * (m + n + 2)
        for l, w in enumerate(ws):
            if w:
                for x in range(m + 1):
                    c = a[x]
                    if c:
                        v[x + l] = add[v[x + l] * q + mul[w * q + c]]
        rows = [[v[x] for x in row] for row in self._idx]
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
    certify phase does the same job at every point.  It stays only because
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
