"""Twisted Carlitz tensor powers and their L-functions.

A ``TwistedPower`` is a pair (P, n): the nonzero twist polynomial
P in GF(q)[θ] and the tensor exponent n >= 1.  Its 1x1 τ-matrix is
P(θ) (T - θ)^n; everything observable here flows through the explicit k x k
matrix over GF(q)[T] whose (i, j) entry (1-based) is the θ^(iq-j)
coefficient of P(θ) (T - θ)^n,

    sum_{l=0}^{n} T^(n-l) (-1)^l C(n, l) a_{iq-j-l},

with a_* the coefficients of P (zero outside [0, deg P]).  For any k >= 1
with k >= K = floor((m+n)/(q-1)) the determinant det(I - M U) is independent
of k and equals the global L-function L(P, n; T, U).  Entry [i][j] (0-based)
reads the θ^((i+1)q-(j+1)) coefficient, and for i >= K and j <= i that
exponent is at least (i+1)(q-1) > m+n, so the entry is zero.  Past its
leading K x K block M is therefore block upper triangular with a strictly
upper triangular corner, which adds nothing to det(I - M U); in particular
deg_U L <= K.  The library always evaluates at the minimal such k,
``stable_size`` = max(1, K).  The ceiling ceil((m+n)/(q-1)) exceeds it by
one exactly when q-1 ∤ m+n and m+n > q-1, and the last row at that size
reads only the zero slot.

This module defines the matrix once, for every consumer: the band
b_x = sum_l (-1)^l C(n, l) T^(n-l) a_{x-l}, x = 0..m+n, holds the θ^x
coefficients of P(θ) (T - θ)^n, with the weights (-1)^l C(n, l) mod p from
``band_signs``; ``band_index`` gives the k x k positions the matrix reads,
entry [i][j] (0-based) reading b_{(i+1)q-(j+1)} and a position outside
0..m+n reading a zero slot.  The band is built in one place, ``_band_codes``
(field codes for a batch of twists, on base-p digits: no field tables).
Every determinant reads one gather of it, ``_matrix_codes``: a batch's
k_min x k_min matrices as one code array, stacked by ``analytic_ranks`` and
one row at a time by ``l_function``.  The symbolic rows of ``_matrix_rows``
(tuples of tuples of ``Poly``, any k) are the windows' view of one twist.
Both gather through that one index, as do both point engines of
``fastrank`` (the band at T = t).

The determinant route's L-function, ``l_function``, is computed once per
``TwistedPower`` instance: the first call runs the Berkowitz determinant
and keeps the ``LFun`` on the instance, and later calls return it.  Only
``l_function`` reads that memo.  The Euler product and the point engines
never do, so each of them is still compared with a determinant it did not
supply.  Equality, hashing and ``dataclasses.replace`` see (P, n) only.

Ranks have one implementation, ``analytic_ranks``: the order at U = 1 of
det(I - M U) for a batch of coefficient rows, read from the Hasse
derivatives of one ``berkowitz_stack`` call; ``analytic_rank`` is its
one-row case.

The distinguished coset is q-1 | m+n with a_m = (-1)^n (``on_coset``); there
det(I - M U) has the factor (1 - U), left by the leading principal block of
size ``reduced_block_size``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

from .ff import binom_mod_p, check_int, from_digits, to_digits
# lfun_order_at is unused here; the benchmark's tracer patches it (item 2)
from .lfun import LFun, lfun_order_at  # noqa: F401
from .linalg import berkowitz_stack, det_identity_minus_mu
from .poly import Poly

__all__ = [
    "TwistedPower",
    "build_matrix",
    "l_function",
    "analytic_rank",
    "analytic_ranks",
    "infinity_factor",
    "d_coefficients",
    "band_signs",
    "band_index",
    "stable_size",
    "on_coset",
    "reduced_block_size",
]


def band_signs(n: int, p: int) -> list:
    """The band weights (-1)^l C(n, l) mod p, l = 0..n, of (T - θ)^n."""
    return [(-1) ** l * binom_mod_p(n, l, p) % p for l in range(n + 1)]


def band_index(q: int, k: int, width: int) -> list:
    """k x k band positions of the twist matrix: [i][j] -> (i+1)q - (j+1).

    ``width`` is the band length m+n+1; a position outside 0..width-1 reads
    the zero slot ``width``.
    """
    rows = [[(i + 1) * q - (j + 1) for j in range(k)] for i in range(k)]
    return [[x if 0 <= x < width else width for x in row] for row in rows]


def stable_size(q: int, n: int, m: int) -> int:
    """k_min = max(1, floor((m+n)/(q-1))), the minimal stable matrix size
    (module doc)."""
    return max(1, (m + n) // (q - 1))


def on_coset(q: int, n: int, m: int, lead=None) -> bool:
    """q-1 | m+n and, if ``lead`` (an int, q prime) is given, a_m = (-1)^n."""
    return (m + n) % (q - 1) == 0 and (lead is None or lead == (-1) ** n % q)


def reduced_block_size(q: int, n: int, m: int) -> int:
    """Size of the leading principal block left of the forced (1-U) factor.

    On the distinguished coset the stable matrix size is (m+n)/(q-1) and rows
    from that index down make det(I - M U) = (1-U) * det(I - M1 U) with M1
    the leading principal block one smaller.
    """
    if not on_coset(q, n, m):
        raise ValueError("reduced block needs q-1 | m+n")
    return (m + n) // (q - 1) - 1


@dataclass(frozen=True)
class TwistedPower:
    """The pair (P, n); m = deg P and the minimal stable matrix size derive."""

    P: Poly
    n: int

    def __post_init__(self):
        if self.P.is_zero():
            raise ValueError("twist polynomial must be nonzero")
        check_int(self.n, 1, "tensor exponent")
        q = self.ctx.order
        for c in self.P.coeffs:
            check_int(c, 0, "twist coefficient", q)

    @property
    def ctx(self):
        return self.P.ctx

    @property
    def m(self) -> int:
        return int(self.P.degree)

    @property
    def k_min(self) -> int:
        return stable_size(self.ctx.order, self.n, self.m)

    @cached_property
    def _det_l(self) -> LFun:
        # the determinant route's L, kept in the instance's __dict__ (which
        # the frozen dataclass's eq, hash and replace do not read); only
        # l_function reads it
        return LFun(self.ctx, det_identity_minus_mu(
            _matrix_codes([self.P.coeffs], self.n, self.ctx)[0], self.ctx))


def _band_codes(rows, n: int, ctx):
    """(N, m+n+2, n+1) int64: [r, x, d] is the field code of b_x's T^d
    coefficient for the r-th (N, m+1) coefficient row over ``ctx`` = GF(p^e),
    zero slot x = m+n+1 last.  The weights lie in GF(p): digits suffice."""
    import numpy as np

    rows = np.asarray(rows, dtype=np.int64)
    p, e, m = ctx.char, ctx.e, rows.shape[1] - 1
    # band[r, x, n-l, c]: digit c of (-1)^l C(n, l) a_(x-l)
    digits = to_digits(rows, p, e)
    band = np.zeros((len(rows), m + n + 2, n + 1, e), dtype=np.int64)
    for l, sign in enumerate(band_signs(n, p)):
        band[:, l : l + m + 1, n - l] = digits * sign % p
    return from_digits(band, p, e)


@lru_cache(maxsize=None)
def _band_gather(q: int, k: int, width: int):
    """``band_index`` as a read-only int64 array, cached per (q, k, width)."""
    import numpy as np

    out = np.array(band_index(q, k, width), dtype=np.int64)
    out.flags.writeable = False
    return out


def _matrix_codes(rows, n: int, ctx):
    """(N, k_min, k_min, n+1) int64: the rows' stable matrices as field
    codes, gathered from ``_band_codes`` through ``band_index``."""
    band = _band_codes(rows, n, ctx)
    width = band.shape[1] - 1
    k = stable_size(ctx.order, n, width - n - 1)
    return band[:, _band_gather(ctx.order, k, width)]


def _matrix_rows(tp: TwistedPower, k: int):
    # the band of P as Polys in T, then the gather
    band = [Poly(tp.ctx, b)
            for b in _band_codes([tp.P.coeffs], tp.n, tp.ctx)[0].tolist()]
    return tuple(tuple(band[x] for x in row)
                 for row in band_index(tp.ctx.order, k, len(band) - 1))


def build_matrix(tp: TwistedPower, k: int) -> tuple:
    """The k x k rows; requires k >= k_min for the stable determinant."""
    check_int(k, tp.k_min, "matrix size k")
    return _matrix_rows(tp, k)


def l_function(tp: TwistedPower) -> LFun:
    """det(I - M U) at the minimal stable size, division-free.

    Computed on the first call for ``tp`` and kept on it, so later calls
    for the same instance return the same ``LFun`` without a determinant.
    """
    return tp._det_l


def analytic_ranks(rows, n: int, ctx):
    """Order of vanishing at U = 1 of L(P, n) for every coefficient row P.

    ``rows`` is an (N, m+1) integer array of little-endian coefficient codes
    over ``ctx`` = GF(p^e), every row of degree m (nonzero last entry).  The
    rows' ``_matrix_codes`` go through ``berkowitz_stack`` together.  With
    c_i the U^i coefficient of L, L = sum_j D_j (U - 1)^j with the Hasse
    derivatives D_j = sum_i C(i, j) c_i.  C(i, j) mod p lies in GF(p), so
    it acts on the base-p digits of c_i one by one, over GF(p^e) as over
    GF(p); the order is the first j with D_j != 0.  Returns an int64 array
    of N ranks.
    """
    import numpy as np

    rows = np.asarray(rows, dtype=np.int64)
    count, width = rows.shape
    m = width - 1
    q, p = ctx.order, ctx.char
    check_int(n, 1, "tensor exponent")
    if m < 0 or not rows[:, m].all():
        raise ValueError("every row needs a nonzero last coefficient")
    if not count:
        return np.zeros(0, dtype=np.int64)
    if rows.min() < 0 or rows.max() >= q:
        raise ValueError(f"coefficients must be codes in [0, {q})")
    codes = _matrix_codes(rows, n, ctx)
    k = codes.shape[1]
    vec = berkowitz_stack(codes, ctx).reshape(count, k + 1, -1)
    hasse = np.array([[binom_mod_p(i, j, p) for i in range(k + 1)]
                      for j in range(k + 1)], dtype=np.int64)
    nonzero = (hasse @ vec % p).any(axis=2)
    # D_j != 0 for some j <= k, as c_0 = 1
    return nonzero.argmax(axis=1)


def analytic_rank(tp: TwistedPower) -> int:
    """Order of vanishing of the L-function at U = 1."""
    return int(analytic_ranks([tp.P.coeffs], tp.n, tp.ctx)[0])


def infinity_factor(tp: TwistedPower, nfrak: int) -> LFun:
    """Reciprocal local factor at infinity for twisting degree ``nfrak``.

    Requires nfrak <= -(m+n)/(q-1).  Strictly below the boundary (in
    particular whenever (q-1) does not divide m+n) the factor is the unit 1;
    at the boundary it is 1 - (-1)^n a_m U (returned as the numerator of the
    reciprocal factor).
    """
    ctx = tp.ctx
    q = ctx.order
    s = tp.m + tp.n
    # nfrak <= -s/(q-1) is -nfrak >= ceil(s/(q-1)) >= 1; a float stays one
    # under negation, and a bool negates to 0 or -1
    check_int(-nfrak, -(s // -(q - 1)), "-nfrak")
    if nfrak * (q - 1) == -s:
        am = tp.P.lead()
        if tp.n % 2 == 1:
            am = ctx.neg(am)
        return LFun(ctx, [Poly.one(ctx), Poly.constant(ctx, ctx.neg(am))])
    return LFun.one(ctx)


def d_coefficients(l: LFun, k: int):
    """Taylor-style coefficients whose leading zero run equals the rank.

    Write L(U) = V^(-k) * sum_i C_i V^i with V = U^(-1) (so C_i is the
    U^(k-i) coefficient), then substitute V = W + 1 and expand:
    D_j = sum_{i>=j} C(i, j) C_i.  The analytic rank is >= r0 exactly when
    D_0 = ... = D_{r0-1} = 0.  k is at least L's U-degree.
    """
    check_int(k, l.u_degree, "k")
    ctx = l.ctx
    p = ctx.char
    cs = [l.coeff(k - i) for i in range(k + 1)]
    out = []
    for j in range(k + 1):
        acc = Poly.zero(ctx)
        for i in range(j, k + 1):
            b = binom_mod_p(i, j, p)
            if b and not cs[i].is_zero():
                acc = acc + cs[i].scalar_mul(ctx.from_int(b))
        out.append(acc)
    return out
