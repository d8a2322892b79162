"""Twisted Carlitz tensor powers and their L-functions.

A ``TwistedPower`` is a pair (P, n): the nonzero twist polynomial
P in GF(q)[θ] and the tensor exponent n >= 1.  Its 1x1 τ-matrix is
P(θ) (T - θ)^n; everything observable here flows through the explicit k x k
matrix over GF(q)[T] whose (i, j) entry (1-based) is the θ^(iq-j)
coefficient of P(θ) (T - θ)^n,

    sum_{l=0}^{n} T^(n-l) (-1)^l C(n, l) a_{iq-j-l},

with a_* the coefficients of P (zero outside [0, deg P]).  For any
k >= (m+n)/(q-1) the determinant det(I - M U) is independent of k and equals
the global L-function L(P, n; T, U); the library always evaluates at the
minimal such k, ``stable_size``.

This module defines the matrix once, for every consumer: the band
b_x = sum_l (-1)^l C(n, l) T^(n-l) a_{x-l}, x = 0..m+n, holds the θ^x
coefficients of P(θ) (T - θ)^n, with the weights (-1)^l C(n, l) mod p from
``band_signs``; ``band_index`` gives the k x k positions the matrix reads,
entry [i][j] (0-based) reading b_{(i+1)q-(j+1)} and a position outside
0..m+n reading a zero slot.  The symbolic rows here (tuples of tuples of
``Poly``, the one form of the matrix and its finite windows) and both point
engines of ``fastrank`` (the band at T = t) gather through that one index.

The distinguished coset is q-1 | m+n with a_m = (-1)^n (``on_coset``); there
det(I - M U) has the factor (1 - U), left by the leading principal block of
size ``reduced_block_size``.
"""

from __future__ import annotations

from dataclasses import dataclass

from .ff import binom_mod_p
from .lfun import LFun, lfun_order_at
from .linalg import det_identity_minus_mu
from .poly import Poly

__all__ = [
    "TwistedPower",
    "build_matrix",
    "l_function",
    "analytic_rank",
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
    """k_min = max(1, ceil((m+n)/(q-1))), the minimal stable matrix size."""
    return max(1, -((m + n) // -(q - 1)))


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
        if self.n < 1:
            raise ValueError("tensor exponent must be >= 1")

    @property
    def ctx(self):
        return self.P.ctx

    @property
    def m(self) -> int:
        return int(self.P.degree)

    @property
    def k_min(self) -> int:
        return stable_size(self.ctx.order, self.n, self.m)

    def coeff(self, i: int):
        return self.P.coeff(i)


def _matrix_rows(tp: TwistedPower, k: int):
    # the band of P(θ)(T - θ)^n as Polys in T (b_x's T^(n-l) coefficient is
    # (-1)^l C(n, l) a_{x-l}), a zero slot, then the gather
    ctx, n, m = tp.ctx, tp.n, tp.m
    signs = [ctx.from_int(s) for s in band_signs(n, ctx.char)]
    band = []
    for x in range(m + n + 1):
        coeffs = [ctx.zero] * (n + 1)
        for l in range(max(0, x - m), min(n, x) + 1):
            coeffs[n - l] = ctx.mul(signs[l], tp.coeff(x - l))
        band.append(Poly(ctx, coeffs))
    band.append(Poly.zero(ctx))
    return tuple(tuple(band[x] for x in row)
                 for row in band_index(ctx.order, k, m + n + 1))


def build_matrix(tp: TwistedPower, k: int) -> tuple:
    """The k x k rows; requires k >= k_min for the stable determinant."""
    if k < tp.k_min:
        raise ValueError(f"k = {k} below the stable threshold {tp.k_min}")
    return _matrix_rows(tp, k)


def l_function(tp: TwistedPower) -> LFun:
    """det(I - M U) at the minimal stable size, division-free."""
    ctx = tp.ctx
    rows = _matrix_rows(tp, tp.k_min)
    vec = det_identity_minus_mu([list(r) for r in rows], Poly.one(ctx))
    return LFun(ctx, vec)


def analytic_rank(tp: TwistedPower) -> int:
    """Order of vanishing of the L-function at U = 1."""
    return lfun_order_at(l_function(tp), tp.ctx.one)


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
    if nfrak * (q - 1) > -s:
        raise ValueError("twisting degree too large for a regular map")
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
    D_0 = ... = D_{r0-1} = 0.
    """
    if l.u_degree > k:
        raise ValueError("U-degree of L exceeds k")
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
