"""Local L-factors from the definition, and the truncated Euler product.

This module never touches the matrix formula: for a monic irreducible 𝔓 of
degree d it reduces the 1x1 τ-matrix P (T - θ)^n modulo 𝔓, forms the d-fold
Frobenius-twisted product, checks that the result is fixed coefficient-wise
by x -> x^q (so it descends to GF(q)[T]) and that it has T-degree n·d when
𝔓 does not divide P, and assembles local factors

    (1 - N_𝔓(T) U^d)^(-1)

into a power series in U.  Truncated at U-degree D the product over all
primes of degree <= D must agree with det(I - M U) through degree D, and
equal it exactly once D reaches the stable matrix size — that cross-check is
the decisive end-to-end verification and lives in the test suite.

``truncated_product`` computes the N_𝔓 of all primes of one degree at once
(``local_factors``), on int64 arrays over GF(p) with the digit encoding of
``ff``: a residue of GF(q)[θ]/𝔓, q = p^e, is the vector of the e base-p
digits of each of its d coordinates.  Every step of the definition is one
array operation across the primes.  Each degree has two tables, the
reduction of x^c θ^k mod 𝔓 (θ̄ is its k = 1 column) and the Frobenius matrix,
built from the primes' residue contexts on the first call for that degree,
in blocks of ``_BLOCK`` primes so that no work array grows with the number of
primes.  One contraction of the reduction table with the θ-coefficients of
the τ-matrix gives P̄(T - θ̄)^n; the same table reduces every product.  Those
coefficients are built here, not read from ``motive``'s band, so that the
agreement with the determinant still tests the band.  The series is
assembled per degree: when 2d > D the degree-d factors multiply to
1 + (sum of N_𝔓) U^d mod U^(D+1), one digit-wise sum; only degrees
d <= D/2 take the per-prime recurrence.  numpy is imported inside the
functions that use it, so importing this module or listing primes does not
load it.

The scalar ``local_factor`` (``reduce_tau``, ``twisted_power``) computes one
prime's factor on ``Poly`` objects.  It is the single-prime path (the θ
factor and twist multipliers of ``symmetry``) and the oracle the batch is
tested against.

Primes of each degree, the residue context of each prime (with its
reduction rows and Frobenius columns) and the batch tables are built once
per process and shared by every twist.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .ff import (ResidueCtx, binom_mod_p, check_int, from_digits,
                 generator_digits, to_digits)
from .lfun import LFun
from .motive import TwistedPower
from .poly import Poly, irreducibles_of_degree

__all__ = [
    "LocalFactor",
    "residue_ctx",
    "reduce_tau",
    "twisted_power",
    "local_factor",
    "local_factors",
    "truncated_product",
    "primes_of_degree",
    "distinct_prime_factors",
]

_BLOCK = 512  # primes per table block


@lru_cache(maxsize=None)
def residue_ctx(prime: Poly) -> ResidueCtx:
    """GF(q)[θ]/(𝔓) for a monic irreducible 𝔓 (verified), one per prime."""
    return ResidueCtx(prime.ctx, prime.coeffs)


@lru_cache(maxsize=None)
def primes_of_degree(ctx, d: int):
    """Monic irreducibles of degree d, in ``irreducibles_of_degree`` order."""
    return tuple(irreducibles_of_degree(ctx, d))


def _check_field(tp: TwistedPower, ctx):
    # Poly arithmetic uses its left operand's field, so a prime over another
    # field would give a wrong answer rather than an error
    if ctx != tp.ctx:
        raise ValueError(f"prime over {ctx!r}, twist over {tp.ctx!r}")


def reduce_tau(tp: TwistedPower, prime: Poly) -> Poly:
    """P̄ (T - θ̄)^n in (GF(q)[θ]/𝔓)[T]; T-degree n unless 𝔓 | P."""
    _check_field(tp, prime.ctx)
    rc = residue_ctx(prime)
    rem = (tp.P % prime).coeffs
    pbar = rem + (rc.base.zero,) * (rc.d - len(rem))
    lin = Poly(rc, [rc.neg(rc.theta()), rc.one])  # T - θ̄
    out = lin**tp.n
    return out.scalar_mul(pbar)


def twisted_power(a: Poly, d: int) -> Poly:
    """a^(d-1 twists) ... a^(1 twist) * a with coefficient-wise x -> x^(q^k)."""
    rc = a.ctx
    result = a
    cur = a
    for _ in range(d - 1):
        cur = Poly(rc, [rc.frobenius(c, 1) for c in cur.coeffs])
        result = result * cur
    return result


@dataclass(frozen=True)
class LocalFactor:
    """Inverse factor 1 - N_𝔓(T) U^d at a monic irreducible 𝔓 of degree d."""

    prime: Poly
    d: int
    npoly: Poly  # N_𝔓 over the base field; zero exactly when 𝔓 | P

    def inverse_factor(self) -> LFun:
        """The polynomial 1 - N U^d (reciprocal of the local factor)."""
        ctx = self.prime.ctx
        cs = [Poly.one(ctx)] + [Poly.zero(ctx)] * (self.d - 1) + [-self.npoly]
        return LFun(ctx, cs)


def local_factor(tp: TwistedPower, prime: Poly) -> LocalFactor:
    base = tp.ctx
    d = int(prime.degree)
    red = reduce_tau(tp, prime)
    tw = twisted_power(red, d)
    rc = tw.ctx
    # Frobenius invariance forces descent to the base field; its failure
    # would mean an arithmetic bug, never bad input.
    coeffs = []
    for c in tw.coeffs:
        if rc.frobenius(c, 1) != c:
            raise AssertionError("twisted product not Frobenius-fixed")
        coeffs.append(rc.constant_of(c))
    n = Poly(base, coeffs)
    if not red.is_zero() and n.degree != tp.n * d:
        raise AssertionError("local factor has wrong T-degree")
    return LocalFactor(prime=prime, d=d, npoly=n)


class _Block:
    """The stacked tables of up to ``_BLOCK`` primes of one degree d.

    A residue is a row of D = d*e base-p digits, column i*e + a holding
    digit a of its θ^i coordinate; a polynomial in T over the residue fields
    of the block is a (primes, T-coefficients, D) array.  ``red[b, :, k, c]``
    is x^c θ^k mod 𝔓_b for k <= k_max and c <= 2e-2 (x the generator of
    GF(q)), so one contraction reduces the θ-coefficients of the τ-matrix,
    or the digit-and-θ convolution of two residues, to D digits.  Its k = 1,
    c = 0 column is θ̄, which no other table holds.  ``frob[b]`` maps a row
    v to v^q.  All entries are reduced mod p.
    """

    def __init__(self, ctx, primes):
        self.ctx = ctx
        self.p, self.e, self.d = ctx.char, ctx.e, int(primes[0].degree)
        self.rcs = [residue_ctx(prime) for prime in primes]
        p, e, d = self.p, self.e, self.d
        basis = [tuple(p**a if j == i else 0 for j in range(d))
                 for i in range(d) for a in range(e)]  # x^a θ^i
        self.frob = to_digits([[rc.frobenius(x, 1) for x in basis]
                               for rc in self.rcs], p, e).reshape(
            len(self.rcs), d * e, d * e)
        self._grow(max(1, 2 * d - 2))

    def _grow(self, k_max: int):
        """Build ``red`` for θ^0 .. θ^k_max, from the residue contexts."""
        import numpy as np

        p, e, d = self.p, self.e, self.d
        codes = []
        for rc in self.rcs:
            cur, theta = rc.one, rc.theta()
            for _ in range(k_max + 1):
                codes.append(cur)
                cur = rc.mul(cur, theta)
        rows = to_digits(codes, p, e).reshape(-1, k_max + 1, d, e)
        # xs[A, c, a]: digit A of x^(c+a), so x^c times a digit row a
        xs = generator_digits(self.ctx, 2 * e - 1)
        self.red = np.einsum("Aca,bkia->biAkc", xs, rows).reshape(
            len(self.rcs), d * e, k_max + 1, 2 * e - 1) % p

    def _mul(self, a, b):
        """Products of (B, ta, D) and (B, tb, D) polynomials, per residue field."""
        import numpy as np

        p, d, e = self.p, self.d, self.e
        nb, ta, tb = a.shape[0], a.shape[1], b.shape[1]
        # a convolution entry sums at most tb*d*e digit products < p^2; the
        # reduction adds (2d-1)(2e-1) of those times a digit < p
        if tb * d * e * (2 * d - 1) * (2 * e - 1) * (p - 1) ** 3 >= 2**63:
            raise OverflowError(f"int64 sums overflow at d={d}, {self.ctx}")
        a4 = a.reshape(nb, ta, d, e)
        b4 = b.reshape(nb, tb, d, e)
        conv = np.zeros((nb, ta + tb - 1, 2 * d - 1, 2 * e - 1), dtype=np.int64)
        for s, j, c in np.ndindex(tb, d, e):
            conv[:, s : s + ta, j : j + d, c : c + e] += (
                a4 * b4[:, s, j, c, None, None, None])
        red = self.red[:, :, : 2 * d - 1].reshape(nb, d * e, -1)
        return conv.reshape(nb, ta + tb - 1, -1) @ red.transpose(0, 2, 1) % p

    def norms(self, tp: TwistedPower):
        """N_𝔓 for each prime of the block, (B, n*d + 1, e) base-p digits: the
        d-fold Frobenius product of P̄(T - θ̄)^n, one contraction of ``red``."""
        import numpy as np

        _check_field(tp, self.ctx)
        p, e, d, n = self.p, self.e, self.d, tp.n
        coeffs = tp.P.coeffs
        width = len(coeffs) + n  # θ^0 .. θ^(m+n)
        if width > self.red.shape[2]:
            self._grow(width - 1)
        # tau[x, a, n - l]: digit a of (-1)^l C(n, l) a_(x-l), the θ^x
        # coefficient of the T^(n-l) coefficient of P(θ)(T - θ)^n
        digits = to_digits(coeffs, p, e)
        tau = np.zeros((width, e, n + 1), dtype=np.int64)
        for l in range(n + 1):
            tau[l : l + len(coeffs), :, n - l] = (
                (-1) ** l * binom_mod_p(n, l, p) * digits % p)
        # P̄(T - θ̄)^n as (B, n + 1, D), P̄ (zero iff 𝔓 | P) at T^n
        red = np.tensordot(self.red[:, :, :width, :e], tau,
                           axes=2).transpose(0, 2, 1) % p
        acc = cur = red
        for _ in range(d - 1):
            cur = cur @ self.frob % p
            acc = self._mul(acc, cur)
        # Frobenius invariance forces descent to the base field; its failure
        # would mean an arithmetic bug, never bad input.
        if (acc @ self.frob % p != acc).any():
            raise AssertionError("twisted product not Frobenius-fixed")
        acc = acc.reshape(len(acc), n * d + 1, d, e)
        if acc[:, :, 1:].any():
            raise AssertionError("twisted product not in the base field")
        norms = acc[:, :, 0]
        if (red[:, n].any(axis=1) & ~norms[:, -1].any(axis=1)).any():
            raise AssertionError("local factor has wrong T-degree")
        return norms


@lru_cache(maxsize=None)
def _degree_tables(ctx, d: int):
    """The table blocks of the primes of degree d, built on first use."""
    primes = primes_of_degree(ctx, d)
    return tuple(_Block(ctx, primes[i : i + _BLOCK])
                 for i in range(0, len(primes), _BLOCK))


def local_factors(tp: TwistedPower, d: int):
    """N_𝔓 of every prime of degree d, as one batch.

    An int64 array (primes, n*d + 1, e), one row per prime of
    ``primes_of_degree(ctx, d)``: the base-p digits of N_𝔓's
    T-coefficients, little-endian; a zero row exactly when 𝔓 | P.
    """
    import numpy as np

    return np.concatenate([b.norms(tp) for b in _degree_tables(tp.ctx, d)])


def truncated_product(tp: TwistedPower, bound: int) -> LFun:
    """Product of local factors over primes of degree <= bound, mod U^(bound+1).

    Equals the matrix-formula L-function through U-degree ``bound``, and
    exactly once ``bound`` reaches the stable matrix size ``tp.k_min`` =
    max(1, floor((m+n)/(q-1))), which bounds deg_U L (``motive``'s module
    doc): every coefficient past U^k_min is zero.
    """
    check_int(bound, 1, "truncation bound")
    ctx = tp.ctx
    series = [Poly.one(ctx)] + [Poly.zero(ctx)] * bound
    for d in range(1, bound + 1):
        digits = local_factors(tp, d)
        if 2 * d > bound:
            # the cross terms of the degree-d factors lie beyond U^bound:
            # their product is 1 + (sum of N) U^d, a digit-wise sum mod p
            digits = digits.sum(axis=0, keepdims=True) % ctx.char
        for row in from_digits(digits, ctx.char, ctx.e).tolist():
            npoly = Poly(ctx, row)
            # series / (1 - N U^d), from the lowest power up
            for j in range(d, bound + 1):
                series[j] = series[j] + npoly * series[j - d]
    return LFun(ctx, series)


def distinct_prime_factors(qpoly: Poly):
    """Distinct monic irreducible factors of a nonzero polynomial.

    Trial division over the enumerated irreducibles; intended for the small
    twist multipliers of the L-quotient identity, not as a general factoring
    facility.
    """
    if qpoly.is_zero():
        raise ValueError("zero polynomial")
    out = []
    rem = qpoly.monic()
    d = 1
    while rem.degree >= 1:
        if d > rem.degree:
            raise AssertionError("factor search exceeded degree")
        for prime in primes_of_degree(qpoly.ctx, d):
            if (rem % prime).is_zero():
                out.append(prime)
                while (rem % prime).is_zero():
                    rem = (rem // prime).monic()
        d += 1
    return out
