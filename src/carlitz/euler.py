"""Local L-factors from the definition, and the truncated Euler product.

This module never touches the matrix formula: for a monic irreducible 𝔓 of
degree d it reduces the 1x1 τ-matrix P (T - θ)^n modulo 𝔓, forms the d-fold
Frobenius-twisted product, checks that the result is fixed coefficient-wise
by x -> x^q (so it descends to GF(q)[T]), and assembles local factors

    (1 - N_𝔓(T) U^d)^(-1)

into a power series in U.  Truncated at U-degree D the product over all
primes of degree <= D must agree with det(I - M U) through degree D, and
equal it exactly once D reaches the stable matrix size — that cross-check is
the decisive end-to-end verification and lives in the test suite.

Primes of each degree, and the residue context of each prime (with its
reduction rows and Frobenius columns), are built once per process and shared
by every twist.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .ff import ResidueCtx
from .lfun import LFun
from .motive import TwistedPower
from .poly import Poly, irreducibles_of_degree

__all__ = [
    "LocalFactor",
    "residue_ctx",
    "reduce_tau",
    "twisted_power",
    "local_factor",
    "truncated_product",
    "primes_of_degree",
    "distinct_prime_factors",
]


@lru_cache(maxsize=None)
def residue_ctx(prime: Poly) -> ResidueCtx:
    """GF(q)[θ]/(𝔓) for a monic irreducible 𝔓 (verified), one per prime."""
    return ResidueCtx(prime.ctx, prime.coeffs)


@lru_cache(maxsize=None)
def primes_of_degree(ctx, d: int):
    """Monic irreducibles of degree d, in ``irreducibles_of_degree`` order."""
    return tuple(irreducibles_of_degree(ctx, d))


def reduce_tau(tp: TwistedPower, prime: Poly) -> Poly:
    """P̄ (T - θ̄)^n in (GF(q)[θ]/𝔓)[T]; T-degree n unless 𝔓 | P."""
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


def truncated_product(tp: TwistedPower, bound: int) -> LFun:
    """Product of local factors over primes of degree <= bound, mod U^(bound+1).

    Equals the matrix-formula L-function through U-degree ``bound``, and
    exactly when ``bound`` >= the stable matrix size.
    """
    if bound < 1:
        raise ValueError("truncation bound must be >= 1")
    ctx = tp.ctx
    series = LFun.one(ctx)
    for d in range(1, bound + 1):
        for prime in primes_of_degree(ctx, d):
            lf = local_factor(tp, prime)
            if lf.npoly.is_zero():
                continue
            # (1 - N U^d)^(-1) = sum_j N^j U^(jd), truncated
            cs = [Poly.zero(ctx)] * (bound + 1)
            acc = Poly.one(ctx)
            j = 0
            while j * d <= bound:
                cs[j * d] = acc
                acc = acc * lf.npoly
                j += 1
            series = series.mul(LFun(ctx, cs), trunc=bound)
    return series


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
