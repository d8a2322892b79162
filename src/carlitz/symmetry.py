"""GL2(F_q)-type symmetries of twists and their matrix-level conjugacies.

Generators acting on a twisted power (P, n):

- ``Mu(d)``:   P -> P(θ + d)
- ``Nu(c)``:   P -> sum a_i (cθ)^i
- ``Iota(m)``: coefficient reversal in the window [0, m]; m must satisfy
  m >= deg P and m ≡ -n (mod q-1) (any admissible window gives the same twist
  class; the smallest is the deterministic default)
- ``Tau(c)``:  P -> c^(-n) P
- ``Sigma(k)``: (P, n) -> (P, q^k n)
- ``TwistMul(Q)``: P -> P * Q^(q-1) (same twist class, different model)

Each generator comes with an L-function identity (checked through exact
substitutions) and a matrix-level conjugacy or block identity.  The matrix
statements concern infinite matrices with rows/columns indexed from 0; they
are decided exactly on finite windows because every row of the twist matrix
has bounded column support (row i is supported on columns
[q(i+1)-1-m-n, q(i+1)-1]), so products restricted to the internal index range
[0, qK + m + n) are exact on the [0, K) x [0, K) corner.  A window is in
``motive``'s form, a tuple of tuples of ``Poly`` rows, and each identity is
an equality of such windows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .ff import binom_mod_p, check_int
from .lfun import LFun, lfun_substitute
from .motive import (TwistedPower, l_function, _matrix_rows, on_coset,
                     reduced_block_size)
from .poly import Poly
from .euler import local_factor, distinct_prime_factors

__all__ = [
    "Mu", "Nu", "Iota", "Tau", "Sigma", "TwistMul",
    "IdentityCheck",
    "act_on_poly", "check_l_identity", "conjugator", "verify_conjugacy",
    "smallest_iota_degree",
]


@dataclass(frozen=True)
class Mu:
    d: object  # base-field element


@dataclass(frozen=True)
class Nu:
    c: object  # nonzero base-field element


@dataclass(frozen=True)
class Iota:
    m: int | None = None  # admissible reversal degree; None = smallest


@dataclass(frozen=True)
class Tau:
    c: object  # nonzero base-field element


@dataclass(frozen=True)
class Sigma:
    k: int = 1


@dataclass(frozen=True)
class TwistMul:
    q_poly: Poly


@dataclass(frozen=True)
class IdentityCheck:
    ok: bool
    lhs: LFun
    rhs: LFun
    label: str


def smallest_iota_degree(tp: TwistedPower) -> int:
    """The least admissible reversal degree, m + (-(m+n) mod (q-1))."""
    return tp.m + (-(tp.m + tp.n)) % (tp.ctx.order - 1)


def act_on_poly(g, tp: TwistedPower) -> TwistedPower:
    """Apply one generator, whose scalar or multiplier lies over GF(q)."""
    ctx = tp.ctx
    q = ctx.order
    P = tp.P
    if isinstance(g, Mu):
        check_int(g.d, 0, "Mu's d", q)
        inner = Poly(ctx, (g.d, ctx.one))  # θ + d
        return TwistedPower(P.compose(inner), tp.n)
    if isinstance(g, Nu):
        check_int(g.c, 1, "Nu's c", q)
        return TwistedPower(P.scale_var(g.c), tp.n)
    if isinstance(g, Iota):
        m = smallest_iota_degree(tp) if g.m is None else g.m
        check_int(m, 0, "Iota's m")
        if m < tp.m or not on_coset(q, tp.n, m):
            raise ValueError(f"inadmissible reversal degree {m}")
        return TwistedPower(P.reversed_to(m), tp.n)
    if isinstance(g, Tau):
        check_int(g.c, 1, "Tau's c", q)
        s = ctx.pow_(ctx.inv(g.c), tp.n)
        return TwistedPower(P.scalar_mul(s), tp.n)
    if isinstance(g, Sigma):
        check_int(g.k, 1, "Sigma exponent")
        return TwistedPower(P, tp.n * q**g.k)
    if isinstance(g, TwistMul):
        if g.q_poly.ctx != ctx or g.q_poly.is_zero():
            raise ValueError(f"twist multiplier must be nonzero over {ctx!r}")
        return TwistedPower(P * g.q_poly ** (q - 1), tp.n)
    raise TypeError(f"unknown generator {g!r}")


def _l_with_theta_factor(tp: TwistedPower) -> LFun:
    # L_S for S = {θ}: multiply L by the reciprocal θ-factor 1 - N_θ U
    theta = Poly.x(tp.ctx)
    return l_function(tp).mul(local_factor(tp, theta).inverse_factor())


def check_l_identity(g, tp: TwistedPower) -> IdentityCheck:
    """Both sides of the L-function identity attached to a generator.

    ``tp``'s own L comes from ``l_function``, which computes it once per
    instance, so a check costs one determinant, for the acted twist, once
    ``tp``'s L is known.  A False verdict is a finding for the caller (test
    failure), not an error.
    """
    ctx = tp.ctx
    acted = act_on_poly(g, tp)
    if isinstance(g, Mu):
        lhs = lfun_substitute(l_function(acted), ("shift", g.d))
        rhs = l_function(tp)
        label = f"mu({g.d})"
    elif isinstance(g, Nu):
        gamma = ctx.pow_(g.c, tp.n)
        lhs = lfun_substitute(l_function(acted), ("scale", g.c), u_scale=gamma)
        rhs = l_function(tp)
        label = f"nu({g.c})"
    elif isinstance(g, Iota):
        lhs = lfun_substitute(_l_with_theta_factor(acted), ("invert", tp.n))
        rhs = _l_with_theta_factor(tp)
        label = "iota"
    elif isinstance(g, Tau):
        gamma = ctx.pow_(g.c, tp.n)
        lhs = lfun_substitute(l_function(acted), u_scale=gamma)
        rhs = l_function(tp)
        label = f"tau({g.c})"
    elif isinstance(g, Sigma):
        lhs = l_function(acted)
        rhs = lfun_substitute(l_function(tp), ("power", g.k))
        label = f"sigma({g.k})"
    elif isinstance(g, TwistMul):
        lhs = l_function(acted)
        rhs = l_function(tp)
        for prime in distinct_prime_factors(g.q_poly):
            if not (tp.P % prime).is_zero():
                rhs = rhs.mul(local_factor(tp, prime).inverse_factor())
        label = "twistmul"
    else:
        raise TypeError(f"unknown generator {g!r}")
    return IdentityCheck(ok=(lhs == rhs), lhs=lhs, rhs=rhs, label=label)


# -- conjugator windows -------------------------------------------------------

def _matmul(a: tuple, b: tuple) -> tuple:
    """Product of two windows; a's column count must be b's row count."""
    zero = Poly.zero(a[0][0].ctx)
    cols = tuple(zip(*b))
    return tuple(
        tuple(sum((x * y for x, y in zip(row, col) if x and y), zero)
              for col in cols)
        for row in a)


def conjugator(ctx, kind: str, size: int, *, d=None, n: int = 1) -> tuple:
    """Window of an upper triangular conjugator matrix (0-based).

    ``"w1"``  entry (i,j) = C(j,i) d^(j-i), d a code of GF(q);
    ``"w5"``  W5^n for any int n, W5 = (1 - T S)^(-1) = (T^(j-i)), S the
              shift: entry (i,j) is C(n+j-i-1, j-i) T^(j-i), or for n <= 0
              (-1)^(j-i) C(-n, j-i) T^(j-i), the windows' n-fold product.
    """
    check_int(size, 1, "window size")
    p = ctx.char
    zero = Poly.zero(ctx)
    if kind == "w1":
        check_int(d, 0, "w1's d", ctx.order)

        def entry(i, j):
            b = binom_mod_p(j, i, p)
            return Poly.constant(ctx, ctx.mul(ctx.from_int(b),
                                              ctx.pow_(d, j - i))) if b else zero
    elif kind == "w5":
        check_int(n, -math.inf, "w5's n")

        def entry(i, j):
            b = (binom_mod_p(n + j - i - 1, j - i, p) if n > 0 else
                 (-1) ** (j - i) * binom_mod_p(-n, j - i, p) % p)
            return Poly.monomial(ctx, ctx.from_int(b), j - i) if b else zero
    else:
        raise ValueError(f"unknown conjugator kind {kind!r}")
    return tuple(tuple(entry(i, j) if j >= i else zero for j in range(size))
                 for i in range(size))


def verify_conjugacy(g, tp: TwistedPower, window: int) -> bool:
    """Entry-wise check of the applicable matrix identity on a finite window.

    ``Sigma`` supports the single-step statement (k = 1); ``TwistMul``
    supports the multiplier θ (other multipliers are covered at L-function
    level by ``check_l_identity``).  Blocks the statements leave free are not
    constrained.  Products keep only the rows and columns of the K x K corner
    they are compared on.
    """
    ctx = tp.ctx
    q = ctx.order
    check_int(window, 1, "window")
    K = window
    if isinstance(g, Mu):
        acted = act_on_poly(g, tp)  # raises unless d is a code
        inner = Poly(ctx, (ctx.neg(g.d), ctx.one))  # T - d
        r = q * K + tp.m + tp.n
        w = conjugator(ctx, "w1", r, d=g.d)[:K]
        winv = tuple(row[:K] for row in conjugator(ctx, "w1", r,
                                                   d=ctx.neg(g.d)))
        corner = _matmul(_matmul(w, _matrix_rows(tp, r)), winv)
        return corner == tuple(tuple(e.compose(inner) for e in row)
                               for row in _matrix_rows(acted, K))
    if isinstance(g, Nu):
        acted = act_on_poly(g, tp)  # raises unless c is a code
        cinv = ctx.inv(g.c)
        scale = ctx.pow_(cinv, tp.n)
        lhs = tuple(tuple(e.scale_var(cinv) for e in row)
                    for row in _matrix_rows(acted, K))
        return lhs == tuple(
            tuple(e.scalar_mul(ctx.mul(scale, ctx.pow_(g.c, i - j)))
                  for j, e in enumerate(row))
            for i, row in enumerate(_matrix_rows(tp, K)))
    if isinstance(g, Iota):
        m = smallest_iota_degree(tp) if g.m is None else g.m
        acted = act_on_poly(Iota(m), tp)  # raises unless m is admissible
        k3 = reduced_block_size(q, tp.n, m)  # 0 gives the empty statement
        # central symmetry by W3
        return tuple(row[::-1] for row in _matrix_rows(tp, k3)[::-1]) == \
            tuple(tuple(e.invert_var(tp.n) for e in row)
                  for row in _matrix_rows(acted, k3))
    if isinstance(g, Tau):
        acted = act_on_poly(g, tp)  # raises unless c is a code
        s = ctx.pow_(ctx.inv(g.c), tp.n)
        return _matrix_rows(acted, K) == tuple(
            tuple(e.scalar_mul(s) for e in row) for row in _matrix_rows(tp, K))
    if isinstance(g, Sigma):
        if g.k != 1:
            raise ValueError("window conjugacy implements the one-step case")
        n = tp.n
        big = act_on_poly(g, tp)  # exponent q*n
        r = q * K + tp.m + q * n + q
        top = conjugator(ctx, "w5", r, n=n)[:K]
        left = tuple(row[:K] for row in conjugator(ctx, "w5", r, n=-n))
        corner = _matmul(_matmul(top, _matrix_rows(big, r)), left)
        # rows [0, n) vanish; the [n, K) block is the stretched small window
        return not any(e for row in corner[:n] for e in row) and \
            tuple(row[n:] for row in corner[n:]) == tuple(
                tuple(e.stretch(q) for e in row)
                for row in _matrix_rows(tp, K - n))
    if isinstance(g, TwistMul):
        if g.q_poly != Poly.x(ctx):
            raise ValueError("matrix-level block shape implemented for the "
                             "multiplier θ; use check_l_identity otherwise")
        m2 = _matrix_rows(act_on_poly(g, tp), K)
        m1 = _matrix_rows(tp, K)
        first = (Poly.monomial(ctx, tp.P.coeff(0), tp.n),) + \
            (Poly.zero(ctx),) * (K - 1)
        return m2[0] == first and \
            tuple(row[1:] for row in m2[1:]) == \
            tuple(row[:-1] for row in m1[:-1])
    raise TypeError(f"unknown generator {g!r}")
