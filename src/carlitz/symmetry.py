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
[0, qK + m + n) are exact on the [0, K) x [0, K) corner.
"""

from __future__ import annotations

from dataclasses import dataclass

from .ff import binom_mod_p
from .lfun import LFun, lfun_substitute
from .motive import TwistedPower, l_function, _matrix_rows
from .poly import Poly
from .euler import local_factor, distinct_prime_factors

__all__ = [
    "Mu", "Nu", "Iota", "Tau", "Sigma", "TwistMul",
    "WindowMatrix", "IdentityCheck",
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
class WindowMatrix:
    """Finite window of an infinite (or exactly finite) matrix over GF(q)[T]."""

    rows: tuple
    nrows: int
    ncols: int

    @classmethod
    def from_rows(cls, rows):
        rows = tuple(tuple(r) for r in rows)
        return cls(rows=rows, nrows=len(rows), ncols=len(rows[0]) if rows else 0)

    def entry(self, i, j):
        return self.rows[i][j]

    def mul(self, other: "WindowMatrix") -> "WindowMatrix":
        if self.ncols != other.nrows:
            raise ValueError("window shapes do not match")
        out = []
        for i in range(self.nrows):
            row = []
            for j in range(other.ncols):
                acc = None
                for l in range(self.ncols):
                    a = self.rows[i][l]
                    if a.is_zero():
                        continue
                    b = other.rows[l][j]
                    if b.is_zero():
                        continue
                    term = a * b
                    acc = term if acc is None else acc + term
                if acc is None:
                    acc = Poly.zero(self.rows[i][0].ctx)
                row.append(acc)
            out.append(tuple(row))
        return WindowMatrix(rows=tuple(out), nrows=self.nrows, ncols=other.ncols)

    def corner(self, k: int, kc: int | None = None) -> "WindowMatrix":
        kc = k if kc is None else kc
        return WindowMatrix.from_rows(tuple(r[:kc] for r in self.rows[:k]))

    def __eq__(self, other):
        return isinstance(other, WindowMatrix) and self.rows == other.rows


@dataclass(frozen=True)
class IdentityCheck:
    ok: bool
    lhs: LFun
    rhs: LFun
    label: str


def smallest_iota_degree(tp: TwistedPower) -> int:
    q = tp.ctx.order
    m = tp.m
    want = (-tp.n) % (q - 1) if q > 2 else 0
    while q > 2 and m % (q - 1) != want:
        m += 1
    return m


def act_on_poly(g, tp: TwistedPower) -> TwistedPower:
    """Apply one generator; returns the acted twisted power."""
    ctx = tp.ctx
    q = ctx.order
    P = tp.P
    if isinstance(g, Mu):
        inner = Poly(ctx, (g.d, ctx.one))  # θ + d
        return TwistedPower(P.compose(inner), tp.n)
    if isinstance(g, Nu):
        if g.c == ctx.zero:
            raise ValueError("Nu needs a nonzero scalar")
        return TwistedPower(P.scale_var(g.c), tp.n)
    if isinstance(g, Iota):
        m = smallest_iota_degree(tp) if g.m is None else g.m
        if m < tp.m or (q > 2 and (m + tp.n) % (q - 1) != 0):
            raise ValueError(f"inadmissible reversal degree {m}")
        return TwistedPower(P.reversed_to(m), tp.n)
    if isinstance(g, Tau):
        if g.c == ctx.zero:
            raise ValueError("Tau needs a nonzero scalar")
        s = ctx.pow_(ctx.inv(g.c), tp.n)
        return TwistedPower(P.scalar_mul(s), tp.n)
    if isinstance(g, Sigma):
        if g.k < 1:
            raise ValueError("Sigma exponent must be >= 1")
        return TwistedPower(P, tp.n * q**g.k)
    if isinstance(g, TwistMul):
        if g.q_poly.is_zero():
            raise ValueError("twist multiplier must be nonzero")
        return TwistedPower(P * g.q_poly ** (q - 1), tp.n)
    raise TypeError(f"unknown generator {g!r}")


def _l_with_theta_factor(tp: TwistedPower) -> LFun:
    # L_S for S = {θ}: multiply L by the reciprocal θ-factor 1 - N_θ U
    theta = Poly.x(tp.ctx)
    return l_function(tp).mul(local_factor(tp, theta).inverse_factor())


def check_l_identity(g, tp: TwistedPower) -> IdentityCheck:
    """Both sides of the L-function identity attached to a generator.

    A False verdict is a finding for the caller (test failure), not an error.
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

def conjugator(ctx, kind: str, size: int, *, d=None) -> WindowMatrix:
    """Window of a conjugator matrix.

    ``"w1"``  upper triangular, entry (i,j) = C(j,i) d^(j-i)   (0-based);
    ``"w5"``  upper triangular T^(j-i), with ``"w5inv"`` its two-band inverse.
    """
    if size < 1:
        raise ValueError("window size must be >= 1")
    p = ctx.char
    one = Poly.one(ctx)
    zero = Poly.zero(ctx)
    if kind == "w1":
        rows = []
        for i in range(size):
            row = []
            for j in range(size):
                if j < i:
                    row.append(zero)
                else:
                    b = binom_mod_p(j, i, p)
                    v = ctx.mul(ctx.from_int(b), ctx.pow_(d, j - i)) if b else ctx.zero
                    row.append(Poly.constant(ctx, v))
            rows.append(row)
        return WindowMatrix.from_rows(rows)
    if kind == "w5":
        return WindowMatrix.from_rows(
            [[Poly.monomial(ctx, ctx.one, j - i) if j >= i else zero
              for j in range(size)] for i in range(size)])
    if kind == "w5inv":
        x = Poly.x(ctx)
        return WindowMatrix.from_rows(
            [[one if i == j else (-x if j == i + 1 else zero)
              for j in range(size)] for i in range(size)])
    raise ValueError(f"unknown conjugator kind {kind!r}")


def verify_conjugacy(g, tp: TwistedPower, window: int) -> bool:
    """Entry-wise check of the applicable matrix identity on a finite window.

    ``Sigma`` supports the single-step statement (k = 1); ``TwistMul``
    supports the multiplier θ (other multipliers are covered at L-function
    level by ``check_l_identity``).  Blocks the statements leave free are not
    constrained.
    """
    ctx = tp.ctx
    q = ctx.order
    K = window
    if K < 1:
        raise ValueError("window must be >= 1")
    if isinstance(g, Mu):
        acted = act_on_poly(g, tp)
        inner = Poly(ctx, (ctx.neg(g.d), ctx.one))  # T - d
        lhs = WindowMatrix.from_rows(
            [[e.compose(inner) for e in row]
             for row in _matrix_rows(acted, K)])
        r = q * K + tp.m + tp.n
        w = conjugator(ctx, "w1", r, d=g.d)
        winv = conjugator(ctx, "w1", r, d=ctx.neg(g.d))
        mid = WindowMatrix.from_rows(_matrix_rows(tp, r))
        rhs = w.mul(mid).mul(winv).corner(K)
        return lhs == rhs
    if isinstance(g, Nu):
        acted = act_on_poly(g, tp)
        cinv = ctx.inv(g.c)
        scale = ctx.pow_(cinv, tp.n)
        m2 = _matrix_rows(acted, K)
        m1 = _matrix_rows(tp, K)
        for i in range(K):
            for j in range(K):
                lhs = m2[i][j].scale_var(cinv)
                f = ctx.mul(scale, ctx.pow_(g.c, i - j))
                if lhs != m1[i][j].scalar_mul(f):
                    return False
        return True
    if isinstance(g, Iota):
        m = smallest_iota_degree(tp) if g.m is None else g.m
        acted = act_on_poly(Iota(m), tp)  # raises unless m is admissible
        k3 = (m + tp.n) // (q - 1) - 1
        if k3 < 1:
            return True  # degenerate 0x0 statement
        m1 = _matrix_rows(tp, k3)
        m2 = _matrix_rows(acted, k3)
        for i in range(k3):
            for j in range(k3):
                lhs = m1[k3 - 1 - i][k3 - 1 - j]  # central symmetry by W3
                if lhs != m2[i][j].invert_var(tp.n):
                    return False
        return True
    if isinstance(g, Tau):
        acted = act_on_poly(g, tp)
        s = ctx.pow_(ctx.inv(g.c), tp.n)
        m2 = _matrix_rows(acted, K)
        m1 = _matrix_rows(tp, K)
        return all(m2[i][j] == m1[i][j].scalar_mul(s)
                   for i in range(K) for j in range(K))
    if isinstance(g, Sigma):
        if g.k != 1:
            raise ValueError("window conjugacy implements the one-step case")
        n = tp.n
        big = act_on_poly(g, tp)  # exponent q*n
        r = q * K + tp.m + q * n + q
        w5 = conjugator(ctx, "w5", r)
        w5i = conjugator(ctx, "w5inv", r)
        wn, wni = w5, w5i
        for _ in range(n - 1):
            wn = wn.mul(w5)
            wni = wni.mul(w5i)
        mid = WindowMatrix.from_rows(_matrix_rows(big, r))
        conj = wn.mul(mid).mul(wni)
        small = _matrix_rows(tp, K)
        for i in range(min(n, K)):
            for j in range(K):
                if not conj.entry(i, j).is_zero():
                    return False
        for i in range(n, K):
            for j in range(n, K):
                if conj.entry(i, j) != small[i - n][j - n].stretch(q):
                    return False
        return True
    if isinstance(g, TwistMul):
        if g.q_poly != Poly.x(ctx):
            raise ValueError("matrix-level block shape implemented for the "
                             "multiplier θ; use check_l_identity otherwise")
        acted = act_on_poly(g, tp)
        m2 = _matrix_rows(acted, K)
        m1 = _matrix_rows(tp, K)
        corner = Poly.monomial(ctx, tp.P.coeff(0), tp.n) \
            if tp.P.coeff(0) != ctx.zero else Poly.zero(ctx)
        if m2[0][0] != corner:
            return False
        if any(not m2[0][j].is_zero() for j in range(1, K)):
            return False
        return all(m2[i][j] == m1[i - 1][j - 1]
                   for i in range(1, K) for j in range(1, K))
    raise TypeError(f"unknown generator {g!r}")
