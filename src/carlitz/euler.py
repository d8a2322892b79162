"""Local L-factors from the definition, and the truncated Euler product.

This module never touches the matrix formula.  For a monic irreducible 𝔓 of
degree d, ``local_factor`` reduces the 1x1 τ-matrix P (T - θ)^n modulo 𝔓,
forms the d-fold Frobenius-twisted product, checks that the result is fixed
coefficient-wise by x -> x^q (so it descends to GF(q)[T]) and that it has
T-degree n·d when 𝔓 does not divide P, and returns the local factor
(1 - N_𝔓(T) U^d)^(-1).  It works on ``Poly`` objects, one prime at a time
(``reduce_tau``, ``twisted_power``): the θ factor and twist multipliers of
``symmetry`` use it, and it is the oracle the series below is tested against.

``truncated_product`` is the product of the local factors over the primes of
degree <= D, mod U^(D+1), written as a Dirichlet series.  For monic f put
χ_P(f) = det P(C_f), C_f the companion matrix of f: the determinant of
multiplication by P on GF(q)[θ]/(f).  At a prime it is Norm(P̄), so
N_𝔓(T) = χ_P(𝔓)·𝔓(T)^n.  Both f -> χ_P(f) and f -> f(T)^n are completely
multiplicative, so the product expands to

    L(M, U) = Σ_{f monic} χ_P(f)·f(T)^n·U^(deg f),

whose U^j coefficient sums over the q^j monic f of degree j.  It is still
the Euler product, and reads only P's coefficients: never ``motive``'s band,
the determinant or the point engine.  So its agreement with det(I - M U)
through U^D, and exactly once D reaches the stable matrix size, tests them;
that cross-check is the decisive end-to-end verification and lives in the
test suite.

The series runs on per-field tables (``_Series``), built with numpy on first
use, shared by every twist over the field and kept read-only: the monic f of
degree <= D; the logs of x^t mod f, whose windows are the columns of C_f^i,
for t below a depth; the logs of f(T)^n per n; one factorisation g·h of each
reducible f.  One rule sizes them: built at the largest D seen, the depth
grown to the m + D asked but at least twofold, so a caller raising m step
by step regrows them O(log m) times.  Arithmetic, log form and the refusal
above the 256-element table cap are ``ff.array_ops``'s.  A call gathers
P(C_f) = Σ a_i C_f^i for every f of degree <= D in one step, batch axis
last, padded by an identity tail to max(D, 3) columns so that one batched
determinant serves all degrees, takes χ_P(f) = ``_det`` of that stack and
sums χ_P(f)·f(T)^n per degree.  ``_det`` is ff's elimination down to the
last three columns, then Leibniz in log form on those: at verify's D <= 3
the whole determinant, and faster than elimination; Leibniz alone would
grow as D!.

Checks.  Building or growing the powers checks x^t mod f = θ^t for
t < deg f and Cayley–Hamilton, f(C_f)·C_f^t = 0, on every stored window.
Every call checks χ_P(g·h) = χ_P(g)·χ_P(h) on the factorisation table and
leading coefficient 1 on each f(T)^n row it reads.  No per-call check sees
the powers of the irreducible f of degree D: they are a factor of no product
of degree <= D.

numpy is imported inside the functions that use it, so importing this
module or listing primes does not load it.  Primes of each degree and the
residue context of each prime are built once per process.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .ff import ResidueCtx, array_ops, check_int, from_digits, to_digits
from .lfun import LFun
from .motive import TwistedPower
from .poly import Poly, irreducibles_of_degree

__all__ = [
    "LocalFactor", "residue_ctx", "reduce_tau", "twisted_power",
    "local_factor", "truncated_product", "primes_of_degree",
    "distinct_prime_factors",
]

_CHUNK = 1 << 22  # gathered entries of P(C_f) per block of f


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
    # Poly arithmetic uses its left operand's field, so a prime over another
    # field would give a wrong answer rather than an error
    if prime.ctx != tp.ctx:
        raise ValueError(f"prime over {prime.ctx!r}, twist over {tp.ctx!r}")
    rc = residue_ctx(prime)
    rem = (tp.P % prime).coeffs
    pbar = rem + (rc.base.zero,) * (rc.d - len(rem))
    lin = Poly(rc, [rc.neg(rc.theta()), rc.one])  # T - θ̄
    out = lin**tp.n
    return out.scalar_mul(pbar)


def twisted_power(a: Poly, d: int) -> Poly:
    """a^(d-1 twists) ... a^(1 twist) * a with coefficient-wise x -> x^(q^k)."""
    rc, result, cur = a.ctx, a, a
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


class _Series:
    """One field's tables of the monic f of degree <= ``deg`` (module doc).

    Row i of ``f`` holds the codes of one f, constant first, its leading 1
    at ``fdeg[i]``; the f of degree j are rows ``start[j]`` to
    ``start[j+1] - 1``, in the order of the code sum Σ c_i q^i of their lower
    coefficients.  ``logx[i, t, r]`` is the log of coefficient r of x^t mod
    f, so column k of C_f^t is ``logx[i, t + k]``.  Each column of ``pairs``
    is f, g, h with f = g·h and g of least degree, sorted by f.  Codes are
    uint16, the arithmetic ``ff.array_ops``.
    """

    def __init__(self, ctx, deg: int):
        import numpy as np

        ops = self.ops = array_ops(ctx)
        q, self.deg, self.depth = ops.q, deg, 0
        sizes = [q**j for j in range(deg + 1)]
        start = self.start = np.cumsum([0] + sizes)
        self.fdeg = np.repeat(np.arange(deg + 1), sizes)
        f = self.f = np.zeros((start[-1], deg + 1), dtype=np.uint16)
        for j in range(deg + 1):
            f[start[j] : start[j + 1], :j] = to_digits(np.arange(q**j), q, j)
            f[start[j] : start[j + 1], j] = 1
        found = [np.zeros((3, 0), dtype=np.int64)]
        for j in range(2, deg + 1):
            for d in range(1, j // 2 + 1):  # least degree first
                g, h = np.divmod(np.arange(q**j), q ** (j - d))
                g, h = g + start[d], h + start[j - d]
                prod = self._mul(f[g, : d + 1], f[h, : j - d + 1])
                found.append(np.stack(
                    [start[j] + from_digits(prod[:, :j], q, j), g, h]))
        pairs = np.concatenate(found, axis=1)
        self.pairs = pairs[:, np.unique(pairs[0], return_index=True)[1]]
        self.pairs.flags.writeable = False
        self._fpow = {}

    def _logs(self, codes):
        # read-only logs of codes, narrow enough to hold log 0
        import numpy as np

        log = self.ops.log
        out = log[codes].astype(np.min_scalar_type(log[0]))
        out.flags.writeable = False
        return out

    def _mul(self, g, h):
        """The code rows of g·h, for code rows g (K, a) and h (K, b)."""
        import numpy as np

        ops = self.ops
        out = np.zeros((len(g), g.shape[1] + h.shape[1] - 1), dtype=np.uint16)
        for i in range(g.shape[1]):
            part = out[:, i : i + h.shape[1]]
            part[:] = ops.add(part, ops.mul(g[:, i, None], h))
        return out

    def grow(self, depth: int):
        """``logx`` for x^0 .. x^(depth-1), by x^t = x·x^(t-1) mod f, checked
        on the codes: x^t = θ^t for t < deg f and Cayley–Hamilton."""
        import numpy as np

        ops, d, f, fdeg = self.ops, self.deg, self.f, self.fdeg
        v = np.zeros((len(f), depth + d, d), dtype=np.uint16)  # d zeros last
        v[fdeg > 0, 0, 0] = 1
        top = (np.arange(len(f)), np.maximum(fdeg - 1, 0))
        for t in range(1, depth):  # shift up, less the top times f
            v[:, t, 1:] = v[:, t - 1, :-1]
            v[:, t] = ops.sub(v[:, t],
                              ops.mul(v[:, t - 1][top][:, None], f[:, :d]))
        ch = np.zeros((len(f), depth, d), dtype=np.uint16)
        for i in range(d + 1):  # Σ_i f_i x^(t+i), read where t + deg f fits
            ch = ops.add(ch, ops.mul(f[:, i, None, None], v[:, i : i + depth]))
        low = np.arange(depth) < fdeg[:, None]
        fits = np.arange(depth) + fdeg[:, None] < depth
        if (v[:, :depth] != np.eye(depth, d))[low].any() or ch[fits].any():
            raise AssertionError("companion powers fail Cayley–Hamilton")
        self.depth = depth
        self.logx = self._logs(v[:, :depth])

    def fpow(self, n: int):
        """Logs of f(T)^n, one row of n·deg + 1 entries per f."""
        if n not in self._fpow:
            out = self.f
            for _ in range(n - 1):
                out = self._mul(self.f, out)
            self._fpow[n] = self._logs(out)
        return self._fpow[n]


_SERIES = {}  # field -> its _Series, rebuilt when a bound passes its degree
# the 3! permutations of (0, 1, 2) and their signs
_PERMS = ((0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0))
_SIGNS = (1, -1, -1, 1, 1, -1)


def _det(a, ops):
    """Determinants of the (b, b, F) code matrices a (overwritten), b >= 3."""
    import numpy as np

    ops.eliminate(a, len(a) - 3)  # pivots times det of the last 3 columns
    logs = ops.log[a[-3:, -3:]][range(3), _PERMS].sum(1)  # (3!, F)
    terms = ops.alog[logs] * np.array(_SIGNS)[:, None, None]  # (3!, F, e)
    det = from_digits(terms.sum(0) % ops.p, ops.p, ops.e)
    for k in range(len(a) - 3):
        det = ops.mul(det, a[k, k])
    return det


def _characters(tp: TwistedPower, bound: int):
    """The field's ``_Series`` and χ_P(f) = det P(C_f) for its f of degree
    <= bound, checked for χ_P(g·h) = χ_P(g)·χ_P(h) on ``pairs``."""
    import numpy as np

    coeffs, b = tp.P.coeffs, max(bound, 3)
    s = _SERIES.get(tp.ctx)
    if s is None or s.deg < bound:
        s = _SERIES[tp.ctx] = _Series(tp.ctx, bound)
    if s.depth < len(coeffs) + bound - 1:  # at least twofold (module doc)
        s.grow(max(len(coeffs) + bound - 1, 2 * s.depth))
    ops, count = s.ops, s.start[bound + 1]
    la = ops.log[list(coeffs)][:, None, None]
    slots = np.arange(len(coeffs))[:, None] + np.arange(bound)  # x^(i+k)
    step = max(1, _CHUNK // (len(coeffs) * bound * bound * ops.e))
    chi = []
    for lo in range(0, count, step):
        # P(C_f) transposed and the batch last, column k = Σ a_i x^(i+k)
        # mod f, and the identity tail from column deg f on
        hi = min(lo + step, count)
        mat = np.zeros((b, b, hi - lo, ops.e), dtype=np.int64)
        logs = la + s.logx[lo:hi, slots, :bound]  # (f, i, k, r)
        mat[:bound, :bound] = ops.alog[logs.transpose(1, 2, 3, 0)].sum(0)
        mat[range(b), range(b), :, 0] += (np.arange(b)[:, None]
                                          >= s.fdeg[lo:hi])
        chi.append(_det(from_digits(mat % ops.p, ops.p, ops.e), ops))
    chi = np.concatenate(chi)
    f, g, h = s.pairs[:, : np.searchsorted(s.pairs[0], count)]
    if (ops.mul(chi[g], chi[h]) != chi[f]).any():
        raise AssertionError("χ_P(g·h) != χ_P(g)·χ_P(h)")
    return s, chi


def truncated_product(tp: TwistedPower, bound: int) -> LFun:
    """Product of local factors over primes of degree <= bound, mod
    U^(bound+1), as the series over monic f of degree <= bound (module doc).

    Equals the matrix-formula L-function through U-degree ``bound``, and
    exactly once ``bound`` reaches the stable matrix size ``tp.k_min`` =
    max(1, floor((m+n)/(q-1))), which bounds deg_U L (``motive``'s module
    doc): every coefficient past U^k_min is zero.
    """
    import numpy as np

    check_int(bound, 1, "truncation bound")
    s, chi = _characters(tp, bound)
    ops, n, count = s.ops, tp.n, len(chi)
    fpow = s.fpow(n)[:count, : n * bound + 1]
    if fpow[np.arange(count), n * s.fdeg[:count]].any():  # log 1 = 0
        raise AssertionError("f(T)^n is not monic")
    terms = ops.alog[ops.log[chi][:, None] + fpow]  # (f, T^i, digits)
    series = np.add.reduceat(terms, s.start[: bound + 1], axis=0) % ops.p
    return LFun(tp.ctx, [Poly(tp.ctx, row) for row in
                         from_digits(series, ops.p, ops.e).tolist()])


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
