"""L-functions as polynomials in U with coefficients in GF(q)[T].

``LFun`` holds the U-coefficient list (each a ``Poly`` in T over the base
field) with constant term 1 — every L-function here satisfies L(0) = 1.

The vanishing order at U = γ is computed by repeated exact synthetic division
by (U - γ) over GF(q)[T]; formal derivatives are useless for this in
characteristic p, exact division is not.

JSON form: ``[{"u_deg": j, "coeffs_T": [...]}, ...]`` with little-endian
integer coefficient lists (zero polynomial encodes as ``[0]``).
"""

from __future__ import annotations

from .ff import check_int
from .poly import Poly

__all__ = ["LFun", "lfun_order_at", "lfun_substitute"]


class LFun:
    """Sum over j of C'_j(T) U^j with C'_0 = 1."""

    __slots__ = ("ctx", "cs")

    def __init__(self, ctx, u_coeffs):
        cs = list(u_coeffs)
        while cs and cs[-1].is_zero():
            cs.pop()
        if not cs or cs[0] != Poly.one(ctx):
            raise ValueError("L-function must have constant term 1")
        self.ctx = ctx
        self.cs = tuple(cs)

    @classmethod
    def one(cls, ctx):
        return cls(ctx, [Poly.one(ctx)])

    @property
    def u_degree(self) -> int:
        return len(self.cs) - 1

    def coeff(self, j: int) -> Poly:
        return self.cs[j] if 0 <= j < len(self.cs) else Poly.zero(self.ctx)

    def __eq__(self, other):
        return (isinstance(other, LFun) and other.ctx == self.ctx
                and other.cs == self.cs)

    def __hash__(self):
        return hash((self.ctx, self.cs))

    def mul(self, other: "LFun") -> "LFun":
        """Product."""
        ctx = self.ctx
        out = [Poly.zero(ctx)] * (len(self.cs) + len(other.cs) - 1)
        for i, a in enumerate(self.cs):
            if a.is_zero():
                continue
            for j, b in enumerate(other.cs):
                if not b.is_zero():
                    out[i + j] = out[i + j] + a * b
        return LFun(ctx, out)

    def truncate(self, d: int) -> "LFun":
        return LFun(self.ctx, self.cs[: d + 1])

    def scale_u(self, gamma) -> "LFun":
        """U -> γU."""
        ctx = self.ctx
        out = []
        g = ctx.one
        for c in self.cs:
            out.append(c.scalar_mul(g))
            g = ctx.mul(g, gamma)
        return LFun(ctx, out)

    def to_json_obj(self):
        return [{"u_deg": j, "coeffs_T": [int(v) for v in c.coeffs] or [0]}
                for j, c in enumerate(self.cs)]

    @classmethod
    def from_json_obj(cls, ctx, obj) -> "LFun":
        """Inverse of ``to_json_obj``; ValueError on malformed input."""
        if not isinstance(obj, list):
            raise ValueError(f"L-function JSON must be a list, got {obj!r}")
        terms = {}
        for e in obj:
            if not isinstance(e, dict) or not {"u_deg", "coeffs_T"} <= e.keys():
                raise ValueError("each entry needs u_deg and coeffs_T, "
                                 f"got {e!r}")
            j, coeffs = e["u_deg"], e["coeffs_T"]
            check_int(j, 0, "u_deg")
            if j in terms:
                raise ValueError(f"repeated u_deg {j}")
            if not isinstance(coeffs, list):
                raise ValueError(f"coeffs_T of U^{j} must be a list, "
                                 f"got {coeffs!r}")
            for v in coeffs:
                check_int(v, 0, f"coefficient of U^{j}", ctx.order)
            terms[j] = Poly(ctx, coeffs)
        return cls(ctx, [terms.get(j, Poly.zero(ctx))
                         for j in range(max(terms, default=0) + 1)])

    def __repr__(self):
        terms = []
        for j, c in enumerate(self.cs):
            if not c.is_zero():
                terms.append(f"({'+'.join(str(v) + ('T^' + str(i) if i else '') for i, v in enumerate(c.coeffs) if v != self.ctx.zero)})U^{j}")
        return "LFun<" + (" + ".join(terms) or "0") + ">"


def lfun_order_at(l: LFun, gamma) -> int:
    """Largest r with (U - γ)^r dividing L, by repeated synthetic division.

    γ must be a nonzero base-field element, a code in 1..q-1; the order at
    U = 0 is always 0 because L(0) = 1, so γ = 0 is rejected to avoid misuse.
    """
    ctx = l.ctx
    check_int(gamma, 1, "γ", ctx.order)
    c = list(l.cs)
    order = 0
    while True:
        d = len(c) - 1
        if d < 0:
            raise AssertionError("L-function vanished identically")
        # synthetic division of sum c_j U^j by (U - γ)
        b = [Poly.zero(ctx)] * d
        carry = Poly.zero(ctx)
        for j in range(d, 0, -1):
            carry = c[j] + carry.scalar_mul(gamma)
            b[j - 1] = carry
        rem = c[0] + carry.scalar_mul(gamma)
        if not rem.is_zero():
            return order
        order += 1
        c = b


def lfun_substitute(l: LFun, t_map=None, u_scale=None) -> LFun:
    """Apply a T-substitution descriptor and/or a U-scaling.

    ``t_map`` is one of ``("shift", d)`` for T -> T-d, ``("scale", c)`` for
    T -> c^(-1) T, ``("power", k)`` for T -> T^(q^k), or ``("invert", n)``
    for the degree-bounded inversion with clearing factor (-T)^n.
    ``u_scale`` is γ for U -> γU.  d is a code in 0..q-1, c and γ in 1..q-1.
    """
    out = l
    if t_map is not None:
        ctx = l.ctx
        kind, arg = t_map
        if kind == "shift":
            check_int(arg, 0, "shift", ctx.order)
            inner = Poly(ctx, (ctx.neg(arg), ctx.one))
            cs = [c.compose(inner) for c in l.cs]
        elif kind == "scale":
            check_int(arg, 1, "scale", ctx.order)
            s = ctx.inv(arg)
            cs = [c.scale_var(s) for c in l.cs]
        elif kind == "power":
            check_int(arg, 1, "power")
            stride = ctx.order**arg
            cs = [c.stretch(stride) for c in l.cs]
        elif kind == "invert":
            # U^j gets (-T)^(nj) C'_j(1/T): polynomial iff deg C'_j <= n*j
            check_int(arg, 1, "invert")
            cs = [c.invert_var(arg * j) for j, c in enumerate(l.cs)]
        else:
            raise ValueError(f"unknown T-substitution {kind!r}")
        out = LFun(ctx, cs)
    if u_scale is not None:
        check_int(u_scale, 1, "γ", l.ctx.order)
        out = out.scale_u(u_scale)
    return out
