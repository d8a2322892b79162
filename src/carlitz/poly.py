"""Dense univariate polynomials over any coefficient context from ``ff``.

Coefficients are stored little-endian (index = exponent) and normalized: the
zero polynomial has an empty coefficient tuple, otherwise the last coefficient
is nonzero.  The variable name is bookkeeping only.

Multiplication is schoolbook.  Division, gcd, and irreducibility testing
assume the coefficient context is a field.

Text format: a polynomial serializes as the comma-separated little-endian
coefficient list ``"a0,a1,...,am"`` with integer entries in ``[0, p^e)``
(the zero polynomial is ``"0"``).
"""

from __future__ import annotations

from .ff import check_int

__all__ = [
    "Poly",
    "NEG_INF",
    "poly_gcd",
    "is_squarefree",
    "is_irreducible",
    "irreducibles_of_degree",
    "irreducible_count",
    "poly_to_str",
    "poly_from_str",
]

NEG_INF = float("-inf")  # degree of the zero polynomial


def _normalize(ctx, coeffs):
    coeffs = list(coeffs)
    z = ctx.zero
    while coeffs and coeffs[-1] == z:
        coeffs.pop()
    return tuple(coeffs)


class Poly:
    """Immutable dense polynomial over a coefficient context."""

    __slots__ = ("ctx", "coeffs")

    def __init__(self, ctx, coeffs=()):
        self.ctx = ctx
        self.coeffs = _normalize(ctx, coeffs)

    # -- constructors ---------------------------------------------------

    @classmethod
    def zero(cls, ctx):
        return cls(ctx, ())

    @classmethod
    def one(cls, ctx):
        return cls(ctx, (ctx.one,))

    @classmethod
    def constant(cls, ctx, c):
        return cls(ctx, (c,))

    @classmethod
    def x(cls, ctx):
        return cls(ctx, (ctx.zero, ctx.one))

    @classmethod
    def monomial(cls, ctx, c, k: int):
        return cls(ctx, (ctx.zero,) * k + (c,))

    # -- basics ----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self):
        """Degree, with -inf for the zero polynomial."""
        return len(self.coeffs) - 1 if self.coeffs else NEG_INF

    def coeff(self, k: int):
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else self.ctx.zero

    def lead(self):
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __eq__(self, other):
        return (isinstance(other, Poly) and other.ctx == self.ctx
                and other.coeffs == self.coeffs)

    def __hash__(self):
        return hash((self.ctx, self.coeffs))

    def __bool__(self):
        return bool(self.coeffs)

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        ctx = self.ctx
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        add = ctx.add
        for i, c in enumerate(b):
            out[i] = add(out[i], c)
        return Poly(ctx, out)

    def __sub__(self, other):
        ctx = self.ctx
        sub = ctx.sub
        la, lb = len(self.coeffs), len(other.coeffs)
        n = max(la, lb)
        z = ctx.zero
        a, b = self.coeffs, other.coeffs
        out = [sub(a[i] if i < la else z, b[i] if i < lb else z) for i in range(n)]
        return Poly(ctx, out)

    def __neg__(self):
        neg = self.ctx.neg
        return Poly(self.ctx, [neg(c) for c in self.coeffs])

    def __mul__(self, other):
        ctx = self.ctx
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return Poly.zero(ctx)
        mul, add, z = ctx.mul, ctx.add, ctx.zero
        out = [z] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            if ai != z:
                for j, bj in enumerate(b):
                    out[i + j] = add(out[i + j], mul(ai, bj))
        return Poly(ctx, out)

    def scalar_mul(self, c):
        ctx = self.ctx
        if c == ctx.zero:
            return Poly.zero(ctx)
        mul = ctx.mul
        return Poly(ctx, [mul(c, x) for x in self.coeffs])

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative power")
        r = Poly.one(self.ctx)
        b = self
        while k:
            if k & 1:
                r = r * b
            b = b * b
            k >>= 1
        return r

    # -- field-coefficient operations ---------------------------------------

    def __divmod__(self, other):
        ctx = self.ctx
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        db = len(other.coeffs) - 1
        inv_lead = ctx.inv(other.coeffs[-1])
        rem = list(self.coeffs)
        if len(rem) <= db:
            return Poly.zero(ctx), self
        z = ctx.zero
        q = [z] * max(0, len(rem) - db)
        sub, mul = ctx.sub, ctx.mul
        b = other.coeffs
        for i in range(len(rem) - 1, db - 1, -1):
            c = rem[i]
            if c != z:
                f = mul(c, inv_lead)
                k = i - db
                q[k] = f
                for j in range(db):
                    rem[k + j] = sub(rem[k + j], mul(f, b[j]))
                rem[i] = z  # c - f * lead
        return Poly(ctx, q), Poly(ctx, rem)

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def monic(self):
        if self.is_zero():
            return self
        lead = self.coeffs[-1]
        if lead == self.ctx.one:
            return self
        return self.scalar_mul(self.ctx.inv(lead))

    def derivative(self):
        ctx = self.ctx
        mul, fi = ctx.mul, ctx.from_int
        return Poly(ctx, [mul(fi(i), c) for i, c in enumerate(self.coeffs)][1:])

    def evaluate(self, x):
        ctx = self.ctx
        acc = ctx.zero
        mul, add = ctx.mul, ctx.add
        for c in reversed(self.coeffs):
            acc = add(mul(acc, x), c)
        return acc

    def compose(self, inner: "Poly") -> "Poly":
        """Substitute X -> inner."""
        acc = Poly.zero(self.ctx)
        for c in reversed(self.coeffs):
            acc = acc * inner + Poly.constant(self.ctx, c)
        return acc

    def scale_var(self, s) -> "Poly":
        """P(sX)."""
        ctx = self.ctx
        mul = ctx.mul
        out, pw = [], ctx.one
        for c in self.coeffs:
            out.append(mul(c, pw))
            pw = mul(pw, s)
        return Poly(ctx, out)

    def stretch(self, k: int) -> "Poly":
        """P(X^k)."""
        if self.is_zero():
            return self
        out = [self.ctx.zero] * (k * (len(self.coeffs) - 1) + 1)
        out[::k] = self.coeffs
        return Poly(self.ctx, out)

    def reversed_to(self, d: int) -> "Poly":
        """X^d * P(1/X); requires deg P <= d."""
        if self.degree > d:
            raise ValueError("degree exceeds reversal bound")
        z = self.ctx.zero
        padded = list(self.coeffs) + [z] * (d + 1 - len(self.coeffs))
        return Poly(self.ctx, padded[::-1])

    def invert_var(self, d: int) -> "Poly":
        """(-X)^d * P(1/X); requires deg P <= d."""
        r = self.reversed_to(d)
        return -r if d % 2 == 1 else r

    def __repr__(self):
        if self.is_zero():
            return "Poly<0>"
        return "Poly<" + ",".join(str(c) for c in self.coeffs) + ">"


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic gcd over a field context; gcd(0, 0) = 0."""
    while not b.is_zero():
        a, b = b, a % b
    return a.monic()


def is_squarefree(p: Poly) -> bool:
    """True iff gcd(P, P') is a nonzero constant.

    When the formal derivative vanishes with deg P > 0, P is a p-th power
    over GF(q) (every exponent with a surviving coefficient is divisible by
    the characteristic, and q-th powers of coefficients are onto), so the
    answer is False.  Nonzero constants count as squarefree.
    """
    if p.is_zero():
        raise ValueError("squarefree test of the zero polynomial")
    if p.degree == 0:
        return True
    d = p.derivative()
    if d.is_zero():
        return False
    return poly_gcd(p, d).degree == 0


def _powmod(base: Poly, k: int, mod: Poly) -> Poly:
    r = Poly.one(base.ctx)
    b = base % mod
    while k:
        if k & 1:
            r = (r * b) % mod
        b = (b * b) % mod
        k >>= 1
    return r


def is_irreducible(p: Poly) -> bool:
    """Monic-insensitive irreducibility test over a field context.

    Uses the low-degree-factor criterion: P of degree d is irreducible iff
    gcd(P, X^(q^t) - X) = 1 for t = 1..d//2 (constants and units excluded).
    """
    d = p.degree
    if d is NEG_INF or d == 0:
        return False
    if d == 1:
        return True
    ctx = p.ctx
    q = ctx.order
    pm = p.monic()
    g = Poly.x(ctx)
    for _ in range(int(d) // 2):
        g = _powmod(g, q, pm)
        if poly_gcd(pm, g - Poly.x(ctx)).degree != 0:
            return False
    return True


def irreducibles_of_degree(ctx, d: int):
    """Yield the monic irreducibles of degree d in deterministic order.

    Order: ascending little-endian encoding of the sub-leading coefficient
    vector (the same convention the field-modulus search uses).
    """
    check_int(d, 1, "degree")
    q = ctx.order
    elems = list(ctx.elements())
    for code in range(q**d):
        coeffs = []
        v = code
        for _ in range(d):
            coeffs.append(elems[v % q])
            v //= q
        coeffs.append(ctx.one)
        cand = Poly(ctx, coeffs)
        if is_irreducible(cand):
            yield cand


def _mobius(n: int) -> int:
    if n == 1:
        return 1
    res = 1
    f = 2
    while f * f <= n:
        if n % f == 0:
            n //= f
            if n % f == 0:
                return 0
            res = -res
        f += 1
    if n > 1:
        res = -res
    return res


def irreducible_count(q: int, d: int) -> int:
    """Necklace count (1/d) * sum_{t|d} mu(t) q^(d/t) of monic irreducibles."""
    total = 0
    for t in range(1, d + 1):
        if d % t == 0:
            total += _mobius(t) * q ** (d // t)
    return total // d


def poly_to_str(p: Poly) -> str:
    if p.is_zero():
        return "0"
    return ",".join(str(int(c)) for c in p.coeffs)


def poly_from_str(ctx, s: str) -> Poly:
    vals = []
    for part in s.split(","):
        part = part.strip()
        if not part:
            raise ValueError("empty coefficient in polynomial string")
        v = int(part)
        check_int(v, 0, "coefficient", ctx.order)
        vals.append(v)
    return Poly(ctx, vals)
