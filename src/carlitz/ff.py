"""Exact arithmetic in small finite fields and residue-field extensions.

Three kinds of coefficient context, all immutable after construction and safe
to share across threads and processes (elements are plain values):

- ``PrimeField(p)``: GF(p).  Elements are ints in ``[0, p)``.
- ``ExtField(p, e)``: GF(p^e) as F_p[x]/(modulus).  Elements are ints in
  ``[0, p^e)`` whose little-endian base-p digits are the coefficients of the
  residue polynomial.  The modulus is found deterministically: the first
  of ``poly.irreducibles_of_degree(GF(p), e)``, i.e. the monic irreducible
  of degree e whose sub-leading coefficient vector, read as a little-endian
  base-p integer, is smallest.  This makes element encodings reproducible
  across runs and machines.
- ``ResidueCtx(base, mod_coeffs)``: base[θ]/(𝔓) for a monic irreducible 𝔓
  over a field context.  Elements are tuples of base elements of length
  deg 𝔓.  Irreducibility of 𝔓 is verified at construction with
  ``poly.is_irreducible``, the test ExtField applies to a caller's modulus.

Polynomial arithmetic over a field (irreducibility, gcd) lives in ``poly``;
this module imports it inside the functions that need it, because ``poly``
imports this one.  The one exception is ``_pl_mulmod``, a plain int-list
product that builds ExtField's multiplication table faster than ``Poly``.

The word-size budget: contexts are intended for cardinalities up to a machine
word (documented limit >= 2^16); everything here is plain Python int
arithmetic, so the practical ceiling is lookup-table memory, not overflow.
"""

from __future__ import annotations

import math
from functools import lru_cache

__all__ = [
    "PrimeField",
    "ExtField",
    "ResidueCtx",
    "field_make",
    "field_from_cardinality",
    "frobenius",
    "binom_mod_p",
    "is_prime",
]

_TABLE_LIMIT = 256  # build q*q lookup tables only for q <= this


def is_prime(n: int) -> bool:
    """Deterministic trial-division primality check (fine for word-size n)."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def binom_mod_p(j: int, i: int, p: int) -> int:
    """Binomial coefficient C(j, i) reduced mod p, by base-p digit products.

    i > j is allowed and yields 0 (some base-p digit of i then exceeds the
    matching digit of j).  Never computes factorials, so there is no overflow
    and the characteristic-p digit identities hold by construction.
    """
    if i < 0 or j < 0:
        return 0
    r = 1
    while i or j:
        jd, id_ = j % p, i % p
        if id_ > jd:
            return 0
        r = r * math.comb(jd, id_) % p
        j //= p
        i //= p
    return r


class PrimeField:
    """GF(p); elements are ints in [0, p)."""

    __slots__ = ("p", "e", "order", "char")

    def __init__(self, p: int):
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        self.p = p
        self.e = 1
        self.order = p
        self.char = p

    zero = 0
    one = 1

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def neg(self, a):
        return -a % self.p

    def mul(self, a, b):
        return a * b % self.p

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return pow(a, -1, self.p)

    def pow_(self, a, k: int):
        return pow(a, k, self.p)

    def frobenius(self, a, k: int = 1):
        # x^(p^k) = x for every x in GF(p)
        return a

    def from_int(self, i: int):
        return i % self.p

    def elements(self):
        return range(self.p)

    def rand(self, rng):
        return rng.randrange(self.p)

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("PrimeField", self.p))

    def __repr__(self):
        return f"GF({self.p})"


# Dense-list product mod a monic modulus over GF(p).  ExtField._mul_raw uses
# it to build the multiplication table; going through Poly makes that build
# 2-2.5x slower (GF(27): 6.1 ms against 2.4 ms on a 2-core Xeon), and
# GF(27)'s table sits in every shift-stable scan's set-up.

def _pl_mulmod(a, b, mod, p):
    # a, b, mod: little-endian int lists; mod monic
    res = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                res[i + j] = (res[i + j] + ai * bj) % p
    d = len(mod) - 1
    for i in range(len(res) - 1, d - 1, -1):
        c = res[i]
        if c:
            res[i] = 0
            for j in range(d):
                res[i - d + j] = (res[i - d + j] - c * mod[j]) % p
    while len(res) > 1 and res[-1] == 0:
        res.pop()
    return res


class ExtField:
    """GF(p^e) = F_p[x]/(modulus); elements are base-p digit-encoded ints."""

    __slots__ = ("p", "e", "order", "char", "modulus", "_mul_tab", "_add_tab",
                 "_neg_tab", "_inv_tab")

    def __init__(self, p: int, e: int, modulus=None):
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        if e < 2:
            raise ValueError("ExtField needs e >= 2; use PrimeField for e = 1")
        self.p = p
        self.e = e
        self.order = p**e
        self.char = p
        # poly imports this module, so its names are imported here
        from .poly import Poly, irreducibles_of_degree, is_irreducible
        fp = PrimeField(p)
        if modulus is None:
            modulus = next(irreducibles_of_degree(fp, e)).coeffs
        else:
            modulus = tuple(int(c) % p for c in modulus)
            if len(modulus) != e + 1 or modulus[-1] != 1:
                raise ValueError("modulus must be monic of degree e")
            if not is_irreducible(Poly(fp, modulus)):
                raise ValueError("modulus is reducible")
        self.modulus = modulus
        self._mul_tab = None
        self._add_tab = None
        self._neg_tab = None
        self._inv_tab = None

    zero = 0
    one = 1

    def _digits(self, a):
        p = self.p
        out = []
        for _ in range(self.e):
            out.append(a % p)
            a //= p
        return out

    def _encode(self, digits):
        v = 0
        for d in reversed(digits):
            v = v * self.p + d
        return v

    def add(self, a, b):
        t = self.add_table()
        if t is not None:
            return t[a * self.order + b]
        return self._add_raw(a, b)

    def _add_raw(self, a, b):
        p = self.p
        if p == 2:
            return a ^ b
        da, db = self._digits(a), self._digits(b)
        return self._encode([(x + y) % p for x, y in zip(da, db)])

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def neg(self, a):
        t = self.neg_table()
        if t is not None:
            return t[a]
        p = self.p
        return self._encode([-x % p for x in self._digits(a)])

    def mul(self, a, b):
        t = self.mul_table()
        if t is not None:
            return t[a * self.order + b]
        return self._mul_raw(a, b)

    def _mul_raw(self, a, b):
        if a == 0 or b == 0:
            return 0
        p = self.p
        prod = _pl_mulmod(self._digits(a), self._digits(b), list(self.modulus), p)
        return self._encode(prod + [0] * (self.e - len(prod)))

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        t = self.inv_table()
        if t is not None:
            return t[a]
        return self.pow_(a, self.order - 2)

    def pow_(self, a, k: int):
        if k < 0:
            a = self.inv(a)
            k = -k
        r = 1
        while k:
            if k & 1:
                r = self.mul(r, a)
            a = self.mul(a, a)
            k >>= 1
        return r

    def frobenius(self, a, k: int = 1):
        """x -> x^(p^k); k = e is the identity."""
        r = a
        for _ in range(k % self.e):
            r = self.pow_(r, self.p)
        return r

    def from_int(self, i: int):
        return i % self.p  # embeds the prime subfield

    def elements(self):
        return range(self.order)

    def rand(self, rng):
        return rng.randrange(self.order)

    # lookup tables, built lazily for small fields; add/neg/mul/inv use them
    def mul_table(self):
        if self._mul_tab is None and self.order <= _TABLE_LIMIT:
            q = self.order
            self._mul_tab = [self._mul_raw(a, b) for a in range(q) for b in range(q)]
        return self._mul_tab

    def add_table(self):
        if self._add_tab is None and self.order <= _TABLE_LIMIT:
            q = self.order
            self._add_tab = [self._add_raw(a, b) for a in range(q) for b in range(q)]
        return self._add_tab

    def neg_table(self):
        if self._neg_tab is None and self.order <= _TABLE_LIMIT:
            p = self.p
            self._neg_tab = [self._encode([-x % p for x in self._digits(a)])
                             for a in range(self.order)]
        return self._neg_tab

    def inv_table(self):
        if self._inv_tab is None and self.order <= _TABLE_LIMIT:
            self._inv_tab = [0] + [self.pow_(a, self.order - 2)
                                   for a in range(1, self.order)]
        return self._inv_tab

    def __eq__(self, other):
        return (isinstance(other, ExtField) and other.p == self.p
                and other.modulus == self.modulus)

    def __hash__(self):
        return hash(("ExtField", self.p, self.modulus))

    def __repr__(self):
        return f"GF({self.p}^{self.e})"


@lru_cache(maxsize=None)
def field_make(p: int, e: int = 1):
    """Field context for GF(p^e); e > 1 gets the deterministic lex modulus."""
    if e < 1:
        raise ValueError("extension degree must be >= 1")
    if e == 1:
        return PrimeField(p)
    return ExtField(p, e)


@lru_cache(maxsize=None)
def field_from_cardinality(q: int):
    """Field context for GF(q), factoring q = p^e."""
    if q < 2:
        raise ValueError("field cardinality must be >= 2")
    p = q
    for f in range(2, q + 1):
        if f * f > q:
            break
        if q % f == 0:
            p = f
            break
    e = 0
    v = q
    while v % p == 0 and v > 1:
        v //= p
        e += 1
    if v != 1 or p**e != q:
        raise ValueError(f"{q} is not a prime power")
    return field_make(p, e)


class ResidueCtx:
    """base[θ]/(𝔓) for monic irreducible 𝔓; elements are length-d tuples."""

    __slots__ = ("base", "mod", "d", "order", "char", "_red", "_frob_cols")

    def __init__(self, base, mod_coeffs):
        mod = tuple(mod_coeffs)
        d = len(mod) - 1
        if d < 1 or mod[-1] != base.one:
            raise ValueError("modulus must be monic of degree >= 1")
        # poly imports this module, so its names are imported here
        from .poly import Poly, is_irreducible
        if not is_irreducible(Poly(base, mod)):
            raise ValueError("residue modulus is reducible")
        self.base = base
        self.mod = mod
        self.d = d
        self.order = base.order**d
        self.char = base.char
        # reduction rows: θ^(d+j) mod 𝔓 for j = 0..d-2
        red = []
        top = tuple(base.neg(c) for c in mod[:d])  # θ^d
        cur = top
        red.append(cur)
        for _ in range(d - 2):
            cur = self._shift_by_theta(cur, top)
            red.append(cur)
        self._red = tuple(red)
        self._frob_cols = None

    def _shift_by_theta(self, t, top):
        # t * θ reduced mod 𝔓, given top = θ^d mod 𝔓
        b = self.base
        d = self.d
        hi = t[d - 1]
        out = [b.zero] + list(t[: d - 1])
        if hi != b.zero:
            out = [b.add(x, b.mul(hi, y)) for x, y in zip(out, top)]
        return tuple(out)

    @property
    def zero(self):
        return (self.base.zero,) * self.d

    @property
    def one(self):
        b = self.base
        return tuple([b.one] + [b.zero] * (self.d - 1))

    def theta(self):
        """The class of θ."""
        b = self.base
        if self.d == 1:
            return (b.neg(self.mod[0]),)
        return tuple([b.zero, b.one] + [b.zero] * (self.d - 2))

    def add(self, a, b):
        f = self.base.add
        return tuple(f(x, y) for x, y in zip(a, b))

    def sub(self, a, b):
        f = self.base.sub
        return tuple(f(x, y) for x, y in zip(a, b))

    def neg(self, a):
        f = self.base.neg
        return tuple(f(x) for x in a)

    def mul(self, a, b):
        base = self.base
        d = self.d
        conv = [base.zero] * (2 * d - 1)
        for i, ai in enumerate(a):
            if ai != base.zero:
                for j, bj in enumerate(b):
                    conv[i + j] = base.add(conv[i + j], base.mul(ai, bj))
        out = conv[:d]
        for j in range(d - 1):
            c = conv[d + j]
            if c != base.zero:
                row = self._red[j]
                out = [base.add(x, base.mul(c, y)) for x, y in zip(out, row)]
        return tuple(out)

    def pow_(self, a, k: int):
        if k < 0:
            a = self.inv(a)
            k = -k
        r = self.one
        while k:
            if k & 1:
                r = self.mul(r, a)
            a = self.mul(a, a)
            k >>= 1
        return r

    def inv(self, a):
        if a == self.zero:
            raise ZeroDivisionError("inverse of zero")
        return self.pow_(a, self.order - 2)

    def frobenius(self, a, k: int = 1):
        """x -> x^(q^k), the base-field-fixing automorphism (order d)."""
        cols = self._frobenius_cols()
        b = self.base
        r = a
        for _ in range(k % self.d):
            out = [b.zero] * self.d
            for i, xi in enumerate(r):
                if xi != b.zero:
                    col = cols[i]
                    out = [b.add(o, b.mul(xi, c)) for o, c in zip(out, col)]
            r = tuple(out)
        return r

    def _frobenius_cols(self):
        # images (θ^i)^q; x -> x^q is base-linear since coefficients are q-fixed
        if self._frob_cols is None:
            q = self.base.order
            y = self.pow_(self.theta(), q)
            cols = [self.one]
            cur = self.one
            for _ in range(self.d - 1):
                cur = self.mul(cur, y)
                cols.append(cur)
            self._frob_cols = tuple(cols)
        return self._frob_cols

    def from_int(self, i: int):
        b = self.base
        return tuple([b.from_int(i)] + [b.zero] * (self.d - 1))

    def elements(self):
        import itertools
        base_elems = list(self.base.elements())
        for t in itertools.product(base_elems, repeat=self.d):
            yield tuple(reversed(t))

    def constant_of(self, a):
        """Descend a base-field-valued residue to the base; error otherwise."""
        b = self.base
        if any(x != b.zero for x in a[1:]):
            raise ValueError("element is not in the base field")
        return a[0]

    def __eq__(self, other):
        return (isinstance(other, ResidueCtx) and other.base == self.base
                and other.mod == self.mod)

    def __hash__(self):
        return hash(("ResidueCtx", self.base, self.mod))

    def __repr__(self):
        return f"{self.base!r}[θ]/(deg {self.d})"


def frobenius(ctx, x, k: int = 1):
    """x^(b^k) where b is the cardinality of ctx's base field.

    For GF(p) and GF(p^e) the base is GF(p) (so this is the p-power map);
    for a residue context over GF(q) it is the q-power map of order d.
    """
    return ctx.frobenius(x, k)
