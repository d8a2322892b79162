"""Exact arithmetic in small finite fields and residue-field extensions.

Three kinds of coefficient context, all immutable after construction and safe
to share across threads and processes (elements are plain values):

- ``PrimeField(p)``: GF(p).  Elements are ints in ``[0, p)``.
- ``ExtField(p, e)``: GF(p^e) as F_p[x]/(modulus), that is
  ``ResidueCtx(GF(p), modulus)`` behind a digit encoding.  Elements are ints
  in ``[0, p^e)`` whose little-endian base-p digits are the coefficients of
  the residue polynomial; the arithmetic is the ResidueCtx's, read from
  lookup tables when the order is at most ``_TABLE_LIMIT``.  The modulus is
  found deterministically: the first of
  ``poly.irreducibles_of_degree(GF(p), e)``, i.e. the monic irreducible of
  degree e whose sub-leading coefficient vector, read as a little-endian
  base-p integer, is smallest.  This makes element encodings reproducible
  across runs and machines.
- ``ResidueCtx(base, mod_coeffs)``: base[θ]/(𝔓) for a monic irreducible 𝔓
  over a field context.  Elements are tuples of base elements of length
  deg 𝔓.  Irreducibility of 𝔓 is verified at construction with
  ``poly.is_irreducible``.

Polynomial arithmetic over a field (irreducibility, gcd) lives in ``poly``;
this module imports it inside the functions that need it, because ``poly``
imports this one.

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


def _pow(ctx, a, k: int):
    """a^k in ctx by square-and-multiply; negative k inverts a first."""
    if k < 0:
        a = ctx.inv(a)
        k = -k
    r = ctx.one
    while k:
        if k & 1:
            r = ctx.mul(r, a)
        a = ctx.mul(a, a)
        k >>= 1
    return r


class ExtField:
    """GF(p^e) = F_p[x]/(modulus); elements are base-p digit-encoded ints.

    The arithmetic is ``ResidueCtx(GF(p), modulus)`` on the digit tuples;
    for order <= _TABLE_LIMIT it is read from lookup tables built from it.
    """

    __slots__ = ("p", "e", "order", "char", "modulus", "_rc", "_mul_tab",
                 "_add_tab", "_neg_tab", "_inv_tab")

    def __init__(self, p: int, e: int, modulus=None):
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        if e < 2:
            raise ValueError("ExtField needs e >= 2; use PrimeField for e = 1")
        self.p = p
        self.e = e
        self.order = p**e
        self.char = p
        fp = PrimeField(p)
        if modulus is None:
            # poly imports this module, so its names are imported here
            from .poly import irreducibles_of_degree
            modulus = next(irreducibles_of_degree(fp, e)).coeffs
        else:
            modulus = tuple(int(c) % p for c in modulus)
            if len(modulus) != e + 1:
                raise ValueError("modulus must be monic of degree e")
        self._rc = ResidueCtx(fp, modulus)  # checks monic and irreducible
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
        return tuple(out)

    def _encode(self, digits):
        v = 0
        for d in reversed(digits):
            v = v * self.p + d
        return v

    # add/neg/mul/inv read the table attribute before calling its builder:
    # Poly arithmetic over GF(4) and GF(9) calls them once per term.  Without
    # a table they run the residue op between _digits and _encode.

    def add(self, a, b):
        t = self._add_tab or self.add_table()
        if t is None:
            return self._encode(self._rc.add(self._digits(a), self._digits(b)))
        return t[a * self.order + b]

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def neg(self, a):
        t = self._neg_tab or self.neg_table()
        if t is None:
            return self._encode(self._rc.neg(self._digits(a)))
        return t[a]

    def mul(self, a, b):
        t = self._mul_tab or self.mul_table()
        if t is None:
            return self._encode(self._rc.mul(self._digits(a), self._digits(b)))
        return t[a * self.order + b]

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        t = self._inv_tab or self.inv_table()
        if t is None:
            return self._encode(self._rc.inv(self._digits(a)))
        return t[a]

    pow_ = _pow

    def frobenius(self, a, k: int = 1):
        """x -> x^(p^k); k = e is the identity."""
        return self._encode(self._rc.frobenius(self._digits(a), k))

    def from_int(self, i: int):
        return i % self.p  # embeds the prime subfield

    def elements(self):
        return range(self.order)

    def rand(self, rng):
        return rng.randrange(self.order)

    # lookup tables from the residue ops, built lazily for small fields
    def mul_table(self):
        if self._mul_tab is None and self.order <= _TABLE_LIMIT:
            self._mul_tab = self._binary_table(self._rc.mul)
        return self._mul_tab

    def add_table(self):
        if self._add_tab is None and self.order <= _TABLE_LIMIT:
            self._add_tab = self._binary_table(self._rc.add)
        return self._add_tab

    def _binary_table(self, op):
        digits = [self._digits(a) for a in range(self.order)]
        enc = {x: a for a, x in enumerate(digits)}
        return [enc[op(x, y)] for x in digits for y in digits]

    def neg_table(self):
        if self._neg_tab is None and self.order <= _TABLE_LIMIT:
            neg = self._rc.neg
            self._neg_tab = [self._encode(neg(self._digits(a)))
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
        return tuple(map(self.base.add, a, b))

    def sub(self, a, b):
        return tuple(map(self.base.sub, a, b))

    def neg(self, a):
        return tuple(map(self.base.neg, a))

    def mul(self, a, b):
        base = self.base
        add, mul, zero = base.add, base.mul, base.zero
        d = self.d
        conv = [zero] * (2 * d - 1)
        for i, ai in enumerate(a):
            if ai != zero:
                for j, bj in enumerate(b):
                    conv[i + j] = add(conv[i + j], mul(ai, bj))
        out = conv[:d]
        for j in range(d - 1):
            c = conv[d + j]
            if c != zero:
                row = self._red[j]
                out = [add(x, mul(c, y)) for x, y in zip(out, row)]
        return tuple(out)

    pow_ = _pow

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

