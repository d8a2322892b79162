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

Lookup tables.  Every field of order q = p^e <= ``_TABLE_LIMIT``, prime
fields included, has one set of flat tables on that encoding
(``FieldTables``), built once per field context by ``_build_tables`` from a
log/antilog pair: mul, inv and x -> x^p are index sums mod q - 1, add is
digit-wise mod p.  ExtField reads them, every other module through
``field_tables``, the one refusal of a field above the cap.  Larger
contexts, up to a machine word (>= 2^16), run on plain Python ints, so their
ceiling is time, not overflow.

The array form is this module's too: the batched routes compute on base-p
digits from ``to_digits``, back through ``from_digits``, and fold digit
products with ``generator_digits``.  GF(q)'s arithmetic on code arrays has
one owner, ``array_ops``: per field, uint16 ops over the tables, a log form
and one batched elimination, which the point engine and the Euler series
share (numpy is imported inside them).

So is the one check of every int a caller passes, field codes and all
other bounds, in every module and the CLI: ``check_int``.

Polynomial arithmetic over a field (irreducibility, gcd) lives in ``poly``;
this module imports it inside the functions that need it, because ``poly``
imports this one.
"""

from __future__ import annotations

import math
from collections import namedtuple
from functools import lru_cache, partial

__all__ = [
    "PrimeField", "ExtField", "ResidueCtx", "field_make",
    "field_from_cardinality", "binom_mod_p", "is_prime", "check_int",
    "to_digits", "from_digits", "generator_digits", "field_tables",
    "ArrayOps", "array_ops",
]

_TABLE_LIMIT = 256  # build q*q lookup tables only for q <= this


def is_prime(n: int) -> bool:
    """Deterministic trial-division primality check (fine for word-size n)."""
    return n > 1 and all(n % f for f in range(2, math.isqrt(n) + 1))


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


# Flat lookup tables of GF(q), q = p^e: mul, add and sub hold op(a, b) at
# a*q + b; neg, inv (with inv[0] = 0) and frob (x -> x^p) hold op(a) at a;
# log[a] is i with g^i = a for the table's primitive g (log[0] = 2q - 2,
# past every sum of two logs of nonzero elements) and exp[i] = g^i, i < q - 1.
FieldTables = namedtuple("FieldTables",
                         "p e q mul add sub neg inv frob log exp")


def _build_tables(p: int, e: int, mul) -> FieldTables:
    """The tables of GF(p^e) from a log/antilog pair (module doc).

    ``mul`` is the field's own multiplication on encoded ints; it only finds
    a primitive element g and its powers.
    """
    q = p**e
    for g in range(1, q):  # the first g whose powers reach q - 1 elements
        exp = [1]
        while (x := mul(exp[-1], g)) != 1:
            exp.append(x)
        if len(exp) == q - 1:
            break
    log = [2 * q - 2] * q  # log 0 points past the powers, into zeros
    for i, x in enumerate(exp):
        log[x] = i
    exp2 = exp * 2 + [0] * (2 * q - 1)
    mul_t = [exp2[la + lb] for la in log for lb in log]
    inv = [0] + [exp[-la] for la in log[1:]]
    frob = [0] + [exp[la * p % (q - 1)] for la in log[1:]]
    # add of e digits: the low digit's sum mod p plus p times the add of the
    # high e - 1 digits, read from the table one digit shorter
    low = [[(i + j) % p for j in range(p)] for i in range(p)]
    add = [0]  # the one-entry table of p^0 elements
    for j in range(e):
        r, up = p**j, [p * v for v in add]
        add = [hi + lo for a in range(r * p)
               for hi in up[a // p * r:(a // p + 1) * r] for lo in low[a % p]]
    neg = [add.index(0, a) - a for a in range(0, q * q, q)]
    sub = [add[a + nb] for a in range(0, q * q, q) for nb in neg]
    return FieldTables(p, e, q, mul_t, add, sub, neg, inv, frob, log, exp)


class PrimeField:
    """GF(p); elements are ints in [0, p)."""

    __slots__ = ("p", "e", "order", "char", "_tab")

    def __init__(self, p: int):
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        self.p = p
        self.e = 1
        self.order = p
        self.char = p
        self._tab = None

    def tables(self):
        """GF(p)'s ``FieldTables``, built on first call; None above the cap."""
        if self._tab is None and self.p <= _TABLE_LIMIT:
            self._tab = _build_tables(self.p, 1, self.mul)
        return self._tab

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
    for order <= _TABLE_LIMIT it is read from ``FieldTables`` built at
    construction (module doc).  The encoding depends on the modulus, so a
    caller-given modulus gets tables of its own.
    """

    __slots__ = ("p", "e", "order", "char", "modulus", "_rc", "_tab")

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
        self._tab = (_build_tables(p, e, partial(self._residue, self._rc.mul))
                     if self.order <= _TABLE_LIMIT else None)

    zero = 0
    one = 1

    def _residue(self, op, *args):
        # op of the residue ctx on the base-p digit tuples, encoded back
        p, e = self.p, self.e
        out = op(*(tuple(a // p**i % p for i in range(e)) for a in args))
        return sum(d * p**i for i, d in enumerate(out))

    # each op reads its table, or without tables (order above the cap)
    # runs the residue op; Poly arithmetic over GF(4) and GF(9) calls them
    # once per term

    def add(self, a, b):
        if self._tab:
            return self._tab.add[a * self.order + b]
        return self._residue(self._rc.add, a, b)

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def neg(self, a):
        if self._tab:
            return self._tab.neg[a]
        return self._residue(self._rc.neg, a)

    def mul(self, a, b):
        if self._tab:
            return self._tab.mul[a * self.order + b]
        return self._residue(self._rc.mul, a, b)

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        if self._tab:
            return self._tab.inv[a]
        return self._residue(self._rc.inv, a)

    pow_ = _pow

    def frobenius(self, a, k: int = 1):
        """x -> x^(p^k); k = e is the identity."""
        return self._residue(partial(self._rc.frobenius, k=k), a)

    def from_int(self, i: int):
        return i % self.p  # embeds the prime subfield

    def elements(self):
        return range(self.order)

    def rand(self, rng):
        return rng.randrange(self.order)

    def tables(self):
        """The field's ``FieldTables``; None above _TABLE_LIMIT."""
        return self._tab

    # the flat tables one by one, None above _TABLE_LIMIT
    def mul_table(self):
        return None if self._tab is None else self._tab.mul

    def add_table(self):
        return None if self._tab is None else self._tab.add

    def neg_table(self):
        return None if self._tab is None else self._tab.neg

    def inv_table(self):
        return None if self._tab is None else self._tab.inv

    def __eq__(self, other):
        return (isinstance(other, ExtField) and other.p == self.p
                and other.modulus == self.modulus)

    def __hash__(self):
        return hash(("ExtField", self.p, self.modulus))

    def __repr__(self):
        return f"GF({self.p}^{self.e})"


# typed, so that e = 1.0 or True misses the cache of e = 1 and is refused
@lru_cache(maxsize=None, typed=True)
def field_make(p: int, e: int = 1):
    """Field context for GF(p^e); e > 1 gets the deterministic lex modulus."""
    check_int(p, 0, "characteristic")  # an int; is_prime refuses the rest
    check_int(e, 1, "extension degree")
    if e == 1:
        return PrimeField(p)
    return ExtField(p, e)


@lru_cache(maxsize=None, typed=True)
def field_from_cardinality(q: int):
    """Field context for GF(q), factoring q = p^e."""
    check_int(q, 2, "field cardinality")
    p = next((f for f in range(2, math.isqrt(q) + 1) if q % f == 0), q)
    e = 1
    while p**e < q:
        e += 1
    if p**e != q:
        raise ValueError(f"{q} is not a prime power")
    return field_make(p, e)


def check_int(x, low: int, name: str, high: int | None = None):
    """ValueError unless ``x`` is an int >= ``low``, and < ``high`` if given
    (a code of GF(q) is ``high = q``); bools, floats and numpy ints are not.
    """
    if type(x) is int and low <= x and (high is None or x < high):
        return
    if high is not None:
        raise ValueError(f"{name} must be a code in {low}..{high - 1}, "
                         f"got {x!r}")
    if type(x) is not int:
        raise ValueError(f"{name} must be an int, got {x!r}")
    raise ValueError(f"{name} must be >= {low}, got {x!r}")


@lru_cache(maxsize=None)
def _place_values(p: int, e: int):
    """p^0 .. p^(e-1), a read-only int64 array cached per (p, e)."""
    import numpy as np
    out = p ** np.arange(e, dtype=np.int64)
    out.flags.writeable = False
    return out


def to_digits(codes, p: int, e: int):
    """int64 base-p digits of GF(p^e) codes, on a new last axis of length e."""
    import numpy as np
    return np.asarray(codes, np.int64)[..., None] // _place_values(p, e) % p


def from_digits(digits, p: int, e: int):
    """The codes of base-p digits on the last axis (inverts ``to_digits``)."""
    return digits @ _place_values(p, e)


@lru_cache(maxsize=None)
def generator_digits(ctx, count: int):
    """(e, count, e) int64, cached and read-only: [c, r, a] is digit c of
    x^(r+a), x the generator (code p; x^0 = 1 over GF(p)).  [:, :, 0] folds
    a digit product of degree < count back to e digits."""
    p, e = ctx.char, ctx.e
    out = to_digits([[ctx.pow_(p, r + a) for a in range(e)]
                     for r in range(count)], p, e).transpose(2, 0, 1).copy()
    out.flags.writeable = False
    return out


def field_tables(ctx) -> FieldTables:
    """A field's ``FieldTables``; the one refusal above the table cap."""
    t = ctx.tables()
    if t is None:
        raise ValueError(f"{ctx!r} is above table cap: ff's tables stop at "
                         f"{_TABLE_LIMIT} elements")
    return t


class ArrayOps(namedtuple("ArrayOps", "p e q mul_table add_table sub_table "
                          "neg inv log alog")):
    """GF(q)'s arithmetic on code arrays, one per field (``array_ops``).

    ``mul``, ``add`` and ``sub`` act elementwise through read-only flat
    uint16 copies of the tables (q <= 256, so the flat index a*q + b fits,
    and a take on uint16 runs about 3x faster than on intp); ``neg`` and
    ``inv`` are uint16 tables.  The log form: ``log`` with log 0 = 3(q-1),
    past every sum of three logs, and ``alog``, the base-p digits of g^i,
    zero from 3(q-1) on."""

    __slots__ = ()

    def mul(self, a, b):
        return self.mul_table.take(a * self.q + b)

    def add(self, a, b):
        return self.add_table.take(a * self.q + b)

    def sub(self, a, b):
        return self.sub_table.take(a * self.q + b)

    def eliminate(self, a, ncols):
        """Gaussian elimination of the first ncols columns of each (R, W)
        matrix of an (R, W, N) array, R >= ncols, batch last.  To a zero
        diagonal entry it adds the first row below that is nonzero there,
        so no step changes a determinant: the pivots left on the diagonal
        times det of the trailing block is det of the leading R columns.
        True where every pivot is nonzero.  Overwrites a."""
        import numpy as np
        ok = np.ones(a.shape[2], dtype=bool)
        for c in range(ncols):
            piv = c + (a[c:, c] != 0).argmax(axis=0)
            at = np.flatnonzero(piv != c)
            if at.size:
                a[c, c:, at] = self.add(a[c, c:, at], a[piv[at], c:, at])
            ok &= a[c, c] != 0
            f = self.mul(a[c + 1:, c], self.inv.take(a[c, c]))
            a[c + 1:, c + 1:] = self.sub(a[c + 1:, c + 1:],
                                         self.mul(f[:, None], a[c, c + 1:]))
        return ok


@lru_cache(maxsize=None)
def array_ops(ctx) -> ArrayOps:
    """The ``ArrayOps`` of a field context, built once from its tables and
    shared by every route over it; ValueError above the table cap."""
    import numpy as np
    t = field_tables(ctx)
    zero = 3 * (t.q - 1)
    alog = to_digits([t.exp[i % (t.q - 1)] if i < zero else 0
                      for i in range(3 * zero + 1)], t.p, t.e)
    arrays = [np.array(x, dtype=np.uint16)
              for x in (t.mul, t.add, t.sub, t.neg, t.inv)]
    arrays += [np.array([zero] + t.log[1:]), alog]
    for x in arrays:
        x.flags.writeable = False
    return ArrayOps(t.p, t.e, t.q, *arrays)


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

