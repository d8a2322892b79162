import hashlib
import json
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from carlitz import (field_make, field_from_cardinality, binom_mod_p, ExtField,
                     ResidueCtx, Poly)
from carlitz.euler import truncated_product
from carlitz.fastrank import RankEngine
from carlitz.ff import (array_ops, check_int, from_digits, generator_digits,
                        is_prime, to_digits)
from carlitz.linalg import det_cofactor
from carlitz.lfun import LFun, lfun_substitute
from carlitz.motive import (TwistedPower, analytic_ranks, build_matrix,
                            d_coefficients, infinity_factor)
from carlitz.poly import irreducibles_of_degree, poly_from_str
from carlitz.scan import ScanSpec, coset_audit, dim_report
from carlitz.symmetry import Iota, Mu, Sigma, act_on_poly, conjugator, \
    verify_conjugacy


def test_field_make_prime_fields():
    f3 = field_make(3)
    assert list(f3.elements()) == [0, 1, 2]
    assert field_make(2).order == 2


def test_field_make_rejects_bad_input():
    with pytest.raises(ValueError):
        field_make(4)  # not prime
    with pytest.raises(ValueError):
        field_make(3, 0)
    with pytest.raises(ValueError, match="reducible"):
        ExtField(3, 2, modulus=(0, 0, 1))  # x^2
    with pytest.raises(ValueError, match="reducible"):
        ExtField(3, 2, modulus=(2, 0, 1))  # x^2 - 1
    with pytest.raises(ValueError, match="monic"):
        ExtField(3, 2, modulus=(1, 0, 2))
    assert ExtField(3, 2, modulus=(2, 1, 1)).modulus == (2, 1, 1)


def test_f9_modulus_is_lex_smallest():
    # exhaustive oracle over the 9 monic quadratics: first irreducible is x²+1
    f9 = field_make(3, 2)
    cands = []
    for c in range(9):
        a0, a1 = c % 3, c // 3 % 3
        has_root = any((x * x + a1 * x + a0) % 3 == 0 for x in range(3))
        cands.append(((a0, a1), not has_root))
    first = next(co for co, irr in cands if irr)
    assert first == (1, 0)
    assert f9.modulus == (1, 0, 1)


# Moduli of every GF(p^e) <= 256 with e >= 2: they fix the integer encoding
# of field elements, so scan witnesses and JSON outputs depend on them.
PINNED_MODULI = {
    (2, 2): (1, 1, 1),
    (2, 3): (1, 1, 0, 1),
    (2, 4): (1, 1, 0, 0, 1),
    (2, 5): (1, 0, 1, 0, 0, 1),
    (2, 6): (1, 1, 0, 0, 0, 0, 1),
    (2, 7): (1, 1, 0, 0, 0, 0, 0, 1),
    (2, 8): (1, 1, 0, 1, 1, 0, 0, 0, 1),
    (3, 2): (1, 0, 1),
    (3, 3): (1, 2, 0, 1),
    (3, 4): (2, 1, 0, 0, 1),
    (3, 5): (1, 2, 0, 0, 0, 1),
    (5, 2): (2, 0, 1),
    (5, 3): (1, 1, 0, 1),
    (7, 2): (1, 0, 1),
    (11, 2): (1, 0, 1),
    (13, 2): (2, 0, 1),
}


def test_pinned_field_moduli():
    assert [pe for pe in PINNED_MODULI] == sorted(
        (p, e) for p in range(2, 17) if is_prime(p)
        for e in range(2, 9) if p**e <= 256)
    for (p, e), mod in PINNED_MODULI.items():
        assert field_make(p, e).modulus == mod, (p, e)


# sha256 of (q, mul, add, sub, inv, frob) of every GF(p^e) <= 256, prime
# fields included, under the default modulus; recorded with the scalar-op
# table builds that the log/antilog builder replaced.  The point engine's
# arithmetic and ExtField's are read from these tables.
_PINNED_TABLES_SHA256 = (
    "8372e269d62d83a18ba3e0ad81c57d7fe2be2081834756164eb688f6466d1069")


def test_field_tables_pinned():
    h = hashlib.sha256()
    qs = sorted(p**e for p in range(2, 257) if is_prime(p)
                for e in range(1, 9) if p**e <= 256)
    for q in qs:
        t = field_from_cardinality(q).tables()
        assert t.q == q and t.p**t.e == q
        assert [t.add[a * q + t.neg[a]] for a in range(q)] == [0] * q
        h.update(json.dumps([q, t.mul, t.add, t.sub, t.inv, t.frob]).encode())
    assert h.hexdigest() == _PINNED_TABLES_SHA256


def test_caller_modulus_gets_own_tables():
    # the encoding depends on the modulus: x^2 + x + 2 gets tables of its
    # own, every entry its residue op's
    f = ExtField(3, 2, modulus=(2, 1, 1))
    t = f.tables()
    assert t.mul != field_make(3, 2).tables().mul
    for a in range(9):
        assert t.neg[a] == f._residue(f._rc.neg, a)
        assert t.inv[a] == (a and f._residue(f._rc.inv, a))
        assert t.frob[a] == f._residue(f._rc.frobenius, a)
        for b in range(9):
            for op in ("mul", "add", "sub"):
                assert (getattr(t, op)[a * 9 + b]
                        == f._residue(getattr(f._rc, op), a, b))


def test_frobenius_prime_field_fixed():
    f3 = field_make(3)
    assert f3.frobenius(2, 5) == 2
    assert f3.frobenius(0, 1) == 0


def test_frobenius_f9_conjugates_theta():
    f9 = field_make(3, 2)
    theta = 3  # digits (0, 1)
    assert f9.frobenius(theta, 1) == 6  # θ³ = -θ = 2θ
    assert f9.frobenius(theta, 2) == theta
    for x in f9.elements():
        assert f9.pow_(x, 9) == x


@pytest.mark.parametrize("j,i,p,want", [(3, 1, 3, 0), (8, 5, 3, 2), (5, 9, 3, 0)])
def test_binom_examples(j, i, p, want):
    assert binom_mod_p(j, i, p) == want


@pytest.mark.parametrize("p", [2, 3, 5])
def test_binom_against_integer_oracle(p):
    for j in range(31):
        for i in range(j + 1):
            assert binom_mod_p(j, i, p) == math.comb(j, i) % p


@pytest.mark.parametrize("q", [2, 3])
def test_binom_digit_identities(q):
    # C(l, q(i+1)-1) = 0 unless l ≡ -1 mod q, where it is C((l+1)/q - 1, i)
    for l in range(41):
        for i in range(13):
            got = binom_mod_p(l, q * (i + 1) - 1, q)
            if l % q != q - 1:
                assert got == 0
            else:
                assert got == binom_mod_p((l + 1) // q - 1, i, q)
    # C(aq, cq) = C(a, c)
    for a in range(12):
        for c in range(12):
            assert binom_mod_p(a * q, c * q, q) == binom_mod_p(a, c, q)


@settings(max_examples=60)
@given(st.integers(0, 8), st.integers(0, 8), st.integers(0, 8))
def test_f9_ring_axioms(a, b, c):
    f9 = field_make(3, 2)
    assert f9.add(a, b) == f9.add(b, a)
    assert f9.mul(a, b) == f9.mul(b, a)
    assert f9.mul(a, f9.add(b, c)) == f9.add(f9.mul(a, b), f9.mul(a, c))
    assert f9.mul(f9.mul(a, b), c) == f9.mul(a, f9.mul(b, c))


@settings(max_examples=40)
@given(st.integers(0, 8), st.integers(0, 8))
def test_frobenius_additive(a, b):
    f9 = field_make(3, 2)
    lhs = f9.pow_(f9.add(a, b), 3)
    rhs = f9.add(f9.pow_(a, 3), f9.pow_(b, 3))
    assert lhs == rhs


@pytest.mark.parametrize("q", [2, 3, 9])
def test_inverses(q):
    ctx = field_make(3, 2) if q == 9 else field_make(q)
    for x in ctx.elements():
        if x != ctx.zero:
            assert ctx.mul(x, ctx.inv(x)) == ctx.one
    with pytest.raises(ZeroDivisionError):
        ctx.inv(ctx.zero)


def test_frobenius_negative_exponent(f3):
    # x -> x^(p^-1) inverts x -> x^p, and equals x -> x^(p^(e-1))
    f9 = field_make(3, 2)
    assert f9.frobenius(4, -1) == 7
    ctxs = [(field_make(p, e), e) for p, e in ((2, 2), (3, 2), (3, 3))]
    rc = ResidueCtx(f3, (1, 2, 0, 1))  # θ³+2θ+1
    ctxs.append((rc, rc.d))
    for ctx, e in ctxs:
        for x in ctx.elements():
            assert ctx.frobenius(ctx.frobenius(x, 1), -1) == x
            assert ctx.frobenius(x, -1) == ctx.frobenius(x, e - 1)


def _oracle_pow(a, k, mod):
    # a^k mod `mod` by Poly square-and-multiply
    r = Poly.one(a.ctx)
    while k:
        if k & 1:
            r = r * a % mod
        a = a * a % mod
        k >>= 1
    return r


@pytest.mark.parametrize("p,e", [(2, 2), (5, 2), (3, 3), (2, 8), (3, 5),
                                 (2, 9), (3, 6)])
def test_ext_field_against_poly_oracle(p, e):
    # GF(4), GF(25), GF(27), GF(256), GF(243) through their tables; GF(512),
    # GF(729) without
    fp = field_make(p)
    f = field_make(p, e)
    assert (f.mul_table() is None) == (f.order > 256)
    mod = Poly(fp, f.modulus)

    def dec(a):  # base-p digits, little-endian
        return Poly(fp, [a // p**i % p for i in range(e)])

    def enc(x):
        return sum(c * p**i for i, c in enumerate(x.coeffs))

    rng = random.Random(p * 100 + e)
    for _ in range(25):
        a, b = rng.randrange(f.order), rng.randrange(1, f.order)
        k = rng.randrange(40)
        assert f.mul(a, b) == enc(dec(a) * dec(b) % mod)
        assert f.add(a, b) == enc(dec(a) + dec(b))
        assert f.neg(a) == enc(-dec(a))
        assert enc(dec(b) * dec(f.inv(b)) % mod) == 1
        assert f.pow_(a, k) == enc(_oracle_pow(dec(a), k, mod))
        assert f.pow_(b, -k) == f.inv(enc(_oracle_pow(dec(b), k, mod)))
        for j in range(e):
            assert f.frobenius(a, j) == enc(_oracle_pow(dec(a), p**j, mod))
        assert f.frobenius(a, e) == a


def test_residue_ctx_basics(f3):
    rc = ResidueCtx(f3, (1, 0, 1))  # θ²+1
    assert rc.order == 9
    th = rc.theta()
    assert rc.mul(th, th) == rc.neg(rc.one)  # θ² = -1
    assert rc.frobenius(th, 1) == rc.neg(th)
    assert rc.frobenius(th, 2) == th
    for x in rc.elements():
        if x != rc.zero:
            assert rc.mul(x, rc.inv(x)) == rc.one
        assert rc.frobenius(x, rc.d) == x


def test_residue_ctx_rejects_reducible(f3, f9):
    with pytest.raises(ValueError):
        ResidueCtx(f3, (2, 0, 1))  # θ²-1 = (θ-1)(θ+1)
    # θ²+1 is irreducible over GF(3) but splits over GF(9) = GF(3)[x]/(x²+1)
    with pytest.raises(ValueError):
        ResidueCtx(f9, (1, 0, 1))
    with pytest.raises(ValueError):
        ResidueCtx(f9, (2, 0, 1))  # θ²-1


def test_residue_ctx_over_extension_field():
    # an irreducible quadratic over GF(4) and over GF(9): the tower,
    # Frobenius of order d = 2, and inverses of every nonzero element
    from carlitz.poly import irreducibles_of_degree
    for base in (field_make(2, 2), field_make(3, 2)):
        prime = next(irreducibles_of_degree(base, 2))
        rc = ResidueCtx(base, prime.coeffs)
        assert rc.order == base.order**2
        th = rc.theta()
        assert rc.frobenius(th, 2) == th
        assert rc.frobenius(th, 1) != th
        for x in rc.elements():
            if x != rc.zero:
                assert rc.mul(x, rc.inv(x)) == rc.one
        with pytest.raises(ZeroDivisionError):
            rc.inv(rc.zero)


def test_is_prime():
    assert [n for n in range(2, 30) if is_prime(n)] == \
        [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]


@pytest.mark.parametrize("p,e", [(2, 1), (2, 2), (2, 3), (3, 2), (5, 2),
                                 (3, 3), (2, 9), (3, 6), (10**9 + 7, 1)])
def test_codec_round_trip(p, e, rng):
    # every code up to GF(3^6), random codes of GF(10^9 + 7): the digits on
    # a new last axis are the little-endian base-p digits, and from_digits
    # inverts to_digits
    q = p**e
    codes = (list(range(q)) if q <= 729 else
             [0, 1, q - 1] + [rng.randrange(q) for _ in range(300)])
    digits = to_digits(codes, p, e)
    assert digits.shape == (len(codes), e) and digits.dtype == np.int64
    assert digits.tolist() == [[c // p**a % p for a in range(e)]
                               for c in codes]
    assert from_digits(digits, p, e).tolist() == codes
    grid = np.resize(codes, (2, 3))
    assert to_digits(grid, p, e).shape == (2, 3, e)
    assert (from_digits(to_digits(grid, p, e), p, e) == grid).all()


@pytest.mark.parametrize("q", [4, 8, 9, 25, 27, 512, 729])
def test_generator_digits_are_generator_powers(q):
    # [c, r, a] is digit c of x^(r+a), x the generator (code p), checked
    # against the field's own arithmetic for the counts the routes read
    ctx = field_from_cardinality(q)
    p, e = ctx.char, ctx.e
    for count in (1, e, 2 * e - 1):
        table = generator_digits(ctx, count)
        assert table.shape == (e, count, e) and table.dtype == np.int64
        assert not table.flags.writeable
        assert table is generator_digits(ctx, count)
        for r in range(count):
            want = [ctx.mul(ctx.pow_(p, r), ctx.pow_(p, a)) for a in range(e)]
            assert from_digits(table[:, r, :].T, p, e).tolist() == want


def test_generator_digits_over_prime_fields():
    for p in (2, 3, 7, 10**9 + 7):
        assert generator_digits(field_make(p), 1).tolist() == [[[1]]]


def test_check_code(f9):
    check_int(0, 0, "d", f9.order)
    check_int(8, 1, "c", f9.order)
    for c, low in ((9, 0), (-1, 0), (0, 1), (1.0, 0), (True, 0), ("1", 0)):
        with pytest.raises(ValueError, match="must be a code in"):
            check_int(c, low, "c", f9.order)
    check_int(0, 0, "n")
    for x, msg in ((-1, "n must be >= 0, got -1"), (1.0, "n must be an int"),
                   (True, "n must be an int"),
                   (np.int64(1), "n must be an int")):
        with pytest.raises(ValueError, match=msg):
            check_int(x, 0, "n")


def _matrices(rng, q, k, count):
    """count random k x k code matrices; every third has a zero diagonal,
    every third from the second on a repeated row (rank-deficient)."""
    out = []
    for i in range(count):
        m = [[rng.randrange(q) for _ in range(k)] for _ in range(k)]
        if i % 3 == 0:
            for j in range(k):
                m[j][j] = 0
        elif i % 3 == 1 and k > 1:
            m[-1] = list(m[0])
        out.append(m)
    return out


def test_eliminate_pivots_times_trailing_det_is_the_det(rng):
    # ff's one elimination adds a row below to a zero diagonal entry instead
    # of swapping, so no step changes a determinant: after ncols columns the
    # pivots times det of the trailing block is det, against the cofactor
    # expansion on constant Poly entries
    for q in (2, 3, 4, 5, 9):
        ctx = field_from_cardinality(q)
        ops, zero, one = array_ops(ctx), Poly.zero(ctx), Poly.one(ctx)
        for k in range(1, 6):
            mats = _matrices(rng, q, k, 12)
            want = [det_cofactor([[Poly(ctx, [x]) for x in row] for row in m],
                                 zero, one) for m in mats]
            assert any(w.is_zero() for w in want)
            for ncols in range(k + 1):
                a = np.array(mats, dtype=np.uint16).transpose(1, 2, 0).copy()
                ok = ops.eliminate(a, ncols)
                for f, m in enumerate(mats):
                    pivots = [int(a[c, c, f]) for c in range(ncols)]
                    rest = range(ncols, k)
                    got = det_cofactor([[Poly(ctx, [int(a[i, j, f])])
                                         for j in rest] for i in rest],
                                       zero, one)
                    for x in pivots:
                        got = got.scalar_mul(x)
                    assert got == want[f], (q, k, ncols, m)
                    assert ok[f] == all(pivots)


def test_array_ops_log_form(rng):
    # log 0 lies past every sum of three logs, where alog reads 0
    for q in (2, 4, 9, 256):
        ops = array_ops(field_from_cardinality(q))
        a, b, c = (np.array([rng.randrange(q) for _ in range(200)])
                   for _ in range(3))
        got = from_digits(ops.alog[ops.log[a] + ops.log[b] + ops.log[c]],
                          ops.p, ops.e)
        assert got.tolist() == ops.mul(ops.mul(a, b), c).tolist()
        assert not any(x.flags.writeable for x in ops[3:])


def _twist(coeffs, n=1):
    return TwistedPower(Poly(field_make(3), coeffs), n)


# every int argument a caller passes goes through ff.check_int: a float, a
# bool or an out-of-range value is refused with ValueError (ScanSpec, the
# L-function JSON, γ, shift, scale and the generators' codes have rows in
# their modules' tests); a float or a bool was often accepted, as n = 1.5 or
# d = True, or raised TypeError from deep inside
_BAD_INTS = {
    "field_make e=1.0": lambda: field_make(3, 1.0),
    "field_make e=True": lambda: field_make(3, True),
    "field_make e=0": lambda: field_make(3, 0),
    "field_make p=3.0": lambda: field_make(3.0),
    "field_from_cardinality q=9.0": lambda: field_from_cardinality(9.0),
    "field_from_cardinality q=True": lambda: field_from_cardinality(True),
    "field_from_cardinality q=1": lambda: field_from_cardinality(1),
    "TwistedPower n=1.5": lambda: _twist([0, 1], 1.5),
    "TwistedPower n=True": lambda: _twist([0, 1], True),
    "TwistedPower n=0": lambda: _twist([0, 1], 0),
    "TwistedPower coefficient 1.0": lambda: _twist([1.0, 1]),
    "TwistedPower coefficient 3": lambda: _twist([3, 1]),
    "build_matrix k=2.0": lambda: build_matrix(_twist([0, 1]), 2.0),
    "build_matrix k < k_min": lambda: build_matrix(_twist([0, 2, 0, 2]), 1),
    "infinity_factor nfrak=-2.0":
        lambda: infinity_factor(_twist([0, 0, 0, 2]), -2.0),
    "infinity_factor nfrak=-1":
        lambda: infinity_factor(_twist([0, 0, 0, 2]), -1),
    "d_coefficients k=1.0":
        lambda: d_coefficients(LFun.one(field_make(3)), 1.0),
    "analytic_ranks n=1.0": lambda: analytic_ranks([[1, 2]], 1.0,
                                                   field_make(3)),
    "poly_from_str coefficient 3": lambda: poly_from_str(field_make(3), "0,3"),
    "irreducibles_of_degree d=1.0":
        lambda: next(irreducibles_of_degree(field_make(3), 1.0)),
    "irreducibles_of_degree d=0":
        lambda: next(irreducibles_of_degree(field_make(3), 0)),
    "truncated_product bound=2.0": lambda: truncated_product(_twist([1]), 2.0),
    "truncated_product bound=True":
        lambda: truncated_product(_twist([1]), True),
    "truncated_product bound=0": lambda: truncated_product(_twist([1]), 0),
    "Sigma k=1.5": lambda: act_on_poly(Sigma(1.5), _twist([0, 1])),
    "Sigma k=True": lambda: act_on_poly(Sigma(True), _twist([0, 1])),
    "Sigma k=0": lambda: act_on_poly(Sigma(0), _twist([0, 1])),
    "Iota m=3.0": lambda: act_on_poly(Iota(3.0), _twist([1, 0, 1])),
    "conjugator w1 d=4": lambda: conjugator(field_make(3), "w1", 3, d=4),
    "conjugator w1 d=True": lambda: conjugator(field_make(3), "w1", 3, d=True),
    "conjugator size=2.5": lambda: conjugator(field_make(3), "w5", 2.5),
    "conjugator size=0": lambda: conjugator(field_make(3), "w5", 0),
    "conjugator w5 n=1.5": lambda: conjugator(field_make(3), "w5", 3, n=1.5),
    "verify_conjugacy window=2.5":
        lambda: verify_conjugacy(Mu(1), _twist([0, 1]), 2.5),
    "verify_conjugacy window=0":
        lambda: verify_conjugacy(Mu(1), _twist([0, 1]), 0),
    "RankEngine p=3.0": lambda: RankEngine(3.0, 1, 3),
    "RankEngine n=0": lambda: RankEngine(3, 0, 5),
    "RankEngine n=1.0": lambda: RankEngine(3, 1.0, 5),
    "RankEngine m=-1": lambda: RankEngine(3, 1, -1),
    "RankEngine k=-1": lambda: RankEngine(3, 1, 5, k=-1),
    "RankEngine k=2.0": lambda: RankEngine(3, 1, 5, k=2.0),
    # a code -1 read the last table entry, 3 raised IndexError
    "vanishing_order coefficient -1":
        lambda: RankEngine(3, 2, 3).vanishing_order((1, -1, 0, 1)),
    "vanishing_order coefficient 3":
        lambda: RankEngine(3, 2, 3).vanishing_order((1, 3, 0, 1)),
    "vanishing_order coefficient 1.0":
        lambda: RankEngine(3, 2, 3).vanishing_order((1, 1.0, 0, 1)),
    "vanishing_order coefficient True":
        lambda: RankEngine(3, 2, 3).vanishing_order((1, True, 0, 1)),
    # rows were cast to int64, so these ranked as [[1, 1]]
    "analytic_ranks row 1.5":
        lambda: analytic_ranks([[1.5, 1]], 1, field_make(3)),
    "analytic_ranks row True":
        lambda: analytic_ranks([[True, 1]], 1, field_make(3)),
    "analytic_ranks float array":
        lambda: analytic_ranks(np.array([[1.0, 1.0]]), 1, field_make(3)),
    "analytic_ranks bool array":
        lambda: analytic_ranks(np.array([[True, True]]), 1, field_make(3)),
    "ScanSpec q=3.0": lambda: ScanSpec(q=3.0, n=1, m=3, lead=1),
    "coset_audit q=3.0": lambda: coset_audit(3.0, 1, 3),
    "coset_audit n=1.0": lambda: coset_audit(3, 1.0, 3),
    "coset_audit m_max=True": lambda: coset_audit(3, 1, True),
    "coset_audit m_max=-1": lambda: coset_audit(3, 1, -1),
    "dim_report r=2.5": lambda: dim_report(3, 2.5),
    "dim_report r=True": lambda: dim_report(3, True),
    "dim_report r=0": lambda: dim_report(3, 0),
    "dim_report m=4.5": lambda: dim_report(3, 2, m=4.5),
    "lfun_substitute power k=-1":
        lambda: lfun_substitute(LFun.one(field_make(3)), ("power", -1)),
    "lfun_substitute power k=1.5":
        lambda: lfun_substitute(LFun.one(field_make(3)), ("power", 1.5)),
    "lfun_substitute power k=True":
        lambda: lfun_substitute(LFun.one(field_make(3)), ("power", True)),
    "lfun_substitute invert n=1.5":
        lambda: lfun_substitute(LFun.one(field_make(3)), ("invert", 1.5)),
    "lfun_substitute invert n=True":
        lambda: lfun_substitute(LFun.one(field_make(3)), ("invert", True)),
}


@pytest.mark.parametrize("call", _BAD_INTS.values(), ids=_BAD_INTS)
def test_int_arguments_are_checked(call):
    with pytest.raises(ValueError, match="must be (an int|>=|a code in)"):
        call()
