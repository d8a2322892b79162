import hashlib
import itertools
import json
import math
import random

import numpy as np
import pytest

from carlitz import (field_make, field_from_cardinality, Poly, LFun,
                     lfun_order_at, TwistedPower, build_matrix, l_function,
                     analytic_rank, infinity_factor, d_coefficients)
from carlitz.euler import truncated_product
from carlitz.fastrank import RankEngine
from carlitz.motive import (_band_codes, _band_gather, _matrix_rows,
                            analytic_ranks, band_index, stable_size)
from carlitz.linalg import berkowitz_stack, det_identity_minus_mu, det_cofactor


def tp3(coeffs, n=1):
    return TwistedPower(Poly(field_make(3), coeffs), n)


def _codes_at(t, k):
    # t's k x k matrix as field codes, gathered as motive gathers k_min's
    band = _band_codes([t.P.coeffs], t.n, t.ctx)[0]
    return band[band_index(t.ctx.order, k, len(band) - 1)]


def test_twisted_power_validation(f3, f9):
    with pytest.raises(ValueError):
        TwistedPower(Poly.zero(f3), 1)
    with pytest.raises(ValueError):
        TwistedPower(Poly.one(f3), 0)
    t = tp3([0, 2, 0, 2])
    assert (t.m, t.k_min) == (3, 2)
    # a coefficient outside GF(9)'s codes: l_function read 10 as 1, while
    # analytic_rank refused it
    for coeffs in ([10, 0, 1], [-1, 1], [0, 9]):
        with pytest.raises(ValueError, match=r"code in 0\.\.8"):
            TwistedPower(Poly(f9, coeffs), 1)


def test_matrix_rank2_witness():
    t = tp3([0, 2, 0, 2])
    m = build_matrix(t, 2)
    f3 = field_make(3)
    assert m == ((Poly(f3, [1]), Poly(f3, [0, 2])),
                 (Poly.zero(f3), Poly(f3, [1])))


def test_matrix_trivial_twists():
    assert build_matrix(tp3([1]), 1)[0][0].is_zero()
    assert build_matrix(tp3([1], n=2), 1)[0][0] == Poly(field_make(3), [1])


def test_matrix_rejects_small_k():
    with pytest.raises(ValueError):
        build_matrix(tp3([0, 2, 0, 2]), 1)


def test_band_structure_below_stable_rows(rng):
    # rows past the stable size vanish on and left of the diagonal
    for _ in range(15):
        q = rng.choice([2, 3])
        ctx = field_make(q)
        m = rng.randrange(0, 7)
        coeffs = [rng.randrange(q) for _ in range(m)] + [rng.randrange(1, q)]
        t = TwistedPower(Poly(ctx, coeffs), rng.randrange(1, 3))
        k = t.k_min + 2
        mat = build_matrix(t, k)
        for i in range(t.k_min, k):
            for j in range(i + 1):
                assert mat[i][j].is_zero()


def test_matrix_rows_match_paper_formula(rng):
    # entry (i, j), 1-based, is sum_l T^(n-l) (-1)^l C(n, l) a_{iq-j-l},
    # a_* zero outside [0, m]; written out here independently of motive's
    # band, for prime and extension fields and sizes past the stable one.
    # GF(2^9) is above ff's table cap, so there the band runs on digits
    # alone; entry (1, 1) reads a_{q-1-l}, so there m starts at q-1-n
    for q in (2, 3, 4, 5, 9, 512):
        ctx = field_from_cardinality(q)
        p = ctx.char
        nonzero = 0
        for n in (1, 2, 3):
            for _ in range(3):
                m = (rng.randrange(0, 9) if q < 512
                     else q - 1 - n + rng.randrange(q + 2))
                coeffs = [ctx.rand(rng) for _ in range(m)] \
                    + [rng.randrange(1, q)]
                t = TwistedPower(Poly(ctx, coeffs), n)
                for k in range(1, t.k_min + 4):
                    rows = _matrix_rows(t, k)
                    assert len(rows) == k
                    for i in range(1, k + 1):
                        assert len(rows[i - 1]) == k
                        for j in range(1, k + 1):
                            tc = [ctx.zero] * (n + 1)
                            for l in range(n + 1):
                                idx = i * q - j - l
                                if 0 <= idx <= m:
                                    c = (-1) ** l * math.comb(n, l) % p
                                    tc[n - l] = ctx.add(tc[n - l], ctx.mul(
                                        ctx.from_int(c), coeffs[idx]))
                            want = Poly(ctx, tc)
                            assert rows[i - 1][j - 1] == want, \
                                (q, n, coeffs, k, i, j)
                            nonzero += not want.is_zero()
        assert nonzero, q


def test_l_function_examples():
    f3 = field_make(3)
    assert l_function(tp3([1])) == LFun.one(f3)
    assert l_function(tp3([0, 2, 0, 2])) == \
        LFun(f3, [Poly(f3, [1]), Poly(f3, [1]), Poly(f3, [1])])
    assert l_function(tp3([1], n=2)) == LFun(f3, [Poly(f3, [1]), Poly(f3, [2])])


def test_second_routes_never_read_the_memo():
    # a wrong L in a twist's memo reaches l_function only: the Euler product
    # and the point engine answer as for a fresh twist, so comparing them
    # with the poisoned L fails
    coeffs, n = [0, 2, 0, 2], 1
    fresh, poisoned = tp3(coeffs, n), tp3(coeffs, n)
    f3 = fresh.ctx
    wrong = LFun(f3, [Poly.one(f3), Poly(f3, [0, 1])])
    poisoned.__dict__["_det_l"] = wrong
    assert l_function(poisoned) is wrong
    assert l_function(fresh) != wrong
    bound = fresh.k_min
    assert truncated_product(poisoned, bound) == \
        truncated_product(fresh, bound) == l_function(fresh).truncate(bound)
    assert truncated_product(poisoned, bound) != wrong.truncate(bound)
    eng = RankEngine(3, n, fresh.m)
    assert eng.vanishing_order(poisoned.P.coeffs, 0) == \
        eng.vanishing_order(fresh.P.coeffs, 0) == \
        lfun_order_at(l_function(fresh), f3.one)


def test_analytic_rank_examples():
    assert analytic_rank(tp3([1])) == 0
    assert analytic_rank(tp3([0, 2, 0, 2])) == 2
    # the degree-21 shift-stable witness has rank 5
    f3 = field_make(3)
    base = Poly(f3, [0, 2, 0, 1])
    p = Poly.zero(f3)
    for i, c in enumerate([0, 2, 0, 1, 0, 1, 0, 1]):
        if c:
            p = p + (base**i).scalar_mul(c)
    assert p.degree == 21
    assert analytic_rank(TwistedPower(p, 1)) == 5


def test_stability_of_determinant(rng):
    for _ in range(25):
        q = rng.choice([2, 3])
        ctx = field_make(q)
        m = rng.randrange(0, 10)
        coeffs = [rng.randrange(q) for _ in range(m)] + [rng.randrange(1, q)]
        n = rng.randrange(1, 3)
        t = TwistedPower(Poly(ctx, coeffs), n)
        dets = []
        for k in (t.k_min, t.k_min + 1, t.k_min + 2):
            vec = det_identity_minus_mu(_codes_at(t, k), ctx)
            dets.append(LFun(ctx, vec))
        assert dets[0] == dets[1] == dets[2]


def test_berkowitz_matches_cofactor_expansion(rng):
    # det(I - M U) evaluated at scalar points vs brute-force cofactor dets,
    # over prime and extension fields, entries of T-degree <= 2 (some lower)
    for q in (2, 3, 4, 5, 9):
        ctx = field_from_cardinality(q)
        zero, one = Poly.zero(ctx), Poly.one(ctx)
        for _ in range(6):
            k = rng.randrange(1, 6)
            codes = np.zeros((k, k, rng.randrange(1, 4)), dtype=np.int64)
            for i in range(k):
                for j in range(k):
                    for d in range(rng.randrange(codes.shape[2] + 1)):
                        codes[i, j, d] = ctx.rand(rng)
            rows = [[Poly(ctx, c.tolist()) for c in row] for row in codes]
            vec = det_identity_minus_mu(codes, ctx)
            assert len(vec) == k + 1 and vec[0] == one
            for t0 in ctx.elements():
                vals = [[r.evaluate(t0) for r in row] for row in rows]
                for u0 in ctx.elements():
                    mat = [[Poly.constant(ctx, ctx.sub(
                                ctx.one if i == j else ctx.zero,
                                ctx.mul(u0, vals[i][j])))
                            for j in range(k)] for i in range(k)]
                    want = det_cofactor(mat, zero, one)
                    got = ctx.zero
                    for c in reversed(vec):
                        got = ctx.add(ctx.mul(got, u0), c.evaluate(t0))
                    assert want == Poly.constant(ctx, got)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 9])
def test_berkowitz_stack_matches_single_matrices(q):
    # member b of a stack gives what det_identity_minus_mu gives for M_b
    # alone, unpadded; members have their own T-degrees 0..2, padded to the
    # stack's
    rng = random.Random(q)
    ctx = field_from_cardinality(q)
    powers = ctx.char ** np.arange(ctx.e)
    for k in range(1, 15):
        for count in (1, 2, 16):
            degs = [rng.randrange(3) for _ in range(count)]
            deg = max(degs)
            codes = np.zeros((count, k, k, deg + 1), dtype=np.int64)
            for b, d in enumerate(degs):
                codes[b, ..., : d + 1] = [[[rng.randrange(q)
                                            for _ in range(d + 1)]
                                           for _ in range(k)]
                                          for _ in range(k)]
            got = berkowitz_stack(codes, ctx)
            assert got.shape == (count, k + 1, ctx.e, k * deg + 1)
            for b in range(count):
                want = det_identity_minus_mu(codes[b, ..., : degs[b] + 1],
                                             ctx)
                vec = (got[b] * powers[:, None]).sum(axis=1).tolist()
                assert [Poly(ctx, c) for c in vec] == want, (k, count, b)


# berkowitz_stack on random dense stacks, recorded before the Krylov phase
# served every principal block in one loop: for q in (2, 3, 4, 9, 25), k in
# 0..16 and count in (0, 1, 5), random.Random(33) draws each member's
# T-degree in 0..3 (the stack's deg is their maximum, or one more draw for
# an empty stack) and then its codes; sha256 over the output bytes
_PINNED_DENSE_SHA256 = (
    "f95174b161c37861f2d2ae8a5ed9bfcb82c762596df8c8c77ad31338c26e1cc9")


def test_berkowitz_stack_pinned_dense_digest():
    # the twist-grid digest sees banded matrices only; these are dense
    rng = random.Random(33)
    h = hashlib.sha256()
    for q in (2, 3, 4, 9, 25):
        ctx = field_from_cardinality(q)
        for k in range(17):
            for count in (0, 1, 5):
                degs = [rng.randrange(4) for _ in range(count)]
                deg = max(degs, default=rng.randrange(4))
                codes = np.zeros((count, k, k, deg + 1), dtype=np.int64)
                for b, d in enumerate(degs):
                    codes[b, ..., : d + 1] = np.reshape(
                        [rng.randrange(q) for _ in range(k * k * (d + 1))],
                        (k, k, d + 1))
                got = berkowitz_stack(codes, ctx)
                assert got.dtype == np.int64
                assert got.shape == (count, k + 1, ctx.e, k * deg + 1)
                h.update(got.tobytes())
    assert h.hexdigest() == _PINNED_DENSE_SHA256


def test_berkowitz_overflow_guards_raise():
    # exceptions, not asserts, so they hold under python -O too.  Over
    # GF(10^9 + 7) at k = 6 the sums pass both bounds; without the guard
    # int64 wraps and the U^6 coefficient differs from the cofactor one.
    big = field_from_cardinality(1000000007)
    rng = random.Random(6)
    codes = np.array([[[rng.randrange(big.p - 1000, big.p) for _ in range(3)]
                       for _ in range(6)] for _ in range(6)])
    with pytest.raises(OverflowError):
        det_identity_minus_mu(codes, big)
    # each bound alone: GF(2097169) at k = 1 passes 2^63 only, GF(2) at
    # T-degree 2^53 passes 2^53 only (a stack of no matrices, so nothing is
    # allocated)
    with pytest.raises(OverflowError, match="int64"):
        det_identity_minus_mu([[[1]]], field_from_cardinality(2097169))
    with pytest.raises(OverflowError, match="float64"):
        berkowitz_stack(np.zeros((0, 1, 1, 2**53 + 1), dtype=np.int64),
                        field_from_cardinality(2))


def test_band_gather_is_band_index():
    # the cached gather array of _matrix_codes reads band_index's positions
    for q, k, width in ((2, 14, 15), (3, 1, 3), (9, 3, 20)):
        got = _band_gather(q, k, width)
        assert got.dtype == np.int64 and not got.flags.writeable
        assert got.tolist() == band_index(q, k, width)
        assert _band_gather(q, k, width) is got


def _shift_stable_rows(ctx, d):
    # every P = F(θ^q - θ) with deg F = d
    q = ctx.order
    s = Poly(ctx, [0, ctx.neg(ctx.one)] + [0] * (q - 2) + [1])
    return [list(Poly(ctx, [c // q**j % q for j in range(d)] + [lead])
                 .compose(s).coeffs)
            for lead in range(1, q) for c in range(q**d)]


def _rank_grid():
    # (q, n, rows) batches: every twist of degree <= 4 over GF(3); whole
    # shift-stable cells with ranks up to 2 (GF(3), GF(4), GF(5)); the
    # rank-4 twist θ + θ^16 over GF(4), the rank-3 twist θ^2 + θ^10 + θ^18
    # over GF(9) with n = 6 and the rank-5 shift-stable witness of degree 21
    # over GF(3); seeded random twists up to k_min = 12 over GF(2), GF(3),
    # GF(4), GF(5) and GF(9)
    for n in (1, 3):
        for m in range(5):
            yield 3, n, [[c // 3**j % 3 for j in range(m)] + [lead]
                         for lead in (1, 2) for c in range(3**m)]
    for q, n, d in ((3, 1, 3), (4, 2, 2), (5, 2, 2), (9, 6, 1)):
        yield q, n, _shift_stable_rows(field_from_cardinality(q), d)
    yield 4, 2, [[0, 1] + [0] * 14 + [1]]
    yield 9, 6, [[0, 0, 1] + [0] * 7 + [1] + [0] * 7 + [1]]
    yield 3, 1, [[0, 1, 0, 1, 0, 2, 0, 1, 0, 1, 0, 1, 0, 0, 0, 2, 0, 0, 0,
                  2, 0, 1]]
    rng = random.Random(11)
    for q in (2, 3, 4, 5, 9):
        for n in (1, 2, 3):
            for k in range(1, 13, 3):
                m = max(0, k * (q - 1) - n)
                yield q, n, [[rng.randrange(q) for _ in range(m)]
                             + [rng.randrange(1, q)] for _ in range(3)]


def test_analytic_ranks_match_synthetic_division():
    seen = {}
    for q, n, rows in _rank_grid():
        ctx = field_from_cardinality(q)
        got = analytic_ranks(np.array(rows), n, ctx)
        assert got.dtype == np.int64 and got.shape == (len(rows),)
        for row, r in zip(rows, got.tolist()):
            tp = TwistedPower(Poly(ctx, row), n)
            assert r == lfun_order_at(l_function(tp), ctx.one), (q, n, row)
            assert analytic_rank(tp) == r
            seen[q] = max(seen.get(q, 0), r)
    # orders past 1 read Hasse derivatives past D_1, over GF(p^e) too
    assert seen == {2: 1, 3: 5, 4: 4, 5: 2, 9: 3}


def test_analytic_ranks_input_checks(f3):
    assert analytic_ranks(np.zeros((0, 4), dtype=np.int64), 1, f3).shape == (0,)
    with pytest.raises(ValueError, match="nonzero last coefficient"):
        analytic_ranks([[1, 2, 0]], 1, f3)
    with pytest.raises(ValueError, match="nonzero last coefficient"):
        analytic_ranks(np.zeros((2, 0), dtype=np.int64), 1, f3)
    with pytest.raises(ValueError, match="tensor exponent"):
        analytic_ranks([[1, 2]], 0, f3)
    for bad in ([[1, 3]], [[-1, 2]]):
        with pytest.raises(ValueError, match=r"codes in \[0, 3\)"):
            analytic_ranks(bad, 1, f3)


def test_analytic_rank_of_the_affine_rank8_twist():
    # P = 2θ + 2θ^3 + θ^9 + θ^15 + 2θ^33 + θ^39 + 2θ^57 + θ^63 over GF(3),
    # the rank-8 member of the affine-invariant family (ROADMAP item 10):
    # k_min = 32, and orders up to 8 read Hasse derivatives D_0..D_8
    coeffs = [0] * 64
    for i, c in {1: 2, 3: 2, 9: 1, 15: 1, 33: 2, 39: 1, 57: 2, 63: 1}.items():
        coeffs[i] = c
    tp = tp3(coeffs)
    assert tp.k_min == 32
    assert analytic_rank(tp) == 8


# l_function on a seeded grid, recorded with the Poly-object Berkowitz loop
# that the coefficient-array recurrence replaced.  The grid: random.Random(7);
# for q in (2, 3, 4, 5, 7, 8, 9, 16, 25), n in (1, 2, 3) and m in
# range(0, 15 if q > 2 else 21, 1 if q < 5 else 3), the twist's coefficients
# are [rng.randrange(q) for _ in range(m)] + [rng.randrange(1, q)].  243
# twists, k_min up to 23; the digest is sha256 of json.dumps of the list of
# to_json_obj() results.
_PINNED_GRID_SHA256 = (
    "527221b5ff3ef4f3ebc62c9139f0bc58219b3b41367cc2da45b13f8178574aaf")


def test_l_function_pinned_grid_digest():
    rng = random.Random(7)
    objs = []
    for q in (2, 3, 4, 5, 7, 8, 9, 16, 25):
        ctx = field_from_cardinality(q)
        for n in (1, 2, 3):
            for m in range(0, 15 if q > 2 else 21, 1 if q < 5 else 3):
                coeffs = ([rng.randrange(q) for _ in range(m)]
                          + [rng.randrange(1, q)])
                tp = TwistedPower(Poly(ctx, coeffs), n)
                objs.append(l_function(tp).to_json_obj())
    assert len(objs) == 243
    digest = hashlib.sha256(json.dumps(objs).encode()).hexdigest()
    assert digest == _PINNED_GRID_SHA256


def test_import_leaves_numpy_unloaded(fresh_python):
    # numpy costs about 0.14 s to import; the determinant and the Euler
    # batch load it lazily, and field tables, Poly arithmetic and the prime
    # lists (which the benchmark's verify set-up builds) never load it
    code = ("import sys, carlitz, carlitz.motive, carlitz.linalg; "
            "import carlitz.euler as euler; "
            "from carlitz import Poly, field_make; "
            "g = field_make(3, 3); g.mul_table(); g.add_table(); "
            "g.neg_table(); g.inv_table(); "
            "f9 = field_make(3, 2); Poly(f9, [1, 5, 7]) * Poly(f9, [8, 2]); "
            "euler.primes_of_degree(field_make(5), 3); "
            "print('numpy' in sys.modules)")
    assert fresh_python(code) == "False"


def test_l_at_zero_is_one_and_degree_bound(rng):
    for _ in range(20):
        q = rng.choice([2, 3])
        ctx = field_make(q)
        m = rng.randrange(0, 8)
        coeffs = [rng.randrange(q) for _ in range(m)] + [rng.randrange(1, q)]
        n = rng.randrange(1, 3)
        l = l_function(TwistedPower(Poly(ctx, coeffs), n))
        assert l.coeff(0) == Poly.one(ctx)
        for j in range(l.u_degree + 1):
            assert l.coeff(j).degree <= n * j


def test_top_t_degree_is_constant_matrix_charpoly():
    # M = T^n A + terms of lower T-degree, with A[i][j] = a_{(i+1)q-(j+1)}
    # (0-based, zero outside 0..m), so over any commutative ring the
    # T^(nj) coefficient of L's U^j coefficient is (-1)^j e_j(A), e_j the
    # sum of A's j x j principal minors.  GF(2^9) and GF(3^6) are above
    # ff's table cap; there m >= q-1, so that A is nonzero
    rng = random.Random(19)
    for q in (2, 3, 4, 5, 9, 512, 729):
        ctx = field_from_cardinality(q)
        zero, one = Poly.zero(ctx), Poly.one(ctx)
        big = q > 256
        nonzero = 0
        for n in (1, 2, 3):
            for _ in range(4 if big else 2):
                m = q - 1 + rng.randrange(q + 2) if big \
                    else rng.randrange(2 * q)
                coeffs = [ctx.rand(rng) for _ in range(m)] \
                    + [rng.randrange(1, q)]
                t = TwistedPower(Poly(ctx, coeffs), n)
                k = t.k_min
                a = [[Poly.constant(ctx, coeffs[x]) if 0 <= x <= m else zero
                      for x in ((i + 1) * q - (j + 1) for j in range(k))]
                     for i in range(k)]
                nonzero += any(not x.is_zero() for row in a for x in row)
                l = l_function(t)
                for j in range(k + 1):
                    e = zero
                    for s in itertools.combinations(range(k), j):
                        e = e + det_cofactor([[a[x][y] for y in s] for x in s],
                                             zero, one)
                    c = l.coeff(j).coeffs
                    top = c[n * j] if len(c) > n * j else ctx.zero
                    assert Poly.constant(ctx, top) == (zero - e if j % 2
                                                       else e), (q, n, m, j)
                if big:
                    assert analytic_rank(t) == lfun_order_at(l, ctx.one)
        assert nonzero or not big, q


def test_coset_membership_forces_unit_root(rng):
    # m ≡ -n mod q-1 with a_m = (-1)^n: row k_min yields a (1-U) factor
    f3 = field_make(3)
    for _ in range(25):
        n = rng.randrange(1, 3)
        m = rng.randrange(1, 8)
        if (m + n) % 2:
            m += 1
        lead = 2 if n % 2 else 1
        coeffs = [rng.randrange(3) for _ in range(m)] + [lead]
        t = TwistedPower(Poly(f3, coeffs), n)
        assert lfun_order_at(l_function(t), f3.one) >= 1
        rows = _matrix_rows(t, t.k_min)
        istar = (m + n) // 2 - 1  # 0-based row index
        for j in range(istar):
            assert rows[istar][j].is_zero()
        want_diag = f3.from_int((-1) ** n * lead)
        assert rows[istar][istar] == Poly.constant(f3, want_diag)


def test_infinity_factor_cases():
    f3 = field_make(3)
    t = tp3([0, 0, 0, 2])  # m=3, a3=2, n=1 -> boundary at 𝔫 = -2
    assert infinity_factor(t, -2) == LFun(f3, [Poly(f3, [1]), Poly(f3, [2])])
    assert infinity_factor(t, -3) == LFun.one(f3)
    t2 = tp3([0, 0, 1])  # m+n = 3, odd: never at the boundary
    assert infinity_factor(t2, -2) == LFun.one(f3)
    t3 = tp3([0, 0, 0, 0, 0, 0, 1], n=2)  # n even, a_m = 1, boundary -> 1 - U
    assert infinity_factor(t3, -4) == LFun(f3, [Poly(f3, [1]), Poly(f3, [2])])
    with pytest.raises(ValueError):
        infinity_factor(t, -1)


def test_boundary_determinant_identity(rng):
    # det at one size below stability equals L times the reciprocal factor
    f3 = field_make(3)
    for _ in range(20):
        n = rng.randrange(1, 3)
        m = rng.randrange(1, 8)
        if (m + n) % 2:
            m += 1
        coeffs = [rng.randrange(3) for _ in range(m)] + [rng.randrange(1, 3)]
        t = TwistedPower(Poly(f3, coeffs), n)
        kstar = (m + n) // 2 - 1
        if kstar < 1:
            continue
        small = LFun(f3, det_identity_minus_mu(_codes_at(t, kstar), f3))
        assert small.mul(infinity_factor(t, -(m + n) // 2)) == l_function(t)


def _ceil_size(q, n, m):
    # the stable size before the zero row was dropped
    return max(1, -((m + n) // -(q - 1)))


def test_stable_size_is_the_floor():
    # one less than the ceiling exactly when q-1 ∤ m+n, but where both are 1
    for q in (2, 3, 4, 5, 7, 8, 9):
        for n in (1, 2, 3):
            for m in range(41):
                k, ceil = stable_size(q, n, m), _ceil_size(q, n, m)
                assert k == max(1, (m + n) // (q - 1))
                dropped = (m + n) % (q - 1) != 0 and m + n > q - 1
                assert k == ceil - dropped, (q, n, m)


def _off_divisor_twists(rng):
    # seeded twists with q-1 ∤ m+n over GF(3), GF(4), GF(5), GF(7), GF(9),
    # n = 1..3, small enough for the Euler product one degree past k_min
    for q in (3, 4, 5, 7, 9):
        ctx = field_from_cardinality(q)
        for n in (1, 2, 3):
            ms = [m for m in range(min(2 * q, 9))
                  if (m + n) % (q - 1) and m + n > q - 1]
            for m in rng.sample(ms, min(2, len(ms))):
                coeffs = [ctx.rand(rng) for _ in range(m)] \
                    + [rng.randrange(1, q)]
                yield TwistedPower(Poly(ctx, coeffs), n)


def test_ceil_size_adds_a_zero_row(rng):
    # at the ceiling size the last row reads only band positions above m+n,
    # the zero slot, so det(I - M U) there is L, the floor size's determinant
    count = 0
    for t in _off_divisor_twists(rng):
        q, n, m = t.ctx.order, t.n, t.m
        k = _ceil_size(q, n, m)
        assert k == t.k_min + 1
        assert band_index(q, k, m + n + 1)[k - 1] == [m + n + 1] * k
        rows = build_matrix(t, k)
        assert all(entry.is_zero() for entry in rows[k - 1])
        codes = np.zeros((k, k, n + 1), dtype=np.int64)
        for i, j in itertools.product(range(k), repeat=2):
            cs = rows[i][j].coeffs
            codes[i, j, :len(cs)] = cs
        assert LFun(t.ctx, det_identity_minus_mu(codes, t.ctx)) \
            == l_function(t)
        count += 1
    assert count >= 25


def test_euler_product_vanishes_past_k_min(rng):
    # the Euler-side bound deg_U L <= k_min = floor((m+n)/(q-1)): the product
    # over primes of degree <= k_min + 1 has no U^(k_min+1) term
    for t in _off_divisor_twists(rng):
        k = t.k_min
        euler = truncated_product(t, k + 1)
        assert euler.coeff(k + 1).is_zero()
        assert euler == l_function(t)


def test_series_forced_zero_on_the_coset(rng):
    # ROADMAP item 22 from the series side: on the coset q-1 | m+n,
    # a_m = (-1)^n, the series at bound k_min (which is L) sums to 0 at
    # U = 1; over GF(2) and GF(8) its U^(k_min+1) coefficient is zero
    count = 0
    for q in (2, 4, 8, 9):
        ctx = field_from_cardinality(q)
        for n in (1, 2):
            lead = ctx.neg(ctx.one) if n % 2 else ctx.one
            for m in [m for m in range(1, 2 * q) if (m + n) % (q - 1) == 0][:2]:
                coeffs = [ctx.rand(rng) for _ in range(m)] + [lead]
                t = TwistedPower(Poly(ctx, coeffs), n)
                series = truncated_product(t, t.k_min)
                assert sum(series.cs, Poly.zero(ctx)).is_zero(), (q, n, m)
                if q in (2, 8):
                    past = truncated_product(t, t.k_min + 1)
                    assert past.coeff(t.k_min + 1).is_zero()
                count += 1
    assert count == 16


def test_d_coefficients_examples():
    f3 = field_make(3)
    ds = d_coefficients(LFun.one(f3), 1)
    assert ds[0] == Poly.one(f3)
    l = l_function(tp3([0, 2, 0, 2]))  # (1-U)²
    ds = d_coefficients(l, 2)
    assert ds[0].is_zero() and ds[1].is_zero() and not ds[2].is_zero()
    with pytest.raises(ValueError):
        d_coefficients(l, 1)


def test_d_coefficients_leading_zeros_equal_rank(rng):
    f3 = field_make(3)
    for _ in range(100):
        m = rng.randrange(0, 10)
        coeffs = [rng.randrange(3) for _ in range(m)] + [rng.randrange(1, 3)]
        t = TwistedPower(Poly(f3, coeffs), 1)
        l = l_function(t)
        k = t.k_min
        ds = d_coefficients(l, k)
        lead_zeros = 0
        while lead_zeros <= k and ds[lead_zeros].is_zero():
            lead_zeros += 1
        assert lead_zeros == analytic_rank(t)
