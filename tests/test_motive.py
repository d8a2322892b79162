import hashlib
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
from carlitz.motive import _matrix_rows, analytic_ranks
from carlitz.linalg import berkowitz_stack, det_identity_minus_mu, det_cofactor


def tp3(coeffs, n=1):
    return TwistedPower(Poly(field_make(3), coeffs), n)


def test_twisted_power_validation(f3):
    with pytest.raises(ValueError):
        TwistedPower(Poly.zero(f3), 1)
    with pytest.raises(ValueError):
        TwistedPower(Poly.one(f3), 0)
    t = tp3([0, 2, 0, 2])
    assert (t.m, t.k_min) == (3, 2)


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
    # GF(2^9) is above ff's table cap, so there the band runs on digits alone
    for q in (2, 3, 4, 5, 9, 512):
        ctx = field_from_cardinality(q)
        p = ctx.char
        for n in (1, 2, 3):
            for _ in range(3):
                m = rng.randrange(0, 9)
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
                            assert rows[i - 1][j - 1] == Poly(ctx, tc), \
                                (q, n, coeffs, k, i, j)


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
            rows = [list(r) for r in _matrix_rows(t, k)]
            vec = det_identity_minus_mu(rows, Poly.one(ctx))
            dets.append(LFun(ctx, vec))
        assert dets[0] == dets[1] == dets[2]


def test_berkowitz_matches_cofactor_expansion(rng):
    # det(I - M U) evaluated at scalar points vs brute-force cofactor dets,
    # over prime and extension fields, entries of T-degree <= 2
    for q in (2, 3, 4, 5, 9):
        ctx = field_from_cardinality(q)
        zero, one = Poly.zero(ctx), Poly.one(ctx)
        for _ in range(6):
            k = rng.randrange(1, 6)
            rows = [[Poly(ctx, [ctx.rand(rng)
                                for _ in range(rng.randrange(0, 4))])
                     for _ in range(k)] for _ in range(k)]
            vec = det_identity_minus_mu([list(r) for r in rows], one)
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
    # alone; members have their own T-degrees 0..2, padded to the stack's
    rng = random.Random(q)
    ctx = field_from_cardinality(q)
    one = Poly.one(ctx)
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
                m = [[Poly(ctx, codes[b, i, j].tolist()) for j in range(k)]
                     for i in range(k)]
                want = det_identity_minus_mu(m, one)
                vec = (got[b] * powers[:, None]).sum(axis=1).tolist()
                assert [Poly(ctx, c) for c in vec] == want, (k, count, b)


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
        rows = [list(r) for r in _matrix_rows(t, kstar)]
        small = LFun(f3, det_identity_minus_mu(rows, Poly.one(f3)))
        assert small.mul(infinity_factor(t, -(m + n) // 2)) == l_function(t)


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
