import hashlib
import json
import random

import pytest

from carlitz import (field_make, field_from_cardinality, Poly, LFun,
                     TwistedPower, l_function)
from carlitz.euler import (reduce_tau, twisted_power, local_factor,
                           truncated_product, primes_of_degree,
                           distinct_prime_factors, residue_ctx, _characters,
                           _Series, _SERIES)
from carlitz.fastrank import RankEngine
from carlitz.ff import array_ops


def tp3(coeffs, n=1):
    return TwistedPower(Poly(field_make(3), coeffs), n)


def test_reduce_tau_examples(f3):
    r = reduce_tau(tp3([1]), Poly(f3, [0, 1]))
    assert [c[0] for c in r.coeffs] == [0, 1]  # T
    r = reduce_tau(tp3([1]), Poly(f3, [1, 1]))
    assert [c[0] for c in r.coeffs] == [1, 1]  # T + 1
    r = reduce_tau(tp3([0, 1], n=2), Poly(f3, [1, 1]))
    assert [c[0] for c in r.coeffs] == [2, 1, 2]  # 2(T-2)²


def test_reduce_tau_rejects_reducible(f3):
    with pytest.raises(ValueError):
        reduce_tau(tp3([1]), Poly(f3, [2, 0, 1]))
    with pytest.raises(ValueError):
        reduce_tau(tp3([1]), Poly(f3, [0, 2]))  # not monic


def test_residue_ctx_shared_per_prime(f3, f9):
    # one context per prime, whichever Poly object names it
    for ctx in (f3, f9):
        for d in (1, 2, 3):
            for prime in primes_of_degree(ctx, d)[:5]:
                assert residue_ctx(prime) is residue_ctx(Poly(ctx, prime.coeffs))


def test_twisted_power_identity_and_quadratic(f3):
    rc = residue_ctx(Poly(f3, [1, 0, 1]))
    lin = Poly(rc, [rc.neg(rc.theta()), rc.one])
    assert twisted_power(lin, 1) == lin
    prod = twisted_power(lin, 2)
    assert [c[0] for c in prod.coeffs] == [1, 0, 1]  # T² + 1
    assert all(c[1] == f3.zero for c in prod.coeffs)


def test_twisted_power_gives_minimal_polynomial(f3):
    # product over the Frobenius orbit of θ̄ recovers the prime itself
    one = tp3([1])
    for d in range(1, 5):
        for prime in primes_of_degree(f3, d):
            assert local_factor(one, prime).npoly == prime


def test_local_factor_examples(f3):
    assert local_factor(tp3([1]), Poly(f3, [0, 1])).npoly == Poly(f3, [0, 1])
    assert local_factor(tp3([0, 1]), Poly(f3, [0, 1])).npoly.is_zero()
    lf = local_factor(tp3([1]), Poly(f3, [1, 0, 1]))
    assert lf.d == 2 and lf.npoly == Poly(f3, [1, 0, 1])
    inv = lf.inverse_factor()
    assert inv.u_degree == 2 and inv.coeff(1).is_zero()


def test_local_factor_degree_invariant(rng):
    for q in (2, 3):
        ctx = field_make(q)
        for _ in range(10):
            m = rng.randrange(0, 5)
            coeffs = [rng.randrange(q) for _ in range(m)] + [rng.randrange(1, q)]
            n = rng.randrange(1, 3)
            t = TwistedPower(Poly(ctx, coeffs), n)
            for d in (1, 2):
                for prime in primes_of_degree(ctx, d):
                    lf = local_factor(t, prime)
                    if (t.P % prime).is_zero():
                        assert lf.npoly.is_zero()
                    else:
                        assert lf.npoly.degree == n * d


def test_local_factor_rejects_prime_over_other_field(f3):
    tp = tp3([1, 1])
    prime = Poly(field_make(5), [1, 1])
    with pytest.raises(ValueError):
        reduce_tau(tp, prime)
    with pytest.raises(ValueError):
        local_factor(tp, prime)


def _series_index(ctx, f):
    # the row of monic f in the series tables: by degree, then by the code
    # sum of its lower coefficients
    q, d = ctx.order, int(f.degree)
    return sum(q**j for j in range(d)) + sum(
        c * q**i for i, c in enumerate(f.coeffs[:d]))


def test_series_terms_match_scalar_local_factor(rng):
    # χ_P(𝔓)·𝔓(T)^n, the series' term at a prime, against the scalar N_𝔓
    # for every prime of degree <= 3; P is divisible by a prime of each
    # degree, so zero factors occur at every degree
    for q in (2, 3, 4, 5, 9):
        ctx = field_from_cardinality(q)
        for n in (1, 2, ctx.char):
            p = Poly(ctx, [ctx.rand(rng) for _ in range(3)]
                     + [rng.randrange(1, q)])
            for d in (1, 2, 3):
                p = p * rng.choice(primes_of_degree(ctx, d))
            tp = TwistedPower(p, n)
            chi = _characters(tp, 3)[1].tolist()
            for d in (1, 2, 3):
                for prime in primes_of_degree(ctx, d):
                    got = (prime**n).scalar_mul(chi[_series_index(ctx, prime)])
                    assert got == local_factor(tp, prime).npoly, (q, n, prime)


def test_local_factor_is_norm_times_prime_power(rng):
    # N_𝔓(T) = Norm(P mod 𝔓)·𝔓(T)^n: the Frobenius orbit of T - θ̄
    # multiplies to 𝔓(T), and that of P̄ to its norm, Π_{k<d} Frob^k(P̄),
    # in GF(q); a zero norm exactly when 𝔓 | P, which the linear factor
    # makes happen at degree 1
    cases = [(field_make(2), 3), (field_make(3), 3), (field_make(2, 2), 3),
             (field_make(5), 3), (field_make(3, 2), 2)]
    for ctx, dmax in cases:
        q = ctx.order
        powers = [ctx.char**a for a in range(ctx.e)]
        for n in (1, 2, 3):
            for _ in range(2):
                p = Poly(ctx, [rng.randrange(q) for _ in range(3)]
                         + [rng.randrange(1, q)])
                p = p * rng.choice(primes_of_degree(ctx, 1))
                tp = TwistedPower(p, n)
                for d in range(1, dmax + 1):
                    for prime in primes_of_degree(ctx, d):
                        rc = residue_ctx(prime)
                        rem = (p % prime).coeffs
                        norm = cur = rem + (ctx.zero,) * (d - len(rem))
                        for _ in range(d - 1):
                            cur = rc.frobenius(cur, 1)
                            norm = rc.mul(norm, cur)
                        want = (prime**n).scalar_mul(rc.constant_of(norm))
                        assert local_factor(tp, prime).npoly == want, \
                            (q, n, p, prime)


def test_truncated_product_examples(f3):
    assert truncated_product(tp3([1]), 3) == LFun.one(f3)
    got = truncated_product(tp3([0, 2, 0, 2]), 3)
    assert got == LFun(f3, [Poly(f3, [1]), Poly(f3, [1]), Poly(f3, [1])])
    t = tp3([2, 1, 0, 1], n=2)
    assert truncated_product(t, t.k_min) == l_function(t)
    with pytest.raises(ValueError):
        truncated_product(tp3([1]), 0)


def test_oracle_agreement_random(rng):
    for q in (2, 3):
        ctx = field_make(q)
        for _ in range(25):
            m = rng.randrange(0, 8)
            coeffs = [rng.randrange(q) for _ in range(m)] + [rng.randrange(1, q)]
            n = rng.randrange(1, 3)
            t = TwistedPower(Poly(ctx, coeffs), n)
            l = l_function(t)
            assert truncated_product(t, 3) == l.truncate(3)
            if t.k_min <= 5:
                assert truncated_product(t, t.k_min) == l


def test_oracle_agreement_prime_powers(rng):
    for q, e in ((2, 2), (5, 1), (7, 1), (3, 2)):
        ctx = field_make(q, e)
        order = ctx.order
        exact = 0
        for _ in range(6):
            m = rng.randrange(0, 8)
            coeffs = ([rng.randrange(order) for _ in range(m)]
                      + [rng.randrange(1, order)])
            t = TwistedPower(Poly(ctx, coeffs), rng.randrange(1, 3))
            l = l_function(t)
            assert truncated_product(t, 3) == l.truncate(3)
            if t.k_min <= 3:
                exact += 1
                assert truncated_product(t, t.k_min) == l
        assert exact > 0


# truncated_product over a seeded grid, recorded with the per-prime batch
# the series replaced.  The grid: random.Random(37); for q in (2, 3, 4, 5, 9),
# n in (1, 2, 3) and m in range(13), the twist's coefficients are
# [rng.randrange(q) for _ in range(m)] + [rng.randrange(1, q)], at the bounds
# min(k_min, 3) and k_min + 1 that have q^bound <= 10^4.  384 products; the
# digest is sha256 of json.dumps of the list of to_json_obj() results.
_PINNED_PRODUCT_SHA256 = (
    "c484700d4c3ce18003b1e9eea531fe09bb3fa3ec9388996f2ff9f7220df075cc")


def test_truncated_product_pinned_digest():
    rng = random.Random(37)
    objs = []
    for q in (2, 3, 4, 5, 9):
        ctx = field_from_cardinality(q)
        for n in (1, 2, 3):
            for m in range(13):
                coeffs = ([rng.randrange(q) for _ in range(m)]
                          + [rng.randrange(1, q)])
                tp = TwistedPower(Poly(ctx, coeffs), n)
                for bound in sorted({min(tp.k_min, 3), tp.k_min + 1}):
                    if q**bound <= 10**4:
                        objs.append(truncated_product(tp, bound).to_json_obj())
    assert len(objs) == 384
    digest = hashlib.sha256(json.dumps(objs).encode()).hexdigest()
    assert digest == _PINNED_PRODUCT_SHA256


def test_series_refuses_fields_above_the_table_cap():
    # the series reads ff's array ops, which stop at 256 elements, and ff
    # refuses in one place for the series and the point engine alike
    for q in (257, 512):
        ctx = field_from_cardinality(q)
        tp = TwistedPower(Poly(ctx, [1, 1]), 1)
        for build in (lambda: truncated_product(tp, 1),
                      lambda: array_ops(ctx)):
            with pytest.raises(ValueError, match="256 elements"):
                build()


@pytest.fixture
def fresh_series():
    # the tests below corrupt a field's tables: rebuild them around each
    _SERIES.clear()
    yield
    _SERIES.clear()


def test_corrupted_power_is_checked(f3, fresh_series, monkeypatch):
    # x^0 mod (θ + 1) becomes 2: χ_P(θ + 1) changes by a_0, and P has no
    # root in GF(3), so every product with θ + 1 sees it
    tp = tp3([1, 2, 1, 1])
    want = truncated_product(tp, 3)
    s = _SERIES[f3]
    logx = s.logx.copy()
    row = _series_index(f3, Poly(f3, [1, 1]))
    assert logx[row, 0, 0] == 0  # log 1
    logx[row, 0, 0] = 1  # log 2
    monkeypatch.setattr(s, "logx", logx)
    with pytest.raises(AssertionError, match="χ_P"):
        truncated_product(tp, 3)
    monkeypatch.undo()
    assert truncated_product(tp, 3) == want


def test_corrupted_prime_power_lead_is_checked(f3, fresh_series, monkeypatch):
    tp = tp3([1, 2, 1, 1], n=2)
    truncated_product(tp, 2)
    s = _SERIES[f3]
    fpow = s.fpow(2).copy()
    row = _series_index(f3, Poly(f3, [2, 0, 1]))  # θ² + 2, its square's T^4
    assert fpow[row, 4] == 0
    fpow[row, 4] = 1
    monkeypatch.setitem(s._fpow, 2, fpow)
    with pytest.raises(AssertionError, match="not monic"):
        truncated_product(tp, 2)


def test_companion_powers_are_checked_when_grown(f9, monkeypatch):
    # one wrong entry of the subtraction table breaks x^t = x·x^(t-1) mod f
    # for some f, and Cayley–Hamilton, read through add and mul, sees it
    s = _Series(f9, 2)
    s.grow(4)
    sub = s.ops.sub_table.copy()
    sub[5 * 9 + 3] = (sub[5 * 9 + 3] + 1) % 9
    monkeypatch.setattr(s, "ops", s.ops._replace(sub_table=sub))
    with pytest.raises(AssertionError, match="Cayley–Hamilton"):
        s.grow(6)


def test_series_and_engine_share_the_field_ops(f9):
    # one ArrayOps per field: the series over GF(9) and an engine whose
    # point field is GF(9) read the same object
    eng = RankEngine(3, 1, 5)
    assert eng.tables.q == 9
    truncated_product(TwistedPower(Poly(f9, [1, 2, 1]), 1), 2)
    assert _SERIES[f9].ops is eng.ops is array_ops(f9)


def test_same_class_same_factors(rng):
    # P2 = P1 * P^(q-1): local factors agree at primes not dividing P
    f3 = field_make(3)
    for _ in range(10):
        m = rng.randrange(0, 4)
        p1 = Poly(f3, [rng.randrange(3) for _ in range(m)] + [rng.randrange(1, 3)])
        pm = Poly(f3, [rng.randrange(3) for _ in range(rng.randrange(0, 3))]
                  + [rng.randrange(1, 3)])
        p2 = p1 * pm * pm
        for d in (1, 2):
            for prime in primes_of_degree(f3, d):
                if (pm % prime).is_zero():
                    continue
                assert local_factor(TwistedPower(p1, 1), prime).npoly == \
                    local_factor(TwistedPower(p2, 1), prime).npoly


def test_l_quotient_for_twist_multipliers(rng):
    # L(C_{P Q^{q-1}}) = L(C_P) * prod of reciprocal factors at primes of Q
    f3 = field_make(3)
    for _ in range(10):
        p = Poly(f3, [rng.randrange(3) for _ in range(rng.randrange(0, 4))]
                 + [rng.randrange(1, 3)])
        qq = Poly(f3, [rng.randrange(3) for _ in range(rng.randrange(1, 3))]
                  + [rng.randrange(1, 3)])
        lhs = l_function(TwistedPower(p * qq * qq, 1))
        rhs = l_function(TwistedPower(p, 1))
        for prime in distinct_prime_factors(qq):
            if not (p % prime).is_zero():
                rhs = rhs.mul(local_factor(TwistedPower(p, 1), prime)
                              .inverse_factor())
        assert lhs == rhs


def test_distinct_prime_factors(f3):
    fac = distinct_prime_factors(Poly(f3, [0, 2, 0, 2]))
    assert sorted(f.coeffs for f in fac) == [(0, 1), (1, 0, 1)]
    assert distinct_prime_factors(Poly(f3, [2])) == []
