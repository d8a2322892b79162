import pytest

from carlitz import field_make, Poly, LFun, TwistedPower, l_function
from carlitz.euler import (reduce_tau, twisted_power, local_factor,
                           local_factors, truncated_product, primes_of_degree,
                           distinct_prime_factors, residue_ctx, _degree_tables)


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
    with pytest.raises(ValueError):
        _degree_tables(field_make(5), 1)[0].norms(tp)


def test_local_factors_match_scalar(rng):
    # every prime's batched N against the scalar path; P is divisible by a
    # prime of each degree, so zero factors occur at every degree
    cases = [(field_make(2), 3), (field_make(3), 3), (field_make(2, 2), 3),
             (field_make(5), 3), (field_make(3, 2), 2)]
    for ctx, dmax in cases:
        q = ctx.order
        powers = [ctx.char**a for a in range(ctx.e)]
        for n in (1, 2):
            for _ in range(2):
                p = Poly(ctx, [rng.randrange(q) for _ in range(3)]
                         + [rng.randrange(1, q)])
                for d in range(1, dmax + 1):
                    p = p * rng.choice(primes_of_degree(ctx, d))
                tp = TwistedPower(p, n)
                for d in range(1, dmax + 1):
                    rows = (local_factors(tp, d) @ powers).tolist()
                    primes = primes_of_degree(ctx, d)
                    assert len(rows) == len(primes)
                    want = [local_factor(tp, prime).npoly for prime in primes]
                    assert [Poly(ctx, row) for row in rows] == want
                    assert any(w.is_zero() for w in want)


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
                    rows = (local_factors(tp, d) @ powers).tolist()
                    primes = primes_of_degree(ctx, d)
                    assert len(rows) == len(primes)
                    for prime, row in zip(primes, rows):
                        rc = residue_ctx(prime)
                        rem = (p % prime).coeffs
                        norm = cur = rem + (ctx.zero,) * (d - len(rem))
                        for _ in range(d - 1):
                            cur = rc.frobenius(cur, 1)
                            norm = rc.mul(norm, cur)
                        want = (prime**n).scalar_mul(rc.constant_of(norm))
                        assert Poly(ctx, row) == want, (q, n, p, prime)


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


@pytest.fixture
def fresh_tables():
    # the tests below corrupt one block's tables: rebuild them around each
    _degree_tables.cache_clear()
    yield
    _degree_tables.cache_clear()


@pytest.mark.parametrize("patch, message", [
    ("zero", "wrong T-degree"), ("perturb", "not Frobenius-fixed")])
def test_batch_frobenius_table_is_checked(f3, fresh_tables, monkeypatch,
                                          patch, message):
    # one degree-2 prime (θ² + θ + 2, which does not divide P) gets a wrong
    # Frobenius matrix
    tp = tp3([1, 2, 0, 1])
    assert not (tp.P % primes_of_degree(f3, 2)[1]).is_zero()
    block = _degree_tables(f3, 2)[0]
    frob = block.frob.copy()
    if patch == "zero":
        frob[1] = 0
    else:
        frob[1, 0, 1] = (frob[1, 0, 1] + 1) % 3
    monkeypatch.setattr(block, "frob", frob)
    with pytest.raises(AssertionError, match=message):
        truncated_product(tp, 3)


@pytest.mark.parametrize("coeffs, message", [
    ([1, 2, 0, 1], "not Frobenius-fixed"), ([0, 2, 1, 1], "wrong T-degree")])
def test_batch_theta_is_checked(f3, fresh_tables, monkeypatch, coeffs,
                                message):
    # θ̄ of one degree-3 prime (θ³ + 2θ + 2, not dividing P) becomes θ̄ + 1;
    # the batch keeps θ̄ as the θ^1 column of its reduction table, which
    # gives P mod 𝔓, (T - θ̄)^n and the reduction of every product
    block = _degree_tables(f3, 3)[0]
    red = block.red.copy()
    red[1, 0, 1, 0] = (red[1, 0, 1, 0] + 1) % 3
    monkeypatch.setattr(block, "red", red)
    tp = tp3(coeffs)
    assert not (tp.P % primes_of_degree(f3, 3)[1]).is_zero()
    with pytest.raises(AssertionError, match=message):
        truncated_product(tp, 3)


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
