import dataclasses
import pickle

import pytest

from carlitz import (field_make, field_from_cardinality, motive, Poly,
                     TwistedPower)
from carlitz.motive import analytic_rank
from carlitz.symmetry import (Mu, Nu, Iota, Tau, Sigma, TwistMul, act_on_poly,
                              check_l_identity, conjugator, verify_conjugacy,
                              smallest_iota_degree, _matmul)
from carlitz.scan import shift_stable_expand
from carlitz.fastrank import RankEngine


def tp3(coeffs, n=1):
    return TwistedPower(Poly(field_make(3), coeffs), n)


def test_act_examples(f3):
    assert act_on_poly(Mu(1), tp3([0, 1])).P == Poly(f3, [1, 1])
    assert act_on_poly(Nu(2), tp3([1, 1, 1])).P == Poly(f3, [1, 2, 1])
    assert act_on_poly(Iota(1), tp3([1, 2])).P == Poly(f3, [2, 1])
    assert act_on_poly(Tau(2), tp3([0, 1])).P == Poly(f3, [0, 2])
    assert act_on_poly(Sigma(1), tp3([0, 1])).n == 3
    assert act_on_poly(TwistMul(Poly(f3, [0, 1])), tp3([1])).P == Poly(f3, [0, 0, 1])


def test_generator_scalars_must_be_field_codes(f3, f9):
    # a scalar outside GF(q) was read as some element or indexed past a
    # table: over GF(9) Nu(9) gave the constant twist, Mu(10) acted and
    # Tau(-1) read inv[-1]; over GF(3) Mu(4) acted as Mu(1), and its
    # identity held
    t9 = TwistedPower(Poly(f9, [1, 2, 0, 1]), 1)
    t3 = tp3([1, 2, 0, 1])
    cases = [(t9, Nu(9)), (t9, Nu(0)), (t9, Mu(10)), (t9, Mu(-1)),
             (t9, Tau(-1)), (t9, Tau(9)), (t3, Mu(4)), (t3, Tau(3)),
             (t3, Mu(True)), (t3, Nu(1.0)), (t9, Tau(2.0))]
    for t, g in cases:
        for check in (act_on_poly, check_l_identity,
                      lambda g, t: verify_conjugacy(g, t, 3)):
            with pytest.raises(ValueError, match="must be a code in"):
                check(g, t)
    # a multiplier over GF(9) on a GF(3) twist: its codes were read mod 3
    for check in (act_on_poly, check_l_identity):
        with pytest.raises(ValueError, match=r"nonzero over GF\(3\)"):
            check(TwistMul(Poly(f9, [4, 1])), t3)


def test_iota_admissibility(f3):
    t = tp3([1, 0, 1])  # deg 2, n=1: smallest admissible window is 3
    assert smallest_iota_degree(t) == 3
    assert act_on_poly(Iota(None), t).P == Poly(f3, [0, 1, 0, 1])
    with pytest.raises(ValueError):
        act_on_poly(Iota(2), t)  # wrong parity
    with pytest.raises(ValueError):
        act_on_poly(Iota(1), t)  # below the degree
    # the window check rejects what the action rejects, also where the
    # window statement would be empty (k3 < 1)
    t5 = tp3([1, 0, 0, 0, 0, 1], n=2)
    for g in (Iota(0), Iota(4)):
        with pytest.raises(ValueError, match="inadmissible reversal degree"):
            verify_conjugacy(g, t5, 5)
    with pytest.raises(ValueError, match="inadmissible reversal degree"):
        verify_conjugacy(Iota(4), t, 5)  # wrong parity
    # the closed form against the search it replaced: the least m' >= deg P
    # with q-1 | m'+n
    for q in (2, 3, 4, 5, 7, 8, 9):
        ctx = field_from_cardinality(q)
        for m in range(12):
            for n in range(1, 5):
                want = m
                while (want + n) % (q - 1):
                    want += 1
                t = TwistedPower(Poly.monomial(ctx, ctx.one, m), n)
                assert smallest_iota_degree(t) == want, (q, m, n)


def test_w1_window_values(f3):
    w = conjugator(f3, "w1", 3, d=1)
    assert [[int(e.coeff(0)) for e in row] for row in w] == \
        [[1, 1, 1], [0, 1, 2], [0, 0, 1]]


def test_w1_one_parameter_subgroup(f3):
    for d1 in range(3):
        for d2 in range(3):
            lhs = _matmul(conjugator(f3, "w1", 6, d=d1),
                          conjugator(f3, "w1", 6, d=d2))
            assert lhs == conjugator(f3, "w1", 6, d=(d1 + d2) % 3)
    ident = conjugator(f3, "w1", 5, d=0)
    assert all(ident[i][j].is_zero() != (i == j)
               for i in range(5) for j in range(5))


def test_w5_inverse(f3):
    w = conjugator(f3, "w5", 6)
    wi = conjugator(f3, "w5", 6, n=-1)
    prod = _matmul(w, wi)
    for i in range(6):
        for j in range(6):
            want_one = i == j
            assert prod[i][j].is_zero() != want_one


@pytest.mark.parametrize("q", [2, 3, 5, 4, 9])
def test_w5_powers_are_repeated_products(q):
    # the closed forms of W5^n and W5^-n against n-fold window products
    ctx = field_from_cardinality(q)
    one, zero, x = Poly.one(ctx), Poly.zero(ctx), Poly.x(ctx)
    for size in (1, 4, 9):
        w = tuple(tuple(Poly.monomial(ctx, ctx.one, j - i) if j >= i else zero
                        for j in range(size)) for i in range(size))
        wi = tuple(tuple(one if j == i else -x if j == i + 1 else zero
                         for j in range(size)) for i in range(size))
        assert conjugator(ctx, "w5", size, n=0) == \
            tuple(tuple(one if i == j else zero for j in range(size))
                  for i in range(size))
        top, left = w, wi
        for n in range(1, 6):
            assert conjugator(ctx, "w5", size, n=n) == top, (size, n)
            assert conjugator(ctx, "w5", size, n=-n) == left, (size, n)
            top, left = _matmul(top, w), _matmul(wi, left)


def test_l_identities_random(rng):
    for trial in range(20):
        q = 3 if trial % 3 else 2
        ctx = field_make(q)
        m = rng.randrange(0, 6)
        coeffs = [rng.randrange(q) for _ in range(m)] + [rng.randrange(1, q)]
        n = rng.randrange(1, 3)
        t = TwistedPower(Poly(ctx, coeffs), n)
        gens = [Mu(rng.randrange(q)), Nu(rng.randrange(1, q)), Iota(None),
                Tau(rng.randrange(1, q)),
                TwistMul(Poly(ctx, [rng.randrange(q), 1]))]
        if t.m + q * t.n <= 9:
            gens.append(Sigma(1))
        for g in gens:
            res = check_l_identity(g, t)
            assert res.ok, (q, coeffs, n, g, res.lhs, res.rhs)


@pytest.mark.parametrize("q", [3, 9])
def test_identity_check_costs_one_determinant(monkeypatch, q):
    # once the twist's own L is known, each identity check computes only
    # the acted twist's determinant; the memo leaves eq, hash, pickle and
    # replace as they were
    ctx = field_from_cardinality(q)
    calls = []
    det = motive.det_identity_minus_mu
    monkeypatch.setattr(motive, "det_identity_minus_mu",
                        lambda *a: calls.append(1) or det(*a))
    # over GF(9) the 1 x 1 matrix reads θ^8, so L != 1 needs m >= 7
    coeffs = [2, 0, 1, 1] if q == 3 else [1, 0, 0, 0, 0, 0, 2, 1]
    t = TwistedPower(Poly(ctx, coeffs), 1)
    own = motive.l_function(t)
    assert len(calls) == 1 and motive.l_function(t) is own
    for g in (Mu(1), Nu(2), Tau(2), Iota(None), Sigma(1),
              TwistMul(Poly(ctx, [1, 1]))):
        before = len(calls)
        res = check_l_identity(g, t)
        assert res.ok and len(calls) == before + 1, g
    same = TwistedPower(t.P, t.n)
    assert t == same and hash(t) == hash(same)
    back = pickle.loads(pickle.dumps(t))
    assert back == t and hash(back) == hash(t)
    assert motive.l_function(back) == own
    assert dataclasses.replace(t) == t
    other = dataclasses.replace(t, n=2)
    assert other != t and motive.l_function(other) != own


def test_tau_identity_element(f3):
    t = tp3([1, 2, 0, 1])
    res = check_l_identity(Tau(1), t)
    assert res.ok and res.lhs == res.rhs


def test_window_conjugacy_random(rng):
    for trial in range(8):
        q = 3 if trial % 3 else 2
        ctx = field_make(q)
        m = rng.randrange(0, 6)
        coeffs = [rng.randrange(q) for _ in range(m)] + [rng.randrange(1, q)]
        n = rng.randrange(1, 3)
        t = TwistedPower(Poly(ctx, coeffs), n)
        for g in (Mu(rng.randrange(q)), Nu(rng.randrange(1, q)), Iota(None),
                  Tau(rng.randrange(1, q)), TwistMul(Poly.x(ctx))):
            assert verify_conjugacy(g, t, 7), (q, coeffs, n, g)


def test_window_conjugacy_larger_fields(rng):
    # over GF(3) every scalar is its own inverse, which hides the sign of
    # exponents such as Nu's c^(i-j); GF(4), GF(5) and GF(9) do not
    for q in (4, 5, 9):
        ctx = field_from_cardinality(q)
        for _ in range(2):
            m = rng.randrange(0, 5)
            coeffs = [rng.randrange(q) for _ in range(m)] + [rng.randrange(1, q)]
            t = TwistedPower(Poly(ctx, coeffs), rng.randrange(1, 3))
            for g in (Mu(rng.randrange(q)), Nu(rng.randrange(2, q)), Iota(None),
                      Tau(rng.randrange(2, q)), TwistMul(Poly.x(ctx))):
                assert verify_conjugacy(g, t, 5), (q, coeffs, t.n, g)


def test_mu_window_identity_element(f3):
    assert verify_conjugacy(Mu(0), tp3([1, 2, 1]), 6)


def test_twistmul_window_restriction(f3):
    with pytest.raises(ValueError):
        verify_conjugacy(TwistMul(Poly(f3, [1, 1])), tp3([1]), 5)
    with pytest.raises(ValueError):
        verify_conjugacy(Sigma(2), tp3([1]), 5)  # one-step statement only
    with pytest.raises(ValueError):
        verify_conjugacy(Mu(1), tp3([1]), 0)


def test_conjugator_validation(f3):
    with pytest.raises(ValueError):
        conjugator(f3, "w9", 3)
    with pytest.raises(ValueError):
        conjugator(f3, "w1", 0, d=1)


def test_sigma_block_shape_identity_is_false(f3):
    # the claimed zero top block does not hold (counterexample P = 1);
    # the check must report the discrepancy rather than hide it
    assert verify_conjugacy(Sigma(1), tp3([1]), 7) is False
    assert verify_conjugacy(Sigma(1), tp3([0, 1]), 7) is False


def test_rank_constant_on_mu_orbits_exhaustive():
    # q=3, every P with deg <= 6
    f3 = field_make(3)
    for m in range(0, 7):
        eng = RankEngine(3, 1, m)
        for lead in (1, 2):
            for code in range(3**m):
                coeffs = []
                v = code
                for _ in range(m):
                    coeffs.append(v % 3)
                    v //= 3
                coeffs.append(lead)
                t = TwistedPower(Poly(f3, coeffs), 1)
                r0 = eng.vanishing_order(tuple(coeffs), 0)
                for d in (1, 2):
                    acted = act_on_poly(Mu(d), t)
                    r1 = eng.vanishing_order(tuple(int(c) for c in acted.P.coeffs), 0)
                    assert r0 == r1


def test_rank_invariant_under_tau_nu_composite(rng):
    # even m: r(tau_{c^-1} ∘ nu_c (P)) = r(P)
    f3 = field_make(3)
    for _ in range(20):
        m = rng.choice([2, 4, 6])
        coeffs = [rng.randrange(3) for _ in range(m)] + [rng.randrange(1, 3)]
        t = TwistedPower(Poly(f3, coeffs), 1)
        c = rng.randrange(1, 3)
        acted = act_on_poly(Tau(f3.inv(c)), act_on_poly(Nu(c), t))
        assert analytic_rank(acted) == analytic_rank(t)


def test_mu_orbit_sizes():
    # non-shift-stable polynomials sit in orbits of size q; shift-stable ones
    # are fixed points
    f3 = field_make(3)
    stable = shift_stable_expand([1, 2], 3)
    t = TwistedPower(stable, 1)
    for d in range(3):
        assert act_on_poly(Mu(d), t).P == stable
    generic = TwistedPower(Poly(f3, [1, 1]), 1)
    orbit = {act_on_poly(Mu(d), generic).P.coeffs for d in range(3)}
    assert len(orbit) == 3
