import numpy as np
import pytest

from carlitz import field_make, Poly, TwistedPower
from carlitz.motive import analytic_rank
from carlitz.fastrank import RankEngine, BatchScreen, reduced_block_size


def test_engine_matches_symbolic_rank(rng):
    for q in (2, 3):
        ctx = field_make(q)
        for _ in range(80):
            m = rng.randrange(0, 8)
            coeffs = [rng.randrange(q) for _ in range(m)] + [rng.randrange(1, q)]
            n = rng.randrange(1, 3)
            t = TwistedPower(Poly(ctx, coeffs), n)
            eng = RankEngine(q, n, m)
            assert eng.vanishing_order(tuple(coeffs)) == analytic_rank(t)


def test_engine_extension_points_match_symbolic(rng):
    # cells whose points lie in GF(p^s), s > 1; on-coset leads force rank >= 1
    # so the prime-field points alone cannot settle the order
    for q, n, m in [(3, 1, 5), (3, 1, 7), (3, 1, 9), (3, 2, 4), (3, 2, 6),
                    (2, 1, 3), (5, 2, 7)]:
        ctx = field_make(q)
        eng = RankEngine(q, n, m)
        assert eng.tables.q > q
        for _ in range(25):
            lead = rng.choice([(-1) ** n % q, rng.randrange(1, q)])
            coeffs = [rng.randrange(q) for _ in range(m)] + [lead]
            t = TwistedPower(Poly(ctx, coeffs), n)
            assert eng.vanishing_order(tuple(coeffs)) == analytic_rank(t)


def test_points_put_prime_field_last():
    for p, n, m, shift in [(3, 1, 11, False), (3, 2, 10, False),
                           (3, 1, 27, True), (5, 2, 9, False)]:
        pts = RankEngine(p, n, m, shift_stable=shift).points
        tail = [x for x in pts if x < p]
        assert tail and pts[-len(tail):] == tail
        assert len(tail) < len(pts)


def test_engine_rejects_non_prime_q():
    with pytest.raises(ValueError):
        RankEngine(4, 1, 3)


def test_reduced_block_composition(rng):
    # on the distinguished coset: rank = 1 + order of the reduced block
    f3 = field_make(3)
    for _ in range(60):
        n = rng.randrange(1, 3)
        m = rng.randrange(1, 8)
        if (m + n) % 2:
            m += 1
        lead = 2 if n % 2 else 1
        coeffs = [rng.randrange(3) for _ in range(m)] + [lead]
        t = TwistedPower(Poly(f3, coeffs), n)
        kred = reduced_block_size(3, n, m)
        eng = RankEngine(3, n, m, k=kred)
        assert 1 + eng.vanishing_order(tuple(coeffs)) == analytic_rank(t)


def test_reduced_block_size_validation():
    assert reduced_block_size(3, 1, 3) == 1
    with pytest.raises(ValueError):
        reduced_block_size(3, 1, 4)


def test_zero_size_engine():
    eng = RankEngine(3, 1, 1, k=0)
    assert eng.vanishing_order((0, 2)) == 0


def test_shift_stable_points_suffice(rng):
    from carlitz.scan import shift_stable_expand
    for _ in range(40):
        m_st = rng.randrange(1, 5)
        c = [rng.randrange(3) for _ in range(m_st)] + [rng.randrange(1, 3)]
        p = shift_stable_expand(c, 3)
        t = TwistedPower(p, 1)
        eng = RankEngine(3, 1, t.m, shift_stable=True)
        assert eng.vanishing_order(tuple(int(x) for x in p.coeffs)) == \
            analytic_rank(t)


def test_lower_bound_early_exit_is_exact(rng):
    # passing the certified bound must not change answers
    f3 = field_make(3)
    for _ in range(40):
        n = 1
        m = rng.choice([3, 5, 7])
        coeffs = [rng.randrange(3) for _ in range(m)] + [2]
        t = TwistedPower(Poly(f3, coeffs), n)
        eng = RankEngine(3, n, m)
        assert eng.vanishing_order(tuple(coeffs), 1) == analytic_rank(t)


def test_batch_screen_sound_and_consistent(rng):
    q, n, m = 3, 1, 6
    k = TwistedPower(Poly(field_make(3), [0] * m + [1]), n).k_min
    screen = BatchScreen(q, n, m, k)
    eng = RankEngine(q, n, m)
    rows = np.array([[rng.randrange(3) for _ in range(m)]
                     + [rng.randrange(1, 3)] for _ in range(600)])
    mask = screen.order_zero_mask(rows)
    for i in range(rows.shape[0]):
        order = eng.vanishing_order(tuple(int(v) for v in rows[i]))
        if mask[i]:
            assert order == 0
    # coverage: the screen must certify a decent share of the true zeros
    zeros = sum(1 for i in range(rows.shape[0])
                if eng.vanishing_order(tuple(int(v) for v in rows[i])) == 0)
    assert mask.sum() >= zeros * 0.6


def test_batch_screen_reduced_block(rng):
    # reduced-block certificate means rank exactly 1 on the coset
    q, n, m = 3, 1, 7
    kred = reduced_block_size(q, n, m)
    screen = BatchScreen(q, n, m, kred)
    eng = RankEngine(q, n, m, k=kred)
    rows = np.array([[rng.randrange(3) for _ in range(m)] + [2]
                     for _ in range(400)])
    mask = screen.order_zero_mask(rows)
    assert mask.any()
    for i in np.nonzero(mask)[0]:
        assert eng.vanishing_order(tuple(int(v) for v in rows[i])) == 0
