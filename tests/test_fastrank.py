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


def _as_value(eng, x):
    # Artin-Schreier value x^p - x in the engine's point field
    t = eng.tables
    xp = x
    for _ in range(eng.p - 1):
        xp = t.mul[xp * t.q + x]
    return t.sub[xp * t.q + x]


def test_points_put_prime_field_last():
    for p, n, m, shift in [(3, 1, 11, False), (3, 2, 10, False),
                           (3, 1, 27, True), (3, 1, 36, True),
                           (5, 1, 35, True), (5, 2, 9, False)]:
        eng = RankEngine(p, n, m, shift_stable=shift)
        pts = eng.points
        tail = [x for x in pts if x < p]
        assert tail and pts[-len(tail):] == tail
        assert len(tail) < len(pts)
        if shift:
            # points whose AS value lies in GF(p) come after all others
            in_fp = [_as_value(eng, x) < p for x in pts]
            assert in_fp == sorted(in_fp)
    # GF(27) at m=27: 3 and 6 are outside GF(3) but their AS values are not
    eng = RankEngine(3, 1, 27, shift_stable=True)
    assert eng.points[-3:] == [3, 6, 0]


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
    assert eng.vanishing_orders(np.array([[0, 2], [1, 1]])).tolist() == [0, 0]


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
    # the engine's elimination kernel at t = 0..p-1: certified => order 0
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


# (p, n, m, kind): kind "full" is the default engine, "stable" the
# shift-stable one (rows are F(θ^p - θ)), "reduced" the leading block on the
# distinguished coset; point fields GF(p^s) for s = 1, 2, 3 and k = 0, 1, 2
_BATCH_CELLS = [
    (2, 1, 0, "full"), (2, 1, 1, "full"), (2, 1, 3, "full"),
    (2, 2, 0, "full"), (2, 2, 2, "full"), (2, 3, 0, "full"),
    (2, 1, 4, "stable"), (2, 2, 2, "stable"),
    (2, 1, 0, "reduced"), (2, 1, 2, "reduced"), (2, 3, 0, "reduced"),
    (3, 1, 1, "full"), (3, 1, 3, "full"), (3, 1, 5, "full"),
    (3, 1, 16, "full"), (3, 2, 0, "full"), (3, 2, 4, "full"),
    (3, 2, 8, "full"), (3, 3, 0, "full"), (3, 3, 3, "full"),
    (3, 1, 9, "stable"), (3, 1, 18, "stable"), (3, 2, 6, "stable"),
    (3, 3, 3, "stable"),
    (3, 1, 1, "reduced"), (3, 1, 5, "reduced"), (3, 1, 7, "reduced"),
    (3, 2, 4, "reduced"), (3, 3, 1, "reduced"),
    (5, 1, 2, "full"), (5, 1, 5, "full"), (5, 1, 16, "full"),
    (5, 2, 4, "full"), (5, 2, 8, "full"), (5, 3, 1, "full"),
    (5, 3, 6, "full"), (5, 3, 30, "full"),
    (5, 1, 10, "stable"), (5, 2, 10, "stable"), (5, 3, 30, "stable"),
    (5, 1, 3, "reduced"), (5, 1, 11, "reduced"), (5, 2, 14, "reduced"),
    (5, 3, 5, "reduced"),
]


def _batch_cell(p, n, m, kind, rng, count=30):
    from carlitz.scan import shift_stable_expand
    coset_lead = (-1) ** n % p
    if kind == "stable":
        eng = RankEngine(p, n, m, shift_stable=True)
        rows = []
        for _ in range(count):
            c = ([rng.randrange(p) for _ in range(m // p)]
                 + [rng.randrange(1, p)])
            rows.append([int(x) for x in shift_stable_expand(c, p).coeffs])
        return eng, np.array(rows)
    if kind == "reduced":
        eng = RankEngine(p, n, m, k=reduced_block_size(p, n, m))
        leads = [coset_lead]
    else:
        eng = RankEngine(p, n, m)
        leads = [coset_lead] + list(range(1, p))
    rows = [[rng.randrange(p) for _ in range(m)] + [rng.choice(leads)]
            for _ in range(count)]
    return eng, np.array(rows).reshape(count, m + 1)


def test_batch_cells_cover_fields_and_small_k(rng):
    fields, ks = set(), set()
    for p, n, m, kind in _BATCH_CELLS:
        eng, _ = _batch_cell(p, n, m, kind, rng, count=0)
        ks.add(eng.k)
        if eng.k:
            fields.add((p, eng.tables.q))
    assert {(p, p**s) for p in (2, 3, 5) for s in (1, 2, 3)} <= fields
    assert {0, 1, 2} <= ks


@pytest.mark.parametrize("p,n,m,kind", _BATCH_CELLS)
def test_batched_orders_match_scalar(p, n, m, kind, rng):
    eng, rows = _batch_cell(p, n, m, kind, rng)
    for ws in eng.point_weights:
        # per point, where the minimum over points cannot mask an error
        want = [eng._mult_at(r, ws) for r in rows.tolist()]
        assert eng._mults_at(rows, ws).tolist() == want
        if eng.k:
            # the det-first exit fires exactly where the multiplicity is 0,
            # and the charpoly kernel alone is exact on every row
            mask = eng._det_nonzero(eng._matrices(rows, ws))
            assert mask.tolist() == [w == 0 for w in want]
            assert eng._charpoly_mults(eng._matrices(rows, ws)).tolist() \
                == want
    for lower_bound in (0, 1):
        want = [eng.vanishing_order(tuple(r), lower_bound)
                for r in rows.tolist()]
        assert eng.vanishing_orders(rows, lower_bound).tolist() == want
    if eng.k <= 5:
        # and against the symbolic determinant on a sample
        shift = 1 if kind == "reduced" else 0
        ctx = field_make(p)
        got = eng.vanishing_orders(rows[:6])
        for row, order in zip(rows[:6].tolist(), got.tolist()):
            assert shift + order == analytic_rank(
                TwistedPower(Poly(ctx, row), n))


@pytest.mark.parametrize("p,n", [(2, 1), (3, 1), (3, 2), (5, 1), (5, 2),
                                 (5, 3)])
def test_batched_identity_matrix_has_multiplicity_k(p, n, rng):
    # degree p-1-n with the coset lead: k = 1 and M(t) = I at every point
    m = p - 1 - n
    eng = RankEngine(p, n, m)
    assert eng.k == 1
    rows = np.array([[rng.randrange(p) for _ in range(m)] + [(-1) ** n % p]
                     for _ in range(8)]).reshape(8, m + 1)
    assert eng.vanishing_orders(rows).tolist() == [1] * 8
    assert eng.vanishing_orders(rows[:0]).tolist() == []
