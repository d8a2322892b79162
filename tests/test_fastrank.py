import hashlib
import json

import numpy as np
import pytest

from carlitz import field_make, Poly, TwistedPower
from carlitz.motive import analytic_rank, analytic_ranks
from carlitz.fastrank import RankEngine, BatchScreen, _Tables, _ops, _powers
from carlitz.motive import on_coset, reduced_block_size
from carlitz.scan import _mode_phi


def _phi(p, shift):
    # the engine's φ: θ^p - θ for shift-stable digits, else θ
    return _mode_phi(p, "shift-stable" if shift else "squarefree")


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


@pytest.mark.parametrize("n,m", [(1, 12), (2, 11)])
def test_engine_at_the_floor_size_matches_symbolic(n, m, rng):
    # q-1 ∤ m+n: the engine's matrix is one row smaller than the ceiling
    # size and takes fewer points, yet gives the determinant's orders, on
    # random rows and on the cell's scan witnesses of rank >= 1
    from carlitz.scan import ScanSpec, run_scan
    eng = RankEngine(3, n, m)
    assert eng.k == (m + n) // 2
    rows = [[rng.randrange(3) for _ in range(m)] + [rng.randrange(1, 3)]
            for _ in range(300)]
    for lead in (1, 2):
        table = run_scan(ScanSpec(q=3, n=n, m=m, lead=lead, workers=1))
        rows += [list(map(int, w.split(",")))
                 for ws in table.witnesses.values() for w in ws]
    want = analytic_ranks(np.array(rows), n, field_make(3))
    assert eng.vanishing_orders(np.array(rows)).tolist() == want.tolist()
    assert max(want) >= 1


def test_engine_extension_points_match_symbolic(rng):
    # cells whose points lie in GF(p^s), s > 1; on-coset leads force rank >= 1
    # so the prime-field points alone cannot settle the order
    for q, n, m in [(3, 1, 5), (3, 1, 7), (3, 1, 9), (3, 2, 4), (3, 2, 6),
                    (2, 1, 3), (5, 2, 11)]:
        ctx = field_make(q)
        eng = RankEngine(q, n, m)
        assert eng.tables.q > q
        for _ in range(25):
            lead = rng.choice([(-1) ** n % q, rng.randrange(1, q)])
            coeffs = [rng.randrange(q) for _ in range(m)] + [lead]
            t = TwistedPower(Poly(ctx, coeffs), n)
            assert eng.vanishing_order(tuple(coeffs)) == analytic_rank(t)


def _frob(eng, x):
    # x^p in the engine's point field, by repeated multiplication
    t = eng.tables
    xp = x
    for _ in range(eng.p - 1):
        xp = t.mul[xp * t.q + x]
    return xp


def _as_value(eng, x):
    # Artin-Schreier value x^p - x in the engine's point field
    t = eng.tables
    return t.sub[_frob(eng, x) * t.q + x]


def test_points_put_prime_field_last():
    # orbits of size 1 come last: prime-field points, and for shift-stable
    # engines the points whose AS value lies in GF(p), AS value 0 last of all
    tails = 0
    for p, n, m, shift in [(3, 1, 11, False), (3, 2, 10, False),
                           (3, 1, 27, True), (3, 1, 36, True),
                           (5, 1, 35, True), (5, 2, 11, False),
                           (3, 2, 4, False), (3, 2, 6, True),
                           (3, 1, 48, True)]:
        eng = RankEngine(p, n, m, phi=_phi(p, shift))
        pts = eng.points
        tail = [x for x in pts if x < p]
        assert pts[len(pts) - len(tail):] == tail
        assert len(tail) < len(pts)
        tails += bool(tail)
        if shift:
            # points whose AS value lies in GF(p) come after all others
            in_fp = [_as_value(eng, x) < p for x in pts]
            assert in_fp == sorted(in_fp)
    assert tails == 4
    # GF(27) at m=27: two orbits of AS values of size 3 reach the bound
    # floor(14/3) + 1 = 5, so no prime-field point is needed; at m=48 the
    # bound 9 takes every AS value, 3 and 6 (outside GF(3), AS values in
    # GF(3)) before 0
    assert RankEngine(3, 1, 27, phi=_phi(3, True)).points == [9, 18]
    assert RankEngine(3, 1, 48, phi=_phi(3, True)).points == [9, 18, 3, 6, 0]


def test_engine_rejects_non_prime_q():
    # prime powers too: the engine's digits are prime-field coefficients
    for p in (1, 4, 9):
        with pytest.raises(ValueError, match="engine requires prime q"):
            RankEngine(p, 1, 3)


def test_engine_rejects_phi_of_degree_zero():
    # the point rule divides by deg φ; a zero lead (mod p) leaves a lower
    # degree, so (0, 3) over GF(3) is a constant too
    for phi in [(), (1,), (2, 0), (0, 3)]:
        with pytest.raises(ValueError, match="degree >= 1"):
            RankEngine(3, 1, 3, phi=phi)
        with pytest.raises(ValueError, match="degree >= 1"):
            RankEngine(3, 1, 3, phi=phi, k=0)


def test_point_field_table_cap():
    # flat q*q tables stop at ff._TABLE_LIMIT = 256: GF(2^9) has none
    with pytest.raises(ValueError, match="above table cap"):
        _Tables(2, 9)
    assert _Tables(2, 8).q == 256


def test_engines_share_the_point_field_tables(rng):
    # the engine reads ff's tables as they are, and the uint16 ops over them
    # are built once per field: two engines over GF(9) share one ops tuple
    a, b = RankEngine(3, 1, 5), RankEngine(3, 2, 4)
    assert a.tables is b.tables is field_make(3, 2).tables()
    ops = _ops(3, 2)
    misses = _ops.cache_info().misses
    for eng, m in ((a, 5), (b, 4)):
        rows = np.array([[rng.randrange(3) for _ in range(m)] + [1]
                         for _ in range(20)])
        assert eng.vanishing_orders(rows).tolist() == [
            eng.vanishing_order(tuple(r)) for r in rows.tolist()]
    assert _ops.cache_info().misses == misses and _ops(3, 2) is ops


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
    # the coset: q-1 | m+n, and a_m = (-1)^n when a lead is given
    assert on_coset(3, 1, 3) and on_coset(3, 1, 3, 2)
    assert not on_coset(3, 1, 3, 1)
    assert on_coset(3, 2, 4, 1) and not on_coset(3, 2, 4, 2)
    assert not on_coset(3, 1, 4) and not on_coset(3, 1, 4, 2)
    assert on_coset(5, 1, 7, 4) and not on_coset(5, 1, 6, 4)
    # q = 2: every P is on the coset, the block one below k_min
    for n in range(1, 4):
        for m in range(6):
            assert on_coset(2, n, m) and on_coset(2, n, m, 1)
            assert reduced_block_size(2, n, m) == m + n - 1


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
        eng = RankEngine(3, 1, t.m, phi=_phi(3, True))
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
    (5, 3, 6, "full"), (5, 3, 30, "full"), (5, 3, 34, "full"),
    (5, 1, 10, "stable"), (5, 2, 10, "stable"), (5, 3, 30, "stable"),
    (5, 1, 3, "reduced"), (5, 1, 11, "reduced"), (5, 2, 14, "reduced"),
    (5, 3, 5, "reduced"),
]


def _batch_cell(p, n, m, kind, rng, count=30):
    # an engine and random rows of its digits: P's coefficients, or F's for
    # the shift-stable engine (P = F(θ^p - θ), read through eng.rows)
    coset_lead = (-1) ** n % p
    if kind == "stable":
        eng = RankEngine(p, n, m, phi=_phi(p, True))
        digits = [[rng.randrange(p) for _ in range(m // p)]
                  + [rng.randrange(1, p)] for _ in range(count)]
        return eng, np.array(digits, dtype=np.int64).reshape(count,
                                                             m // p + 1)
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


def test_engine_rows_expand_stable_digits(rng):
    # a shift-stable engine reads its digits as F, P = F(θ^p - θ); every
    # other engine reads them as P's coefficients
    from carlitz.scan import shift_stable_expand
    for p, n, m, kind in _BATCH_CELLS:
        eng, digits = _batch_cell(p, n, m, kind, rng, count=8)
        want = digits.tolist()
        if kind == "stable":
            want = [[int(c) for c in shift_stable_expand(f, p).coeffs]
                    for f in want]
        assert eng.rows(digits).tolist() == want


# the benchmark's scan cells (q=3): m=11, shift-stable m=27 and n=2 m=10,
# each with both leads (the reduced block on the coset), and the size of the
# point field each runs on; a larger field costs its table build in set-up
_BENCH_CELLS = [(1, 11, "squarefree", 9), (1, 27, "shift-stable", 27),
                (2, 10, "squarefree", 27)]


def _engines_under_test(rng):
    # (engine, shift-stable?) for every _BATCH_CELLS and benchmark engine
    from carlitz.scan import _engines_for
    engines = [(_batch_cell(p, n, m, kind, rng, count=0)[0], kind == "stable")
               for p, n, m, kind in _BATCH_CELLS]
    engines += [(_engines_for(3, n, m, mode, on_coset(3, n, m, lead)),
                 mode == "shift-stable")
                for n, m, mode, _ in _BENCH_CELLS for lead in (1, 2)]
    return [(eng, shift) for eng, shift in engines if eng.k]


def _orbit(eng, y):
    orbit = [y]
    while _frob(eng, orbit[-1]) != y:
        orbit.append(_frob(eng, orbit[-1]))
    return orbit


def test_points_one_per_frobenius_orbit(rng):
    # no two points are Frobenius-conjugate (in shift-stable mode, no two AS
    # values), and the orbit sizes reach n*k + 1 (floor(n*k/p) + 1), the
    # last orbit taken being the one that reaches it
    for eng, shift in _engines_under_test(rng):
        p, bound = eng.p, eng.n * eng.k
        need = bound // p + 1 if shift else bound + 1
        orbits = [_orbit(eng, _as_value(eng, x) if shift else x)
                  for x in eng.points]
        covered = set().union(*orbits)
        assert len(covered) == sum(map(len, orbits))
        sizes = [len(o) for o in orbits]
        assert sum(sizes) >= need > sum(sizes) - sizes[-1]
        assert sizes == sorted(sizes, reverse=True)


def test_bench_point_fields_do_not_grow():
    from carlitz.scan import _engines_for
    for n, m, mode, size in _BENCH_CELLS:
        for lead in (1, 2):
            eng = _engines_for(3, n, m, mode, on_coset(3, n, m, lead))
            assert eng.tables.q == size


def test_engine_points_pinned():
    # the points and point fields of every engine over p in {2, 3, 5, 7},
    # n <= 3, m <= 30, both modes, full and (where some lead lies on the
    # coset) reduced blocks, pinned by digest: any change to the point rule
    # or the point order fails here
    h = hashlib.sha256()
    for p in (2, 3, 5, 7):
        for n in (1, 2, 3):
            for m in range(1, 31):
                ks = [None]
                if any(on_coset(p, n, m, a) for a in range(1, p)):
                    ks.append(reduced_block_size(p, n, m))
                for shift in (False, True):
                    for k in ks:
                        eng = RankEngine(p, n, m, phi=_phi(p, shift), k=k)
                        got = [eng.points, eng.tables.q] if eng.k else []
                        h.update(json.dumps(got).encode() + b"\n")
    assert h.hexdigest() == (
        "81345d26f375db14407ffc6e541dc8eb998511e74e486ac21ada3e1433bccd27")


def test_mult_at_is_frobenius_invariant(rng):
    # M(t^p) is M(t) with Frobenius on every entry, so the multiplicity of
    # eigenvalue 1 agrees at t and t^p, over every point of the field
    fields = {}
    for cell in _BATCH_CELLS:
        eng, digits = _batch_cell(*cell, rng, count=12)
        if eng.k and eng.tables.q in (8, 9, 25, 27):
            fields.setdefault(eng.tables.q, (eng, eng.rows(digits)))
    assert sorted(fields) == [8, 9, 25, 27]
    for eng, rows in fields.values():
        mults = set()
        for x in range(eng.tables.q):
            ws, ws_p = eng._weights(x), eng._weights(_frob(eng, x))
            for row in rows.tolist():
                mult = eng._mult_at(row, ws)
                assert eng._mult_at(row, ws_p) == mult
                mults.add(mult)
        assert len(mults) > 1


@pytest.mark.parametrize("p,n,m,kind", _BATCH_CELLS)
def test_batched_orders_match_scalar(p, n, m, kind, rng):
    eng, digits = _batch_cell(p, n, m, kind, rng)
    rows = eng.rows(digits)
    for ws in eng.point_weights:
        # per point, where the minimum over points cannot mask an error
        want = [eng._mult_at(r, ws) for r in rows.tolist()]
        if eng.k:
            # the det-first exit fires exactly where the multiplicity is 0,
            # and the charpoly kernel alone is exact on every row
            mask = eng._det_nonzero(eng._matrices(rows, ws))
            assert mask.tolist() == [w == 0 for w in want]
            assert eng._charpoly_mults(eng._matrices(rows, ws)).tolist() \
                == want
    want = [eng.vanishing_order(tuple(r)) for r in rows.tolist()]
    assert eng.vanishing_orders(digits).tolist() == want
    if eng.k <= 5:
        # and against the symbolic determinant on a sample
        shift = 1 if kind == "reduced" else 0
        ctx = field_make(p)
        got = eng.vanishing_orders(digits[:6])
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


def _at_point(poly, x, tables):
    # poly over GF(p) evaluated at x in the engine's GF(p^s), by Horner; the
    # prime-field coefficients embed as themselves
    q, acc = tables.q, 0
    for c in reversed(poly.coeffs):
        acc = tables.add[tables.mul[acc * q + x] * q + int(c)]
    return acc


@pytest.mark.parametrize("p,n,m,kind", _BATCH_CELLS)
def test_matrices_match_symbolic_matrix(p, n, m, kind, rng):
    # the one-gather build of M(t) - I against motive's matrix over GF(p)[T],
    # entry by entry at every engine point; the reduced block is the leading
    # principal block of the stable matrix
    from carlitz.motive import build_matrix
    eng, digits = _batch_cell(p, n, m, kind, rng, count=5)
    rows = eng.rows(digits)
    ctx = field_make(p)
    k = eng.k
    syms = []
    for row in rows.tolist():
        tp = TwistedPower(Poly(ctx, row), n)
        syms.append(build_matrix(tp, max(k, tp.k_min)))
    for x, ws in zip(eng.points, eng.point_weights):
        got = eng._matrices(rows, ws)
        assert got.shape == (k, k, len(rows))
        t = eng.tables
        for r, sym in enumerate(syms):
            want = [[_at_point(sym[i][j], x, t) for j in range(k)]
                    for i in range(k)]
            for i in range(k):
                want[i][i] = t.sub[want[i][i] * t.q + 1]
            assert got[:, :, r].tolist() == want


def _cell_digits(q, m, lead, mode):
    # every engine digit row of a scan cell, in odometer order
    from carlitz.scan import _odometer
    free = m // q if mode == "shift-stable" else m
    return _odometer(q, free, lead, 0, q**free)


@pytest.mark.parametrize("m,mode", [(9, "squarefree"), (18, "shift-stable")])
def test_charpoly_sees_only_certified_rows(m, mode, monkeypatch):
    # the count phase gets only rows of order >= 1 (rank >= 2 on the coset,
    # where the engine runs the reduced block), and the two-phase answers
    # equal the scalar oracle on the rows where the schedule matters
    from carlitz.scan import ScanSpec, run_scan, _engines_for
    seen, last = set(), []
    matrices, charpoly = RankEngine._matrices, RankEngine._charpoly_mults

    def spy_matrices(self, rows, ws):
        last[:] = [np.asarray(rows)]
        return matrices(self, rows, ws)

    def spy_charpoly(self, h):
        # the count phase builds each batch right before its charpoly
        assert h.shape[2] == len(last[0])
        seen.update(tuple(r) for r in last[0].tolist())
        return charpoly(self, h)

    q, n = 3, 1
    ctx = field_make(q)
    for lead in (1, 2):
        on = on_coset(q, n, m, lead)
        eng = _engines_for(q, n, m, mode, on)
        seen.clear()
        with monkeypatch.context() as mp:
            mp.setattr(RankEngine, "_matrices", spy_matrices)
            mp.setattr(RankEngine, "_charpoly_mults", spy_charpoly)
            table = run_scan(ScanSpec(q=q, n=n, m=m, lead=lead, mode=mode,
                                      workers=1))
        assert seen
        for row in seen:
            assert analytic_rank(TwistedPower(Poly(ctx, row), n)) >= 1 + on
        # det(M(t) - I) = 0 at the first point with order 0, order exactly
        # 1, and the scan's witnesses of rank >= 2
        digits = _cell_digits(q, m, lead, mode)
        rows = eng.rows(digits).tolist()
        of_row = {tuple(r): d for r, d in zip(rows, digits.tolist())}
        kinds = {0: [], 1: []}
        for row in rows:
            if eng._mult_at(row, eng.point_weights[0]):
                group = kinds.get(eng.vanishing_order(row))
                if group is not None and len(group) < 20:
                    group.append(row)
        high = [[int(c) for c in w.split(",")]
                for (_, _, r), ws in table.witnesses.items() if r >= 2
                for w in ws]
        assert all(eng.vanishing_order(r) >= 2 - on for r in high)
        for group in (kinds[0], kinds[1], high):
            assert group
            got = eng.vanishing_orders(np.array([of_row[tuple(r)]
                                                 for r in group]))
            assert got.tolist() == [eng.vanishing_order(r) for r in group]


def _window(p, w, start, count, rng):
    # rows start..start+count-1 of the odometer over the low j digits, the
    # fewest that hold the window (all w-1 free digits at most), with random
    # higher digits and lead shared by every row
    from carlitz.scan import _odometer
    j = 0
    while j < w - 1 and p**j < start + count:
        j += 1
    end = min(start + count, p**j)
    start = min(start, end - 1)
    low = _odometer(p, j, 0, start, end)[:, :j]
    high = [rng.randrange(p) for _ in range(w - 1 - j)] + [rng.randrange(1, p)]
    return np.hstack([low, np.tile(high, (end - start, 1))])


def test_schur_certify_matches_elimination(rng):
    # the per-group Schur form against plain elimination of M(t) - I, on
    # every engine and point: aligned odometer blocks of p^s rows, ragged
    # windows, every 7th row of a window, and shift-stable engines' digits
    cases = 0
    for eng, shift in _engines_under_test(rng):
        p, m = eng.p, eng.m
        w = m // p + 1 if shift else m + 1
        block = p ** eng._plan.s
        windows = [_window(p, w, 2 * block, 3 * block, rng),
                   _window(p, w, 2 * block + 1, 3 * block - 2, rng),
                   _window(p, w, block + 3, 21 * block, rng)[::7]]
        for digits in windows:
            rows = eng.rows(digits)
            for i, ws in enumerate(eng.point_weights):
                want = eng._det_nonzero(eng._matrices(rows, ws))
                assert eng._certify(digits, i).tolist() == want.tolist()
                cases += 1
    assert cases > 300


def test_schur_certify_rank_deficient_prefix(monkeypatch):
    # q=3 n=1 m=5 with the coset lead, on the full-size matrix: the rows of
    # M(t) - I that the low digits do not reach are dependent for some
    # groups, so the group elimination meets a zero pivot and every row of
    # the group has det 0
    from carlitz.scan import _odometer
    eng = RankEngine(3, 1, 5)
    digits = _odometer(3, 5, 2, 0, 243)
    plan = eng._plan
    assert 0 < plan.r < eng.k
    groups = []
    eliminate = RankEngine._eliminate

    def spy(self, a, ncols):
        ok = eliminate(self, a, ncols)
        if ncols == self.k - plan.r and a.shape[0] == self.k:
            groups.append(ok)
        return ok

    monkeypatch.setattr(RankEngine, "_eliminate", spy)
    for i, ws in enumerate(eng.point_weights):
        groups.clear()
        got = eng._certify(digits, i)
        assert len(groups) == 1 and not groups[0].all()
        want = eng._det_nonzero(eng._matrices(digits, ws))
        assert got.tolist() == want.tolist()


def test_schur_certify_s0_engines(rng):
    # an engine in which digit 0 already reaches all k rows (r(s) >= k for
    # every s >= 1) takes s = 0, plain elimination of every row; so do
    # engines where the cost estimate finds no s that pays.  Either way the
    # answers are the scalar ones
    forced, zero = [], []
    for p in (2, 3, 5):
        for n in (1, 2, 3):
            for m in range(0, 9):
                for shift in (False, True):
                    if shift and (m == 0 or m % p):
                        continue
                    eng = RankEngine(p, n, m, phi=_phi(p, shift))
                    row0 = (_powers(p, _phi(p, True), m // p)[0] if shift
                            else np.eye(m + 1, dtype=int)[0])
                    slots = {x + l for x in np.flatnonzero(row0).tolist()
                             for l in range(n + 1)}
                    reached = [i for i, idx in enumerate(eng._idx)
                               if slots & set(idx)]
                    w = m // p + 1 if shift else m + 1
                    s = eng._plan.s
                    if max(reached, default=-1) + 1 >= eng.k:
                        assert s == 0
                        forced.append((p, eng.k))
                    if s:
                        continue
                    zero.append((p, eng.k))
                    digits = np.array(
                        [[rng.randrange(p) for _ in range(w - 1)]
                         + [rng.randrange(1, p)] for _ in range(20)])
                    rows = eng.rows(digits)
                    assert eng.vanishing_orders(digits).tolist() == \
                        [eng.vanishing_order(r) for r in rows.tolist()]
    assert {(2, 3), (3, 1)} <= set(forced)
    assert len(zero) > len(forced) and (2, 8) in zero
