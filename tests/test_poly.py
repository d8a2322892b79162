import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from carlitz import (field_make, Poly, poly_gcd, is_squarefree, is_irreducible,
                     irreducibles_of_degree, irreducible_count,
                     poly_to_str, poly_from_str)
from carlitz.euler import primes_of_degree


def poly3(coeffs):
    return Poly(field_make(3), coeffs)


def test_gcd_examples():
    assert poly_gcd(poly3([2, 0, 1]), poly3([2, 1])) == poly3([2, 1])
    assert poly_gcd(poly3([0, 2]), Poly.zero(field_make(3))) == poly3([0, 1])
    assert poly_gcd(poly3([0, 2, 0, 1]), poly3([2, 0, 1])) == poly3([2, 0, 1])
    assert poly_gcd(Poly.zero(field_make(3)), Poly.zero(field_make(3))).is_zero()


def test_squarefree_examples():
    assert not is_squarefree(poly3([0, 0, 0, 1]))        # θ³, vanishing derivative
    assert is_squarefree(poly3([1, 0, 1]))               # irreducible quadratic
    assert not is_squarefree(poly3([1, 1]) * poly3([1, 1]) * poly3([0, 1]))
    with pytest.raises(ValueError):
        is_squarefree(Poly.zero(field_make(3)))


def test_squarefree_against_trial_division_oracle(rng):
    # oracle: divide out every irreducible of degree <= deg/2 twice
    f3 = field_make(3)
    irr = [p for d in range(1, 5) for p in primes_of_degree(f3, d)]
    for _ in range(200):
        m = rng.randrange(0, 9)
        coeffs = [rng.randrange(3) for _ in range(m)] + [rng.randrange(1, 3)]
        p = Poly(f3, coeffs)
        brute = not any((p % (f * f)).is_zero() for f in irr
                        if 2 * int(f.degree) <= int(p.degree))
        assert is_squarefree(p) == brute, coeffs


@pytest.mark.parametrize("q,d,first", [
    (3, 1, [(0, 1), (1, 1), (2, 1)]),
    (2, 3, [(1, 1, 0, 1), (1, 0, 1, 1)]),
])
def test_irreducibles_listing(q, d, first):
    ctx = field_make(q)
    assert [p.coeffs for p in irreducibles_of_degree(ctx, d)] == first


def test_irreducibles_of_degree_rejects_zero(f3):
    with pytest.raises(ValueError):
        next(irreducibles_of_degree(f3, 0))


@pytest.mark.parametrize("q,e", [(2, 1), (3, 1), (4, 2), (5, 1)])
def test_irreducible_counts_match_necklace_formula(q, e):
    ctx = field_make(2, 2) if q == 4 else field_make(q)
    for d in range(1, 7):
        if q**d > 20000:
            break
        got = sum(1 for _ in irreducibles_of_degree(ctx, d))
        assert got == irreducible_count(q, d)


def test_is_irreducible_agreement(f3):
    for d in (1, 2, 3):
        irr = set(p.coeffs for p in irreducibles_of_degree(f3, d))
        for c in range(3**d):
            coeffs = []
            v = c
            for _ in range(d):
                coeffs.append(v % 3)
                v //= 3
            coeffs.append(1)
            p = Poly(f3, coeffs)
            assert is_irreducible(p) == (p.coeffs in irr)


@st.composite
def polys_over(draw, q, e=1, max_deg=6):
    ctx = field_make(q, e)
    n = draw(st.integers(0, max_deg + 1))
    coeffs = draw(st.lists(st.integers(0, ctx.order - 1),
                           min_size=n, max_size=n))
    return Poly(ctx, coeffs)


@settings(max_examples=60, deadline=None)
@given(polys_over(3), polys_over(3), polys_over(3))
def test_ring_axioms_f3(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert a * (b + c) == a * b + a * c
    assert (a * b) * c == a * (b * c)
    assert a + (-a) == Poly.zero(a.ctx)


@settings(max_examples=40, deadline=None)
@given(polys_over(2), polys_over(2))
def test_ring_axioms_f2(a, b):
    assert a * b == b * a
    assert (a - b) + b == a


@settings(max_examples=30, deadline=None)
@given(polys_over(3, 2, 4), polys_over(3, 2, 4))
def test_ring_axioms_f9(a, b):
    assert a * b == b * a
    assert (a + b) - b == a


@settings(max_examples=40, deadline=None)
@given(polys_over(3), polys_over(3))
def test_divmod_identity(a, b):
    if b.is_zero():
        return
    q, r = divmod(a, b)
    assert q * b + r == a
    assert r.degree < b.degree


def test_packed_mul_matches_schoolbook(rng):
    # Poly.__mul__ against an independent schoolbook product, sizable operands
    f3 = field_make(3)
    for _ in range(40):
        a = Poly(f3, [rng.randrange(3) for _ in range(rng.randrange(1, 40))])
        b = Poly(f3, [rng.randrange(3) for _ in range(rng.randrange(1, 40))])
        slow = Poly(f3, _schoolbook(a.coeffs, b.coeffs, 3))
        assert a * b == slow


def _schoolbook(a, b, p):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % p
    return out


def test_serialization_round_trip(f3):
    for coeffs in ([1], [0, 2, 0, 2], [2, 1, 0, 0, 1]):
        p = Poly(f3, coeffs)
        assert poly_from_str(f3, poly_to_str(p)) == p
    assert poly_to_str(Poly.zero(f3)) == "0"
    assert poly_from_str(f3, "0").is_zero()
    with pytest.raises(ValueError):
        poly_from_str(f3, "0,3")
    with pytest.raises(ValueError):
        poly_from_str(f3, "1,,2")


def test_compose_and_reverse(f3):
    p = Poly(f3, [1, 2, 1])
    shifted = p.compose(Poly(f3, [1, 1]))  # θ -> θ+1
    assert shifted.evaluate(0) == p.evaluate(1)
    assert p.reversed_to(3) == Poly(f3, [0, 1, 2, 1])
    with pytest.raises(ValueError):
        p.reversed_to(1)


@pytest.mark.parametrize("e", [1, 2])
def test_variable_substitutions_match_compose(e, rng):
    # P(sX), P(X^k) and (-X)^d P(1/X) against compose and pointwise values
    ctx = field_make(3, e)
    q = ctx.order
    x = Poly.x(ctx)
    for _ in range(20):
        p = Poly(ctx, [rng.randrange(q) for _ in range(rng.randrange(0, 6))])
        s = rng.randrange(q)
        assert p.scale_var(s) == p.compose(x.scalar_mul(s))
        for k in (1, 2, 3, q):
            assert p.stretch(k) == p.compose(x ** k)
        d = len(p.coeffs) + rng.randrange(0, 3)
        r = p.invert_var(d)
        for t in range(1, q):
            want = ctx.mul(ctx.pow_(ctx.neg(t), d), p.evaluate(ctx.inv(t)))
            assert r.evaluate(t) == want
        assert r.invert_var(d) == p
    p = Poly(ctx, [1, 2, 1])
    assert p.stretch(3) == Poly(ctx, [1, 0, 0, 2, 0, 0, 1])
    assert p.invert_var(3) == -p.reversed_to(3)
    assert Poly.zero(ctx).stretch(4).is_zero()
    with pytest.raises(ValueError):
        p.invert_var(1)
