"""Division-free determinants over GF(q)[T].

The main entry point computes det(I - M U) for a square matrix M over
GF(q)[T], q = p^e, via the Berkowitz vector recurrence (Berkowitz, IPL 18,
1984).  No division occurs at all, which matters twice over: the entries
live in GF(q)[T] (not a field), and characteristic p forbids the usual
divide-by-integers characteristic-polynomial tricks.

Entries go in and the result comes out as ``Poly`` objects over a
``PrimeField`` or ``ExtField``, but the recurrence runs on int64 coefficient
arrays over GF(p).  An element of GF(p^e)[T] is a (digit, T-degree) array:
the e base-p digits of the ``ExtField`` encoding (e = 1 over a prime field),
one column per power of T.  With every entry of T-degree <= deg, the
coefficients of a principal j x j block's characteristic polynomial have
T-degree <= j*deg, so k*deg + 1 columns bound every array.

Digit products have degree up to 2e-2; a (2e-1) x e matrix of powers of the
field generator folds them back to e digits.  Each T-coefficient of an entry
is expanded once into the e x e GF(p)-matrix of multiplication by it, so a
Krylov step [A; R]*s (A*s and R*s together: R sits under A in the block) is
one integer matmul and deg+1 shifted adds.  The Toeplitz update of each
block is one ``np.convolve`` of Kronecker-flattened arrays, with strides
wide enough that nothing wraps, followed by the digit fold.

numpy is imported inside the function, so importing this module (and
``carlitz``) does not load it.  All sums stay below 2^63: see the bound
asserted in ``det_identity_minus_mu``.

A cofactor-expansion determinant over any commutative ring is provided as
the small-instance brute-force oracle for tests.
"""

from __future__ import annotations

from .poly import Poly

__all__ = ["det_identity_minus_mu", "det_cofactor", "generator_digits"]


def generator_digits(ctx, count: int):
    """(e, count) int64 array: column r holds the base-p digits of x^r.

    x is the generator of GF(p^e), encoded as p (x^0 = 1 over GF(p)).  The
    columns r >= e fold a digit product of degree r back to e digits.
    """
    import numpy as np

    p = ctx.char
    return np.array([[ctx.pow_(p, r) // p**c % p for r in range(count)]
                     for c in range(ctx.e)], dtype=np.int64)


def det_identity_minus_mu(m, one):
    """U-coefficient list (little-endian) of det(I - M U); leading entry 1.

    This is the Berkowitz coefficient vector v of det(xI - M), with
    v[i] the coefficient of x^(k-i) and v[0] = 1.  ``m`` is a k x k matrix
    of ``Poly`` over GF(p^e); ``one`` is that ring's 1.
    """
    k = len(m)
    if k == 0:
        return [one]
    import numpy as np

    ctx = one.ctx
    p, e = ctx.char, ctx.e
    e2 = 2 * e - 1
    deg = max(0, max(len(x.coeffs) for row in m for x in row) - 1)
    # Largest sum before a reduction mod p: a convolution position adds at
    # most (k+1)*e*(k*deg+1) digit products, each < p^2, and the digit fold
    # adds 2e-1 of those times a digit < p.  Krylov sums are smaller.
    assert (k + 1) * (k * deg + 1) * e * e2 * (p - 1) ** 3 < 2**63

    flat = []
    for row in m:
        for x in row:
            flat.extend(x.coeffs)
            flat.extend((0,) * (deg + 1 - len(x.coeffs)))
    codes = np.array(flat, dtype=np.int64).reshape(k, k, deg + 1)
    powers = p ** np.arange(e, dtype=np.int64)
    # mat[d, a, i, j]: digit a of the T^d coefficient of m[i][j]
    mat = np.ascontiguousarray(
        (codes[..., None] // powers % p).transpose(2, 3, 0, 1))
    fold = generator_digits(ctx, e2)
    # mul[d, i, c, j, b]: digit c of (T^d coefficient of m[i][j]) * x^b, so
    # that a product entry * s is a GF(p)-matmul over (entry, digit) pairs
    digits = np.arange(e)
    mul = np.einsum("daij,cab->dicjb", mat,
                    fold[:, digits[:, None] + digits]) % p

    vec = np.zeros((1, e, 1), dtype=np.int64)
    vec[0, 0, 0] = 1
    for n in range(1, k + 1):
        # principal n x n block; pivot row/col index n-1.  [A; R] is the
        # leading n x (n-1) corner, C the pivot column above the diagonal.
        width = n * deg + 1
        ar = mul[:, :n, :, : n - 1].reshape((deg + 1) * n * e, (n - 1) * e)
        # s = A^step C, T-degree <= (step+1)*deg, stored at exactly that width
        s = np.ascontiguousarray(mat[:, :, : n - 1, n - 1].transpose(2, 1, 0))
        # t = [1, -M[n-1][n-1], -R C, -R A C, ..., -R A^(n-2) C]
        t = np.zeros((n + 1, e2, width), dtype=np.int64)
        t[0, 0, 0] = 1
        t[1, :e, : deg + 1] = -mat[:, :, n - 1, n - 1].T % p
        for step in range(n - 1):
            ws = s.shape[2]
            prod = (ar @ s.reshape((n - 1) * e, ws)).reshape(deg + 1, n, e, ws)
            acc = np.zeros((n, e, ws + deg), dtype=np.int64)
            for d in range(deg + 1):
                acc[:, :, d : d + ws] += prod[d]
            acc %= p
            s = acc[: n - 1]
            t[step + 2, :e, : ws + deg] = -acc[n - 1] % p
        # new[i] = sum_j t[i-j] vec[j] for i <= n.  A slot holds (digit,
        # T-degree) with strides (width, 1); t[i-j] * vec[j] has T-degree
        # <= i*deg < width and digit degree <= 2e-2 < e2, so slots 0..n are
        # exact and only the discarded slots above n can spill.
        v = np.zeros((n, e2, width), dtype=np.int64)
        v[:, :e, : vec.shape[2]] = vec
        conv = np.convolve(t.ravel(), v.ravel())[: (n + 1) * e2 * width]
        vec = fold @ conv.reshape(n + 1, e2, width) % p
    out = (vec * powers[:, None]).sum(axis=1)
    return [Poly(ctx, row) for row in out.tolist()]


def det_cofactor(m, zero, one):
    """Plain cofactor-expansion determinant; exponential, tests only."""
    k = len(m)
    if k == 0:
        return one
    if k == 1:
        return m[0][0]
    acc = zero
    for j in range(k):
        entry = m[0][j]
        minor = [[m[i][jj] for jj in range(k) if jj != j] for i in range(1, k)]
        term = entry * det_cofactor(minor, zero, one)
        acc = acc + term if j % 2 == 0 else acc - term
    return acc
