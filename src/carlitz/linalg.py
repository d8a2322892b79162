"""Division-free determinants over GF(q)[T].

The main entry point computes det(I - M U) for a square matrix M over
GF(q)[T], q = p^e, via the Berkowitz vector recurrence (Berkowitz, IPL 18,
1984).  No division occurs at all, which matters twice over: the entries
live in GF(q)[T] (not a field), and characteristic p forbids the usual
divide-by-integers characteristic-polynomial tricks.

The recurrence is ``berkowitz_stack``: it runs on a stack of B matrices of
one size k at once, given as a (B, k, k, deg+1) array of field codes, and
returns every member's coefficient vector as base-p digit arrays.
``det_identity_minus_mu`` is its one-matrix case: a (k, k, deg+1) code
array goes in and the coefficients come out as ``Poly`` objects over a
``PrimeField`` or ``ExtField``.  The recurrence runs on int64 coefficient
arrays over GF(p).  An element of GF(p^e)[T] is a (digit, T-degree) array:
the e base-p digits of the ``ExtField`` encoding (e = 1 over a prime field), one column per
power of T.  With every entry of T-degree <= deg, the coefficients of a
principal j x j block's characteristic polynomial have T-degree <= j*deg,
so k*deg + 1 columns bound every array.

Digit products have degree up to 2e-2; a (2e-1) x e matrix of powers of the
field generator folds them back to e digits.  Each T-coefficient of an entry
is expanded once into the e x e GF(p)-matrix of multiplication by it, so a
Krylov step [A; R]*s (A*s and R*s together: R sits under A in the block) is
one integer matmul over the whole stack and deg+1 shifted adds.  The
Toeplitz update of each block is one ``np.convolve`` per member of
Kronecker-flattened arrays, with strides wide enough that nothing wraps,
followed by the digit fold.  A stack shares the Python-level cost of the
Krylov steps, most of a call at the k of a scan's audit, and a one-matrix
stack pays almost nothing for the extra axis.

numpy is imported inside the function, so importing this module (and
``carlitz``) does not load it.  All sums stay below 2^63: the bound is
asserted once per stack in ``berkowitz_stack``, from k and the stack's
largest T-degree deg.

A cofactor-expansion determinant over any commutative ring is provided as
the small-instance brute-force oracle for tests.
"""

from __future__ import annotations

from .poly import Poly

__all__ = ["berkowitz_stack", "det_identity_minus_mu", "det_cofactor",
           "generator_digits"]


def generator_digits(ctx, count: int):
    """(e, count) int64 array: column r holds the base-p digits of x^r.

    x is the generator of GF(p^e), encoded as p (x^0 = 1 over GF(p)).  The
    columns r >= e fold a digit product of degree r back to e digits.
    """
    import numpy as np

    p = ctx.char
    return np.array([[ctx.pow_(p, r) // p**c % p for r in range(count)]
                     for c in range(ctx.e)], dtype=np.int64)


def berkowitz_stack(codes, ctx):
    """Digits of det(I - M U) for every matrix of a stack, in one recurrence.

    ``codes`` is a (B, k, k, deg+1) integer array: entry [b, i, j, d] is the
    field code of the T^d coefficient of M_b[i][j] over ``ctx`` = GF(p^e).
    Returns the (B, k+1, e, k*deg+1) int64 array whose [b, i, c, d] is digit
    c of the T^d coefficient of the U^i coefficient of det(I - M_b U): the
    Berkowitz coefficient vector of det(xI - M_b), with v[i] the
    coefficient of x^(k-i) and v[0] = 1.  A member whose entries have
    T-degree below deg gets zero columns above its own width.
    """
    import numpy as np

    codes = np.asarray(codes, dtype=np.int64)
    count, k = codes.shape[:2]
    deg = codes.shape[3] - 1
    p, e = ctx.char, ctx.e
    e2 = 2 * e - 1
    # Largest sum before a reduction mod p: a convolution position adds at
    # most (k+1)*e*(k*deg+1) digit products, each < p^2, and the digit fold
    # adds 2e-1 of those times a digit < p.  Krylov sums are smaller.
    assert (k + 1) * (k * deg + 1) * e * e2 * (p - 1) ** 3 < 2**63

    powers = p ** np.arange(e, dtype=np.int64)
    # mat[b, d, a, i, j]: digit a of the T^d coefficient of M_b[i][j]
    mat = np.ascontiguousarray(
        (codes[..., None] // powers % p).transpose(0, 3, 4, 1, 2))
    fold = generator_digits(ctx, e2)
    # mul[b, d, i, c, j, x]: digit c of (T^d coefficient of M_b[i][j]) *
    # gen^x, so that a product entry * s is a GF(p)-matmul over (entry,
    # digit) pairs
    digits = np.arange(e)
    mul = np.einsum("zdaij,cax->zdicjx", mat,
                    fold[:, digits[:, None] + digits]) % p

    # The update below convolves -t, whose entries need no negation, so
    # block n leaves (-1)^n times the coefficient vector; the sign is
    # undone once at the end.
    vec = np.zeros((count, 1, e, 1), dtype=np.int64)
    vec[:, 0, 0, 0] = 1
    for n in range(1, k + 1):
        # principal n x n block; pivot row/col index n-1.  [A; R] is the
        # leading n x (n-1) corner, C the pivot column above the diagonal.
        width = n * deg + 1
        ar = mul[:, :, :n, :, : n - 1].reshape(
            count, (deg + 1) * n * e, (n - 1) * e)
        # s = A^step C, T-degree <= (step+1)*deg, stored at exactly that width
        s = np.ascontiguousarray(
            mat[:, :, :, : n - 1, n - 1].transpose(0, 3, 2, 1))
        # -t = [-1, M[n-1][n-1], R C, R A C, ..., R A^(n-2) C]
        t = np.zeros((count, n + 1, e2, width), dtype=np.int64)
        t[:, 0, 0, 0] = p - 1
        t[:, 1, :e, : deg + 1] = mat[:, :, :, n - 1, n - 1].transpose(0, 2, 1)
        for step in range(n - 1):
            ws = s.shape[3]
            prod = (ar @ s.reshape(count, (n - 1) * e, ws)).reshape(
                count, deg + 1, n, e, ws)
            acc = np.zeros((count, n, e, ws + deg), dtype=np.int64)
            for d in range(deg + 1):
                acc[:, :, :, d : d + ws] += prod[:, d]
            acc %= p
            s = acc[:, : n - 1]
            t[:, step + 2, :e, : ws + deg] = acc[:, n - 1]
        # new[i] = sum_j t[i-j] vec[j] for i <= n.  A slot holds (digit,
        # T-degree) with strides (width, 1); t[i-j] * vec[j] has T-degree
        # <= i*deg < width and digit degree <= 2e-2 < e2, so slots 0..n are
        # exact and only the discarded slots above n can spill.
        v = np.zeros((count, n, e2, width), dtype=np.int64)
        v[:, :, :e, : vec.shape[3]] = vec
        size = (n + 1) * e2 * width
        tf, vf = t.reshape(count, size), v.reshape(count, n * e2 * width)
        conv = np.empty((count, size), dtype=np.int64)
        for b in range(count):
            conv[b] = np.convolve(tf[b], vf[b])[:size]
        vec = conv.reshape(count, n + 1, e2, width)
        if e > 1:  # the digit fold; the identity over a prime field
            vec = fold @ vec
        vec %= p
    return -vec % p if k % 2 else vec


def det_identity_minus_mu(codes, ctx):
    """U-coefficient list (little-endian) of det(I - M U); leading entry 1.

    ``codes`` is one k x k matrix the way ``berkowitz_stack`` takes each
    member of a stack: a (k, k, deg+1) integer array of field codes over
    ``ctx`` = GF(p^e).  Returns the Berkowitz coefficient vector as ``Poly``
    in T: v[i] the coefficient of x^(k-i) in det(xI - M), v[0] = 1.
    """
    import numpy as np

    vec = berkowitz_stack(np.asarray(codes)[None], ctx)[0]
    powers = ctx.char ** np.arange(ctx.e, dtype=np.int64)
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
