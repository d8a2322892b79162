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
``PrimeField`` or ``ExtField``.  The recurrence runs on coefficient arrays
over GF(p).  An element of GF(p^e)[T] is a (digit, T-degree) array:
the e base-p digits of the ``ExtField`` encoding (e = 1 over a prime field), one column per
power of T.  With every entry of T-degree <= deg, the coefficients of a
principal j x j block's characteristic polynomial have T-degree <= j*deg,
so k*deg + 1 columns bound every array.

Digit products have degree up to 2e-2; ``ff``'s generator-power table folds
them back to e digits.  Each T-coefficient of an entry is expanded once into
the e x e GF(p)-matrix of multiplication by it.

Block n, the principal n x n block with pivot row and column n-1, needs
R A^j C for j <= n-2, with A its leading (n-1) x (n-1) corner, R the pivot
row left of the diagonal and C the pivot column above it.  One Krylov loop
serves every block: block n's vector s is zero on rows >= n-1, so rows
< n-1 of the whole matrix's M s are A s and row n-1 is R s.  Each block's
s is a column of one right-hand side, and step j is one matmul of M (its
deg+1 T-coefficients against deg+1 T-shifted copies of the right-hand
side) for all blocks n >= j+2 at once, so a k x k matrix takes k-1 steps
and not k(k-1)/2.  Step j reads R A^j C off the product's diagonal (block
n's column at row n-1) into one table of the -t vectors, then zeroes rows
>= n-1 of each block's column and drops the block it finished.  The
Toeplitz update of each block stays sequential: one ``np.convolve`` per
member of Kronecker-flattened arrays, with strides wide enough that nothing
wraps, followed by the digit fold.  A stack shares the Python-level cost of
the loop, most of a call at the k of a scan's audit, and a one-matrix stack
pays almost nothing for the extra axis.

The Krylov matmul and the convolution run in float64, which sends the
matmul to BLAS: their operands are GF(p) digits, and each of their sums,
at most (k+1)*e*(k*deg+1) digit products, is exact below 2^53.  The
reductions mod p and the digit fold run in int64, whose sums stay below
2^63.  Both bounds are checked once per stack in ``berkowitz_stack``, from
k and the stack's largest T-degree deg, and a stack past either raises
OverflowError.  numpy is imported inside the functions, so importing this
module (and ``carlitz``) does not load it.

A cofactor-expansion determinant over any commutative ring is provided as
the small-instance brute-force oracle for tests.
"""

from __future__ import annotations

from functools import lru_cache

from .ff import from_digits, generator_digits, to_digits
from .poly import Poly

__all__ = ["berkowitz_stack", "det_identity_minus_mu", "det_cofactor"]


@lru_cache(maxsize=None)
def _strictly_above(h: int):
    """(h, 1, 1, h) float64, read-only: [i, 0, 0, c-1] = 1 if i < c."""
    import numpy as np

    out = np.triu(np.ones((h, h)))[:, None, None, :]
    out.flags.writeable = False
    return out


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
    # Largest sums: a convolution position adds at most (k+1)*e*(k*deg+1)
    # digit products, each < p^2, in float64, exact below 2^53 (a Krylov
    # product adds fewer: (deg+1)*(k-1)*e); the digit fold adds 2e-1 of
    # those times a digit < p, in int64.
    if (k + 1) * (k * deg + 1) * e * (p - 1) ** 2 >= 2**53:
        raise OverflowError(f"float64 sums inexact at k={k}, deg={deg}, {ctx}")
    if (k + 1) * (k * deg + 1) * e * e2 * (p - 1) ** 3 >= 2**63:
        raise OverflowError(f"int64 sums overflow at k={k}, deg={deg}, {ctx}")

    vec = np.zeros((count, 1, e, 1), dtype=np.int64)
    vec[:, 0, 0, 0] = 1
    if k == 0:  # the empty matrix: det(I - M U) = 1
        return vec
    h = k - 1  # rows and columns of the Krylov vectors

    # mat[b, d, a, i, j]: digit a of the T^d coefficient of M_b[i][j]
    mat = to_digits(codes, p, e).transpose(0, 3, 4, 1, 2)
    fold = generator_digits(ctx, e2)[:, :, 0]
    # mul[b, i, c, d, j, x]: digit c of (T^d coefficient of M_b[i][j]) *
    # gen^x, so that M times deg+1 T-shifted copies of a vector is one
    # GF(p)-matmul over (shift, entry, digit); the columns j < k-1 suffice,
    # since every Krylov vector is zero on row k-1
    mul = (generator_digits(ctx, e).reshape(e * e, e)
           @ mat.reshape(count, deg + 1, e, k * k)
           % p).reshape(count, deg + 1, e, e, k, k)[..., :h]
    mul = mul.transpose(0, 4, 2, 1, 5, 3).astype(np.float64, order="C")
    mul = mul.reshape(count, k * e, (deg + 1) * h * e)

    # tab[b, i, c]: entry i of -t for block c+1 (pivot c), that is -1,
    # M[c][c], R C, R A C, ..., R A^(c-1) C with A, R, C the block's leading
    # corner, pivot row and pivot column; digits padded to e2 for the
    # convolution.  Block n = c+1 leaves (-1)^n times its coefficient vector
    # and the sign is undone once at the end.
    tab = np.zeros((count, k + 1, k, e2, k * deg + 1))
    tab[:, 0, :, 0, 0] = p - 1
    tab[:, 1, :, :e, : deg + 1] = np.diagonal(
        mat, axis1=3, axis2=4).transpose(0, 3, 2, 1)
    # Every block's Krylov vector A^step C is a column of one right-hand
    # side: with s zero on rows >= c, M s is A s on rows < c and R s on row
    # c.  src[b, i, x, w, c-1] holds row i of block c+1's vector at T^w
    # before the zeroing; a step drops the block it finishes.
    above = _strictly_above(h)
    src = mat.transpose(0, 3, 2, 1, 4)[:, :h, :, :, 1:]
    for step in range(h):
        ws = src.shape[3]  # (step+1)*deg + 1
        cols = h - step  # blocks c+1 for c = step+1 .. k-1
        rhs = np.zeros((count, deg + 1, h, e, ws + deg, cols))
        np.multiply(src, above[..., step:], out=rhs[:, 0, :, :, :ws])
        for d in range(1, deg + 1):
            rhs[:, d, :, :, d : d + ws] = rhs[:, 0, :, :, :ws]
        acc = (mul @ rhs.reshape(count, (deg + 1) * h * e, (ws + deg) * cols)
               ).astype(np.int64).reshape(count, k, e, ws + deg, cols)
        acc %= p
        tab[:, step + 2, step + 1 :, :e, : ws + deg] = np.diagonal(
            acc[:, step + 1 :], axis1=1, axis2=4).transpose(0, 3, 1, 2)
        src = acc[:, :h, :, :, 1:]

    for n in range(1, k + 1):
        width = n * deg + 1
        # new[i] = sum_j t[i-j] vec[j] for i <= n.  A slot holds (digit,
        # T-degree) with strides (width, 1); t[i-j] * vec[j] has T-degree
        # <= i*deg < width and digit degree <= 2e-2 < e2, so slots 0..n are
        # exact and only the discarded slots above n can spill.
        v = np.zeros((count, n, e2, width))
        v[:, :, :e, : vec.shape[3]] = vec
        size = (n + 1) * e2 * width
        tf = tab[:, : n + 1, n - 1, :, :width].reshape(count, size)
        vf = v.reshape(count, n * e2 * width)
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
    out = from_digits(vec.transpose(0, 2, 1), ctx.char, ctx.e)
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
