"""Division-free determinants over commutative rings.

The main entry point computes det(I - M U) for a square matrix M over any
commutative ring (here: polynomials over GF(q)) via the Berkowitz vector
recurrence.  No division occurs at all, which matters twice over: the entries
live in GF(q)[T] (not a field), and characteristic p forbids the usual
divide-by-integers characteristic-polynomial tricks.

Entries only need ``+``, ``-``, ``*`` and a ``zero``/``one``; ``Poly``
instances qualify.  A cofactor-expansion determinant is provided as the
small-instance brute-force oracle for tests.
"""

from __future__ import annotations

__all__ = ["det_identity_minus_mu", "det_cofactor"]


def det_identity_minus_mu(m, zero, one):
    """U-coefficient list (little-endian) of det(I - M U); leading entry 1.

    This is the Berkowitz coefficient vector v of det(xI - M), with
    v[i] the coefficient of x^(k-i) and v[0] = 1.
    """
    k = len(m)
    if k == 0:
        return [one]
    vec = [one, -m[0][0]]
    for n in range(2, k + 1):
        # principal n x n block; pivot row/col index n-1
        a = [row[: n - 1] for row in m[: n - 1]]
        r = m[n - 1][: n - 1]
        col = [m[i][n - 1] for i in range(n - 1)]
        # t = [1, -M[n-1][n-1], -R C, -R A C, ..., -R A^(n-2) C]
        t = [one, -m[n - 1][n - 1]]
        s = col
        for step in range(n - 1):
            dot = zero
            for i in range(n - 1):
                dot = dot + r[i] * s[i]
            t.append(-dot)
            if step < n - 2:
                s = [sum((a[i][j] * s[j] for j in range(n - 1)), start=zero)
                     for i in range(n - 1)]
        new = []
        for i in range(n + 1):
            acc = zero
            for j in range(max(0, i - n), min(i, n - 1) + 1):
                acc = acc + t[i - j] * vec[j]
            new.append(acc)
        vec = new
    return vec


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
