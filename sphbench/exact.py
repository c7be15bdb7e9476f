"""Exact rational linear algebra for the benchmark's own oracles."""
from fractions import Fraction


def solve(cols, v):
    """Coefficients x with sum_j x_j cols[j] = v, or None when there are none
    or the columns are dependent.  Gauss-Jordan elimination over Q."""
    n, r = len(v), len(cols)
    m = [[Fraction(cols[j][i]) for j in range(r)] + [Fraction(v[i])]
         for i in range(n)]
    for c in range(r):
        p = next((i for i in range(c, n) if m[i][c] != 0), None)
        if p is None:
            return None
        m[c], m[p] = m[p], m[c]
        piv = m[c][c]
        m[c] = [x / piv for x in m[c]]
        for i in range(n):
            if i != c and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[c])]
    if any(m[i][r] != 0 for i in range(r, n)):
        return None
    return [m[i][r] for i in range(r)]


def inverse(a):
    """Inverse of a nonsingular square matrix given by rows."""
    n = len(a)
    cols = [[a[i][j] for i in range(n)] for j in range(n)]
    inv_cols = [solve(cols, [int(i == j) for i in range(n)]) for j in range(n)]
    return [[inv_cols[j][i] for j in range(n)] for i in range(n)]
