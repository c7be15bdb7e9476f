"""The eliminations `sphdescent.intlinalg` and its callers used before they
shared one HNF and one fraction-free solve (test oracles).

Kept only so the differential tests in `test_elimination.py` can compare the
library against them, and for the other oracles that solve in `Fraction`:

* `hnf_with_transform`: the row Hermite normal form that also tracked a
  unimodular u with u @ m == h;
* `kernel_lattice_two_hnf`: the kernel as the rows of u whose rows of h are
  zero, re-reduced by a second HNF;
* `solve_exact`: Gauss-Jordan elimination in `Fraction`;
* `project_off_inline`: `cones._project_off` with its own copy of the
  fraction-free Gauss-Jordan loop;
* `from_epsilon_exact`: `BasedRootDatum.from_epsilon` through `solve_exact`.
"""
from fractions import Fraction

from sphdescent.cones import _primitive
from sphdescent.intlinalg import IntMatrix, Lattice, vec_dot, vec_is_zero


def hnf_with_transform(m: IntMatrix) -> tuple[IntMatrix, IntMatrix]:
    """(h, u) with u unimodular, u @ m == h, h the row HNF of m."""
    nr, nc = m.rows, m.cols
    rows = [list(r) for r in m.entries]
    u = [[1 if i == j else 0 for j in range(nr)] for i in range(nr)]

    def row_op(i: int, j: int, q: int):
        # row_i -= q * row_j
        rows[i] = [a - q * b for a, b in zip(rows[i], rows[j])]
        u[i] = [a - q * b for a, b in zip(u[i], u[j])]

    r = 0
    for c in range(nc):
        while True:
            nz = [i for i in range(r, nr) if rows[i][c] != 0]
            if not nz:
                break
            i0 = min(nz, key=lambda i: (abs(rows[i][c]), i))
            if i0 != r:
                rows[r], rows[i0] = rows[i0], rows[r]
                u[r], u[i0] = u[i0], u[r]
            done = True
            for i in range(r + 1, nr):
                if rows[i][c] != 0:
                    q = rows[i][c] // rows[r][c]
                    row_op(i, r, q)
                    if rows[i][c] != 0:
                        done = False
            if done:
                break
        if r < nr and rows[r][c] != 0:
            if rows[r][c] < 0:
                rows[r] = [-x for x in rows[r]]
                u[r] = [-x for x in u[r]]
            p = rows[r][c]
            for i in range(r):
                q = rows[i][c] // p
                if q:
                    row_op(i, r, q)
            r += 1
            if r == nr:
                break
    h = IntMatrix(nr, nc, tuple(tuple(x) for x in rows))
    return h, IntMatrix(nr, nr, tuple(tuple(x) for x in u))


def lattice_from_rows(ambient_rank: int, rows) -> Lattice:
    """Lattice.from_rows through the transform-tracking HNF."""
    rows = [tuple(r) for r in rows]
    if not rows:
        return Lattice.zero(ambient_rank)
    h, _ = hnf_with_transform(IntMatrix.from_rows(rows, ambient_rank))
    kept = tuple(r for r in h.entries if not vec_is_zero(r))
    return Lattice(ambient_rank, IntMatrix(len(kept), ambient_rank, kept))


def kernel_lattice_two_hnf(m: IntMatrix) -> Lattice:
    """Saturated lattice {x in Z^cols : m @ x == 0}."""
    if m.rows == 0:
        return Lattice.full(m.cols)
    h, u = hnf_with_transform(m.transpose())
    rows = [u.entries[i] for i in range(h.rows) if vec_is_zero(h.entries[i])]
    return lattice_from_rows(m.cols, rows)


def solve_exact(rows, rhs):
    """Solve (rows) @ x == rhs exactly over Q; unique solution or None.

    The coefficient matrix must have full column rank; extra equations are
    checked for consistency.
    """
    m = len(rows)
    n = len(rows[0]) if m else 0
    aug = [[Fraction(x) for x in row] + [Fraction(rhs[i])] for i, row in enumerate(rows)]
    pivots = []
    r = 0
    for c in range(n):
        piv = next((i for i in range(r, m) if aug[i][c] != 0), None)
        if piv is None:
            continue
        aug[r], aug[piv] = aug[piv], aug[r]
        pv = aug[r][c]
        aug[r] = [x / pv for x in aug[r]]
        for i in range(m):
            if i != r and aug[i][c] != 0:
                f = aug[i][c]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[r])]
        pivots.append(c)
        r += 1
        if r == m:
            break
    if len(pivots) < n:
        raise ValueError("coefficient matrix does not have full column rank")
    for i in range(r, m):
        if aug[i][n] != 0:
            return None
    x = [Fraction(0)] * n
    for i, c in enumerate(pivots):
        x[c] = aug[i][n]
    return tuple(x)


def project_off_inline(vectors, basis) -> list:
    """Primitive directions of the projections of integer vectors off the
    span of independent integer rows, adj(G) by an inline elimination."""
    k = len(basis)
    out = []
    adj = None
    for v in vectors:
        bv = [vec_dot(b, v) for b in basis]
        if not any(bv):
            out.append(_primitive(v))
            continue
        if adj is None:
            aug = [[vec_dot(a, b) for b in basis] + [int(i == j) for j in range(k)]
                   for i, a in enumerate(basis)]
            det = 1
            for p in range(k):
                piv, prow = aug[p][p], aug[p]
                for i in range(k):
                    if i != p:
                        f = aug[i][p]
                        aug[i] = [(piv * x - f * y) // det
                                  for x, y in zip(aug[i], prow)]
                det = piv
            adj = [row[k:] for row in aug]
        w = [vec_dot(row, bv) for row in adj]
        out.append(_primitive(tuple(
            det * x - sum(wi * b[j] for wi, b in zip(w, basis))
            for j, x in enumerate(v))))
    return out


def from_epsilon_exact(brd, vec):
    """X-coordinates of an epsilon-coordinate vector by a `Fraction` solve."""
    sol = solve_exact(brd.realization, tuple(Fraction(x) for x in vec))
    if sol is None:
        raise ValueError("vector is not in the span of the character lattice")
    if any(x.denominator != 1 for x in sol):
        raise ValueError("vector is not in the character lattice")
    return tuple(int(x) for x in sol)
