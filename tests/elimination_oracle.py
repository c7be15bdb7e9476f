"""The eliminations `sphdescent.intlinalg` and its callers used before they
shared one HNF and one fraction-free solve (test oracles).

Kept only so the differential tests in `test_elimination.py` can compare the
library against them, and for the other oracles that solve in `Fraction`:

* `hnf_with_transform`: the row Hermite normal form that also tracked a
  unimodular u with u @ m == h;
* `kernel_lattice_two_hnf`: the kernel as the rows of u whose rows of h are
  zero, re-reduced by a second HNF;
* `snf_with_transforms`: the Smith normal form by pivot search, tracking
  unimodular u and v with u @ m @ v == s;
* `bareiss_det`: the determinant by fraction-free Bareiss elimination;
* `SmithCoordinates` and `fixed_elements_enumerated`: canonical coordinates
  of a finitely generated abelian group from its Smith transform, and the
  brute-force fixed elements of a finite one under automorphisms;
* `solve_exact`: Gauss-Jordan elimination in `Fraction`;
* `from_epsilon_exact`: `BasedRootDatum.from_epsilon` through `solve_exact`.
"""
from fractions import Fraction
from itertools import product
from math import prod

from sphdescent.intlinalg import IntMatrix, Lattice, vec_is_zero


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
        return Lattice(ambient_rank, IntMatrix(0, ambient_rank, ()))
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


def snf_with_transforms(m: IntMatrix) -> tuple[IntMatrix, IntMatrix, IntMatrix]:
    """Smith normal form: (s, u, v) with u @ m @ v == s, s diagonal with
    nonnegative entries in a divisibility chain, u and v unimodular."""
    nr, nc = m.rows, m.cols
    a = [list(r) for r in m.entries]
    u = [[1 if i == j else 0 for j in range(nr)] for i in range(nr)]
    v = [[1 if i == j else 0 for j in range(nc)] for i in range(nc)]

    def row_op(i, j, q):
        a[i] = [x - q * y for x, y in zip(a[i], a[j])]
        u[i] = [x - q * y for x, y in zip(u[i], u[j])]

    def col_op(i, j, q):
        # col_i -= q * col_j
        for row in a:
            row[i] -= q * row[j]
        for row in v:
            row[i] -= q * row[j]

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in a:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    t = 0
    while t < min(nr, nc):
        # locate a smallest-magnitude nonzero entry in the trailing block
        best = None
        for i in range(t, nr):
            for j in range(t, nc):
                if a[i][j] != 0 and (best is None or abs(a[i][j]) < abs(a[t + best[0]][t + best[1]])):
                    best = (i - t, j - t)
        if best is None:
            break
        swap_rows(t, t + best[0])
        swap_cols(t, t + best[1])
        while True:
            for i in range(t + 1, nr):
                if a[i][t] != 0:
                    row_op(i, t, a[i][t] // a[t][t])
            if any(a[i][t] != 0 for i in range(t + 1, nr)):
                # remainder became the smaller pivot; bring it up and repeat
                i = next(i for i in range(t + 1, nr) if a[i][t] != 0)
                swap_rows(t, i)
                continue
            for j in range(t + 1, nc):
                if a[t][j] != 0:
                    col_op(j, t, a[t][j] // a[t][t])
            if any(a[t][j] != 0 for j in range(t + 1, nc)):
                j = next(j for j in range(t + 1, nc) if a[t][j] != 0)
                swap_cols(t, j)
                continue
            # pivot must divide the rest of the block
            bad = None
            for i in range(t + 1, nr):
                for j in range(t + 1, nc):
                    if a[i][j] % a[t][t] != 0:
                        bad = i
                        break
                if bad is not None:
                    break
            if bad is None:
                break
            row_op(t, bad, -1)  # add offending row, restart clearing
        if a[t][t] < 0:
            a[t] = [-x for x in a[t]]
            u[t] = [-x for x in u[t]]
        t += 1
    s = IntMatrix(nr, nc, tuple(tuple(x) for x in a))
    return s, IntMatrix(nr, nr, tuple(tuple(x) for x in u)), IntMatrix(nc, nc, tuple(tuple(x) for x in v))


def smith_diagonal(m: IntMatrix) -> tuple[int, ...]:
    s, _, _ = snf_with_transforms(m)
    return tuple(s.entries[i][i] for i in range(min(s.rows, s.cols)))


def bareiss_det(m: IntMatrix) -> int:
    """Determinant by fraction-free Bareiss elimination."""
    if m.rows != m.cols:
        raise ValueError("determinant of a non-square matrix")
    n = m.rows
    if n == 0:
        return 1
    a = [list(r) for r in m.entries]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


ENUMERATION_CAP = 10 ** 6  # guardrail for element enumeration


class SmithCoordinates:
    """Canonical coordinates of the elements of an FgAbelianGroup.

    From the Smith data u @ P^T @ v == s of the transposed presentation P,
    the change y = u @ x diagonalizes the relation subgroup; coordinate i is
    then taken modulo the i-th invariant factor (0 meaning a free one).
    """

    def __init__(self, group):
        s, u, _ = snf_with_transforms(group.presentation.transpose())
        diag = [s.entries[i][i] for i in range(min(s.rows, s.cols))]
        self.factors = tuple(diag + [0] * (group.ngens - len(diag)))
        self.u, self.u_inv = u, u.inverse_unimodular()

    def of(self, x) -> tuple[int, ...]:
        """Canonical coordinates of the element with coefficient vector x."""
        y = self.u.apply(tuple(int(c) for c in x))
        return tuple(c % d if d > 0 else c for c, d in zip(y, self.factors))

    def element(self, y) -> tuple[int, ...]:
        """A coefficient vector of the element with coordinates y."""
        return self.u_inv.apply(tuple(int(c) for c in y))

    def elements(self, cap: int = ENUMERATION_CAP) -> list[tuple[int, ...]]:
        """All elements in canonical coordinates; only for finite groups under cap."""
        if 0 in self.factors:
            raise ValueError("cannot enumerate an infinite group")
        if prod(self.factors) > cap:
            raise ValueError(f"group order {prod(self.factors)} exceeds enumeration cap {cap}")
        return list(product(*(range(d) for d in self.factors)))


def fixed_elements_enumerated(group, autos: list[IntMatrix],
                              cap: int = ENUMERATION_CAP) -> list[tuple[int, ...]]:
    """Brute-force fixed elements of a finite group, in Smith coordinates.

    Independent of fixed_points_fg; used as a cross-check oracle.
    """
    sc = SmithCoordinates(group)
    return [y for y in sc.elements(cap)
            if all(sc.of(a.apply(sc.element(y))) == y for a in autos)]


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


def from_epsilon_exact(brd, vec):
    """X-coordinates of an epsilon-coordinate vector by a `Fraction` solve."""
    sol = solve_exact(brd.realization, tuple(Fraction(x) for x in vec))
    if sol is None:
        raise ValueError("vector is not in the span of the character lattice")
    if any(x.denominator != 1 for x in sol):
        raise ValueError("vector is not in the character lattice")
    return tuple(int(x) for x in sol)
