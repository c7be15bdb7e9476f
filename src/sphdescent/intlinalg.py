"""Exact integer linear algebra: matrices, normal forms, lattices, abelian groups.

Everything here is arbitrary-precision integer or rational arithmetic; no
floating point is used anywhere.  Lattices are subgroups of Z^n stored by a
canonical row Hermite basis, so syntactic equality of the stored form decides
mathematical equality.  Finitely generated abelian groups are cokernel
presentations with Smith normal form data attached.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import product
from math import gcd


Vec = tuple[int, ...]
QVec = tuple[Fraction, ...]


def xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Return (g, x, y) with g = gcd(a, b) >= 0 and x*a + y*b == g."""
    x0, y0, x1, y1 = 1, 0, 0, 1
    while b:
        q, r = divmod(a, b)
        a, b = b, r
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    if a < 0:
        a, x0, y0 = -a, -x0, -y0
    return a, x0, y0


def vec_add(a, b):
    return tuple(x + y for x, y in zip(a, b))


def vec_sub(a, b):
    return tuple(x - y for x, y in zip(a, b))


def vec_neg(a):
    return tuple(-x for x in a)


def vec_scale(c, a):
    return tuple(c * x for x in a)


def vec_dot(a, b):
    return sum(x * y for x, y in zip(a, b))


def vec_is_zero(a) -> bool:
    return all(x == 0 for x in a)


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


@dataclass(frozen=True)
class IntMatrix:
    """Immutable integer matrix; entries stored row-major as nested tuples."""

    rows: int
    cols: int
    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if len(self.entries) != self.rows:
            raise ValueError("row count mismatch")
        for r in self.entries:
            if len(r) != self.cols:
                raise ValueError("ragged matrix")
            for x in r:
                if not isinstance(x, int):
                    raise TypeError(f"non-integer entry {x!r}")

    @classmethod
    def from_rows(cls, rows, cols: int | None = None) -> "IntMatrix":
        rows = tuple(tuple(int(x) for x in r) for r in rows)
        if cols is None:
            if not rows:
                raise ValueError("cannot infer width of an empty matrix")
            cols = len(rows[0])
        return cls(len(rows), cols, rows)

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls(n, n, tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)))

    @classmethod
    def zero(cls, rows: int, cols: int) -> "IntMatrix":
        return cls(rows, cols, tuple((0,) * cols for _ in range(rows)))

    def row(self, i: int) -> Vec:
        return self.entries[i]

    def column(self, j: int) -> Vec:
        return tuple(r[j] for r in self.entries)

    def transpose(self) -> "IntMatrix":
        return IntMatrix(self.cols, self.rows,
                         tuple(tuple(self.entries[i][j] for i in range(self.rows))
                               for j in range(self.cols)))

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise ValueError("shape mismatch")
        ot = other.transpose().entries
        return IntMatrix(self.rows, other.cols,
                         tuple(tuple(vec_dot(r, c) for c in ot) for r in self.entries))

    def apply(self, v) -> tuple:
        """Matrix times column vector; accepts int or Fraction entries."""
        if len(v) != self.cols:
            raise ValueError("vector length mismatch")
        return tuple(sum(r[j] * v[j] for j in range(self.cols)) for r in self.entries)

    def __add__(self, other: "IntMatrix") -> "IntMatrix":
        return IntMatrix(self.rows, self.cols,
                         tuple(tuple(a + b for a, b in zip(ra, rb))
                               for ra, rb in zip(self.entries, other.entries)))

    def __sub__(self, other: "IntMatrix") -> "IntMatrix":
        return IntMatrix(self.rows, self.cols,
                         tuple(tuple(a - b for a, b in zip(ra, rb))
                               for ra, rb in zip(self.entries, other.entries)))

    def __neg__(self) -> "IntMatrix":
        return IntMatrix(self.rows, self.cols, tuple(tuple(-x for x in r) for r in self.entries))

    def det(self) -> int:
        """Determinant by fraction-free Bareiss elimination."""
        if self.rows != self.cols:
            raise ValueError("determinant of a non-square matrix")
        n = self.rows
        if n == 0:
            return 1
        m = [list(r) for r in self.entries]
        sign = 1
        prev = 1
        for k in range(n - 1):
            if m[k][k] == 0:
                for i in range(k + 1, n):
                    if m[i][k] != 0:
                        m[k], m[i] = m[i], m[k]
                        sign = -sign
                        break
                else:
                    return 0
            for i in range(k + 1, n):
                for j in range(k + 1, n):
                    m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
                m[i][k] = 0
            prev = m[k][k]
        return sign * m[n - 1][n - 1]

    def is_unimodular(self) -> bool:
        return self.rows == self.cols and self.det() in (1, -1)

    def inverse_unimodular(self) -> "IntMatrix":
        """Exact inverse of a unimodular matrix (stays integral).

        Fraction-free Gauss-Jordan elimination of [M | I]: every stored entry
        is the latest pivot times the true one, and the last pivot is
        +-det(M), so for det(M) = +-1 the right block times that pivot is the
        inverse.
        """
        n = self.rows
        if self.cols != n:
            raise ValueError("matrix is not unimodular")
        aug = [list(r) + [int(i == j) for j in range(n)]
               for i, r in enumerate(self.entries)]
        det = 1
        for c in range(n):
            piv = next((i for i in range(c, n) if aug[i][c]), None)
            if piv is None:
                raise ValueError("matrix is not unimodular")
            aug[c], aug[piv] = aug[piv], aug[c]
            p, prow = aug[c][c], aug[c]
            for i in range(n):
                if i != c:
                    f = aug[i][c]
                    aug[i] = [(p * x - f * y) // det for x, y in zip(aug[i], prow)]
            det = p
        if det not in (1, -1):
            raise ValueError("matrix is not unimodular")
        return IntMatrix(n, n, tuple(tuple(det * x for x in row[n:]) for row in aug))


def _empty_like(cols: int) -> IntMatrix:
    return IntMatrix(0, cols, ())


def vstack(mats: list[IntMatrix]) -> IntMatrix:
    cols = mats[0].cols
    rows: list[Vec] = []
    for m in mats:
        if m.cols != cols:
            raise ValueError("column mismatch in vstack")
        rows.extend(m.entries)
    return IntMatrix(len(rows), cols, tuple(rows))


def hnf(m: IntMatrix) -> tuple[IntMatrix, IntMatrix]:
    """Row Hermite normal form.

    Returns (h, u) with u unimodular, u @ m == h, pivots positive, entries
    above each pivot reduced into [0, pivot), zero rows last.
    """
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


def snf(m: IntMatrix) -> tuple[IntMatrix, IntMatrix, IntMatrix]:
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


@dataclass(frozen=True)
class Lattice:
    """Subgroup of Z^ambient_rank with canonical Hermite-basis rows.

    Two lattices are equal exactly when their stored bases are identical.
    """

    ambient_rank: int
    basis: IntMatrix  # row HNF, no zero rows

    @classmethod
    def from_rows(cls, ambient_rank: int, rows) -> "Lattice":
        rows = [tuple(int(x) for x in r) for r in rows]
        for r in rows:
            if len(r) != ambient_rank:
                raise ValueError("generator length does not match ambient rank")
        if not rows:
            return cls(ambient_rank, _empty_like(ambient_rank))
        h, _ = hnf(IntMatrix.from_rows(rows, ambient_rank))
        kept = tuple(r for r in h.entries if not vec_is_zero(r))
        return cls(ambient_rank, IntMatrix(len(kept), ambient_rank, kept))

    @classmethod
    def full(cls, ambient_rank: int) -> "Lattice":
        return cls(ambient_rank, IntMatrix.identity(ambient_rank))

    @classmethod
    def zero(cls, ambient_rank: int) -> "Lattice":
        return cls(ambient_rank, _empty_like(ambient_rank))

    @property
    def rank(self) -> int:
        return self.basis.rows

    def is_full(self) -> bool:
        return self.basis == IntMatrix.identity(self.ambient_rank)

    def coordinates(self, v) -> Vec | None:
        """Integer coordinates of v in the basis rows, or None if v is outside.

        Rational input is allowed and correctly reported as outside unless it
        happens to be an integer vector of the lattice.
        """
        if len(v) != self.ambient_rank:
            raise ValueError("vector length mismatch")
        rem = [x if type(x) is int else Fraction(x) for x in v]
        coeffs = []
        for row in self.basis.entries:
            p = next(j for j, x in enumerate(row) if x != 0)
            if rem[p] % row[p] != 0:
                return None
            q = int(rem[p] // row[p])
            rem = [a - q * b for a, b in zip(rem, row)]
            coeffs.append(q)
        if any(rem):
            return None
        return tuple(coeffs)

    def __contains__(self, v) -> bool:
        return self.coordinates(v) is not None

    def apply(self, m: IntMatrix) -> "Lattice":
        """Image lattice under the column action v -> m @ v."""
        return Lattice.from_rows(self.ambient_rank, [m.apply(b) for b in self.basis.entries])

    def __add__(self, other: "Lattice") -> "Lattice":
        if self.ambient_rank != other.ambient_rank:
            raise ValueError("ambient rank mismatch")
        return Lattice.from_rows(self.ambient_rank, self.basis.entries + other.basis.entries)


def sublattice_equal(a: Lattice, b: Lattice) -> bool:
    """Equality of subgroups of the same ambient Z^n (canonical-form compare)."""
    if a.ambient_rank != b.ambient_rank:
        raise ValueError("lattices live in different ambient ranks")
    return a == b


def kernel_lattice(m: IntMatrix) -> Lattice:
    """Saturated lattice {x in Z^cols : m @ x == 0}."""
    if m.rows == 0:
        return Lattice.full(m.cols)
    h, u = hnf(m.transpose())
    rows = [u.entries[i] for i in range(h.rows) if vec_is_zero(h.entries[i])]
    return Lattice.from_rows(m.cols, rows)


def fixed_sublattice(ambient_rank: int, generators: list[IntMatrix]) -> Lattice:
    """Common fixed lattice {x : g @ x == x for all g} of unimodular generators."""
    blocks = []
    for g in generators:
        if g.rows != ambient_rank or g.cols != ambient_rank:
            raise ValueError("generator has wrong shape")
        if not g.is_unimodular():
            raise ValueError("generator is not unimodular")
        blocks.append(g - IntMatrix.identity(ambient_rank))
    if not blocks:
        return Lattice.full(ambient_rank)
    return kernel_lattice(vstack(blocks))


# -- finitely generated abelian groups ---------------------------------------

ENUMERATION_CAP = 10 ** 6  # default guardrail for element enumeration


@dataclass(frozen=True)
class FgAbelianGroup:
    """Cokernel presentation Z^cols / (row span of presentation).

    Generators are the columns, relations the rows.  Elements are integer
    coefficient vectors; Smith normal form of the relations provides canonical
    coordinates in which coordinate i is taken modulo the i-th invariant
    factor (0 meaning a free coordinate).
    """

    presentation: IntMatrix

    @property
    def ngens(self) -> int:
        return self.presentation.cols

    @cached_property
    def relation_lattice(self) -> Lattice:
        return Lattice.from_rows(self.ngens, self.presentation.entries)

    @cached_property
    def _smith(self) -> tuple[IntMatrix, IntMatrix, IntMatrix]:
        # Smith data of the transposed presentation: u @ P^T @ v == s, so the
        # coordinate change y = u @ x diagonalizes the relation subgroup.
        return snf(self.presentation.transpose())

    @cached_property
    def invariant_factors(self) -> Vec:
        s, _, _ = self._smith
        n = self.ngens
        diag = [s.entries[i][i] for i in range(min(s.rows, s.cols))]
        return tuple(diag + [0] * (n - len(diag)))

    @property
    def free_rank(self) -> int:
        return sum(1 for d in self.invariant_factors if d == 0)

    def is_finite(self) -> bool:
        return self.free_rank == 0

    def is_trivial(self) -> bool:
        return all(d == 1 for d in self.invariant_factors)

    def order(self) -> int | None:
        if not self.is_finite():
            return None
        out = 1
        for d in self.invariant_factors:
            out *= d
        return out

    def smith_coords(self, x) -> Vec:
        """Canonical coordinates of the element with coefficient vector x."""
        _, u, _ = self._smith
        y = u.apply(tuple(int(c) for c in x))
        return tuple(c % d if d > 0 else c for c, d in zip(y, self.invariant_factors))

    def from_smith(self, y) -> Vec:
        _, u, _ = self._smith
        return u.inverse_unimodular().apply(tuple(int(c) for c in y))

    def elements_eq(self, x, y) -> bool:
        return self.smith_coords(x) == self.smith_coords(y)

    def elements(self, cap: int = ENUMERATION_CAP):
        """All elements in Smith coordinates; only for finite groups under cap."""
        if not self.is_finite():
            raise ValueError("cannot enumerate an infinite group")
        n = self.order()
        assert n is not None
        if n > cap:
            raise ValueError(f"group order {n} exceeds enumeration cap {cap}")
        return list(product(*(range(d) for d in self.invariant_factors)))

    def endomorphism_descends(self, m: IntMatrix) -> bool:
        if m.rows != self.ngens or m.cols != self.ngens:
            return False
        rel = self.relation_lattice
        return all(m.apply(r) in rel for r in self.presentation.entries)

    def is_automorphism(self, m: IntMatrix) -> bool:
        """True when m descends and induces a bijection (f.g. groups are Hopfian,
        so surjectivity suffices)."""
        if not self.endomorphism_descends(m):
            return False
        span = Lattice.from_rows(self.ngens,
                                 [m.column(j) for j in range(self.ngens)]
                                 + list(self.presentation.entries))
        return span.is_full()


def fixed_points_fg(group: FgAbelianGroup, autos: list[IntMatrix]) -> FgAbelianGroup:
    """Subgroup of elements fixed by every automorphism, as a presented group.

    Works by solving (A - id) x ∈ relations over Z (a kernel computation on a
    block matrix), then presenting the preimage lattice modulo the relations.
    """
    n = group.ngens
    for a in autos:
        if not group.is_automorphism(a):
            raise ValueError("matrix does not define an automorphism of the group")
    rel_rows = group.relation_lattice.basis.entries
    r = len(rel_rows)
    if not autos:
        fixed = Lattice.full(n)
    else:
        k = len(autos)
        width = n + k * r
        block_rows: list[Vec] = []
        ident = IntMatrix.identity(n)
        for bi, a in enumerate(autos):
            diff = a - ident
            for i in range(n):
                row = list(diff.entries[i]) + [0] * (k * r)
                for j in range(r):
                    row[n + bi * r + j] = -rel_rows[j][i]
                block_rows.append(tuple(row))
        ker = kernel_lattice(IntMatrix.from_rows(block_rows, width))
        fixed = Lattice.from_rows(n, [row[:n] for row in ker.basis.entries])
    gens = fixed.basis.entries
    new_rel = []
    for rho in rel_rows:
        c = fixed.coordinates(rho)
        assert c is not None  # relations are always fixed-lattice members
        new_rel.append(c)
    return FgAbelianGroup(IntMatrix.from_rows(new_rel, len(gens)))


def fixed_elements_enumerated(group: FgAbelianGroup, autos: list[IntMatrix],
                              cap: int = ENUMERATION_CAP) -> list[Vec]:
    """Brute-force fixed elements of a finite group, in Smith coordinates.

    Independent of fixed_points_fg; used as a cross-check oracle.
    """
    out = []
    for y in group.elements(cap):
        x = group.from_smith(y)
        if all(group.smith_coords(a.apply(x)) == y for a in autos):
            out.append(y)
    return out
