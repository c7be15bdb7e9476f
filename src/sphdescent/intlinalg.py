"""Exact integer linear algebra: matrices, normal forms, lattices, abelian groups.

Everything here is arbitrary-precision integer or rational arithmetic; no
floating point is used anywhere.  One rule, `_exact`, reads an exact number
as an int when it is integral and as a Fraction otherwise; the parser, the
CLI, colors, root subsets and Weyl orbits read numbers through it.  Two
eliminations do all of the linear algebra.  `hnf` is the row Hermite
normal form, with no transform.  It gives lattice bases; kernels, as the
rows of HNF([M^T | I]) with zero left block are (0, u) for u in a Hermite
basis of the kernel of M (Cohen, A Course in Computational Algebraic Number
Theory, 2.4); and invariant factors, as `snf` alternates row and column
HNFs.  `solve_fraction_free` solves a square system as an integer
numerator over a determinant; it gives inverses, adjugates, rational
solutions, singularity and unimodularity (|det| = 1, with an empty
right-hand block).  Lattices are subgroups of Z^n stored by a canonical
row Hermite basis, so syntactic equality of the stored form decides
mathematical equality.  Finitely generated abelian groups are cokernel
presentations read through their invariant factors; no Smith coordinates
or transforms are kept.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from math import gcd, lcm
from operator import mul


Vec = tuple[int, ...]


def vec_neg(a):
    return tuple(-x for x in a)


def vec_dot(a, b):
    return sum(map(mul, a, b))


def vec_is_zero(a) -> bool:
    return all(x == 0 for x in a)


def _int_vec(v) -> Vec:
    """v as ints; ValueError naming an entry that is not an integer."""
    v = tuple(v)
    out = tuple(map(int, v))
    if out != v:
        raise ValueError(f"entry {next(x for x in v if x != int(x))} is not an integer")
    return out


def _exact(x):
    """x as an int when integral, else as a Fraction; equal and hashed alike."""
    if type(x) is int:
        return x
    f = Fraction(x)
    return f.numerator if f.denominator == 1 else f


def vec_integral(v) -> tuple[int, ...]:
    """A positive integer multiple of a rational vector; itself if integral."""
    if all(type(x) is int for x in v):
        return tuple(v)
    fv = [Fraction(x) for x in v]
    mult = lcm(*(x.denominator for x in fv))
    return tuple(int(x * mult) for x in fv)


def vec_primitive(v) -> tuple[int, ...] | None:
    """Scale a rational vector to a primitive integer vector, same direction."""
    iv = vec_integral(v)
    g = gcd(*iv)
    if g == 0:
        return None
    return iv if g == 1 else tuple(x // g for x in iv)


def solve_fraction_free(a, r) -> tuple[int, list[list[int]]]:
    """Solve a @ X == r for a square integer matrix a without fractions.

    Returns (d, d X) with d = +-det(a): one fraction-free Gauss-Jordan pass
    over [a | r] keeps every entry the latest pivot times the true one, and
    the last pivot is +-det(a), so the right block ends as d X in integers.
    A row whose pivot-column entry is 0 is left as it is when the pivot
    equals the previous one, as its update (p x - 0 y) / p is the identity;
    identity, permutation and block systems then cost O(n^2).
    Returns (0, []) when a is singular.
    """
    n = len(a)
    aug = [list(row) + list(rhs) for row, rhs in zip(a, r)]
    det = 1
    for c in range(n):
        piv = next((i for i in range(c, n) if aug[i][c]), None)
        if piv is None:
            return 0, []
        aug[c], aug[piv] = aug[piv], aug[c]
        p, prow = aug[c][c], aug[c]
        for i in range(n):
            f = aug[i][c]
            if i != c and (f or p != det):
                aug[i] = [(p * x - f * y) // det for x, y in zip(aug[i], prow)]
        det = p
    return det, [row[n:] for row in aug]


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
        rows = tuple(map(_int_vec, rows))
        if cols is None:
            if not rows:
                raise ValueError("cannot infer width of an empty matrix")
            cols = len(rows[0])
        return cls(len(rows), cols, rows)

    @classmethod
    @lru_cache(maxsize=128)  # immutable, so one shared matrix per size
    def identity(cls, n: int) -> "IntMatrix":
        return cls(n, n, tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)))

    def column(self, j: int) -> Vec:
        return tuple(r[j] for r in self.entries)

    def transpose(self) -> "IntMatrix":
        return IntMatrix(self.cols, self.rows,
                         tuple(tuple(self.entries[i][j] for i in range(self.rows))
                               for j in range(self.cols)))

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise ValueError("shape mismatch")
        ot = tuple(zip(*other.entries)) or ((),) * other.cols  # zip of no rows has no columns
        return IntMatrix(self.rows, other.cols,
                         tuple(tuple(sum(map(mul, r, c)) for c in ot) for r in self.entries))

    def apply(self, v) -> tuple:
        """Matrix times column vector; accepts int or Fraction entries."""
        if len(v) != self.cols:
            raise ValueError("vector length mismatch")
        return tuple(sum(map(mul, r, v)) for r in self.entries)

    def __sub__(self, other: "IntMatrix") -> "IntMatrix":
        return IntMatrix(self.rows, self.cols,
                         tuple(tuple(a - b for a, b in zip(ra, rb))
                               for ra, rb in zip(self.entries, other.entries)))

    def is_unimodular(self) -> bool:
        """|det| = 1, read off the last pivot of solve_fraction_free."""
        return (self.rows == self.cols
                and solve_fraction_free(self.entries, [()] * self.rows)[0] in (1, -1))

    def inverse_unimodular(self) -> "IntMatrix":
        """Exact inverse of a unimodular matrix (stays integral): the
        solve_fraction_free pivot against the identity is +-1."""
        n = self.rows
        det, inv = (solve_fraction_free(self.entries, IntMatrix.identity(n).entries)
                    if self.cols == n else (0, []))
        if det not in (1, -1):
            raise ValueError("matrix is not unimodular")
        return IntMatrix(n, n, tuple(tuple(det * x for x in row) for row in inv))


def hnf(m: IntMatrix) -> IntMatrix:
    """Row Hermite normal form: pivots positive, entries above each pivot
    reduced into [0, pivot), zero rows last."""
    nr, nc = m.rows, m.cols
    rows = [list(r) for r in m.entries]
    r = 0
    for c in range(nc):
        while True:
            nz = [i for i in range(r, nr) if rows[i][c] != 0]
            if not nz:
                break
            i0 = min(nz, key=lambda i: (abs(rows[i][c]), i))
            rows[r], rows[i0] = rows[i0], rows[r]
            prow, p = rows[r], rows[r][c]
            done = True
            for i in range(r + 1, nr):
                if rows[i][c] != 0:
                    q = rows[i][c] // p
                    rows[i] = [a - q * b for a, b in zip(rows[i], prow)]
                    if rows[i][c] != 0:
                        done = False
            if done:
                break
        if r < nr and rows[r][c] != 0:
            if rows[r][c] < 0:
                rows[r] = [-x for x in rows[r]]
            prow, p = rows[r], rows[r][c]
            for i in range(r):
                q = rows[i][c] // p
                if q:
                    rows[i] = [a - q * b for a, b in zip(rows[i], prow)]
            r += 1
            if r == nr:
                break
    return IntMatrix(nr, nc, tuple(tuple(x) for x in rows))


def snf(m: IntMatrix) -> Vec:
    """Invariant factors of m: the min(rows, cols) diagonal entries of its
    Smith normal form, a divisibility chain with zeros last.

    Row HNFs of m and of its transpose, taken in turn, end with at most one
    nonzero entry in each row and column (Kannan and Bachem, SIAM J. Comput.
    8 (1979)); diag(a, b) ~ diag(gcd(a, b), lcm(a, b)) sorts those pivots
    into the chain.
    """
    h = hnf(m)
    while any(sum(1 for x in r if x) > 1 for r in h.entries):
        h = hnf(h.transpose())
    d = [x for r in h.entries for x in r if x]
    for i in range(len(d)):
        for j in range(i + 1, len(d)):
            g = gcd(d[i], d[j])
            d[i], d[j] = g, d[i] * d[j] // g
    return tuple(d + [0] * (min(m.rows, m.cols) - len(d)))


@dataclass(frozen=True)
class Lattice:
    """Subgroup of Z^ambient_rank with canonical Hermite-basis rows.

    Two lattices are equal exactly when their stored bases are identical.
    """

    ambient_rank: int
    basis: IntMatrix  # row HNF, no zero rows

    @classmethod
    def from_rows(cls, ambient_rank: int, rows) -> "Lattice":
        rows = [_int_vec(r) for r in rows]
        if any(len(r) != ambient_rank for r in rows):
            raise ValueError("generator length does not match ambient rank")
        if not rows:
            return cls(ambient_rank, IntMatrix(0, ambient_rank, ()))
        h = hnf(IntMatrix.from_rows(rows, ambient_rank))
        kept = tuple(r for r in h.entries if not vec_is_zero(r))
        return cls(ambient_rank, IntMatrix(len(kept), ambient_rank, kept))

    @classmethod
    def full(cls, ambient_rank: int) -> "Lattice":
        return cls(ambient_rank, IntMatrix.identity(ambient_rank))

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


def kernel_lattice(m: IntMatrix) -> Lattice:
    """Saturated lattice {x in Z^cols : m @ x == 0}, from one HNF of [m^T | I]."""
    k, n = m.rows, m.cols
    cols = zip(*m.entries) if k else ((),) * n
    h = hnf(IntMatrix(n, k + n, tuple(c + (0,) * j + (1,) + (0,) * (n - 1 - j)
                                      for j, c in enumerate(cols))))
    rows = tuple(r[k:] for r in h.entries if vec_is_zero(r[:k]))
    return Lattice(n, IntMatrix(len(rows), n, rows))


# -- finitely generated abelian groups ---------------------------------------


@dataclass(frozen=True)
class FgAbelianGroup:
    """Cokernel presentation Z^cols / (row span of presentation).

    Generators are the columns, relations the rows.  Elements are integer
    coefficient vectors.  The group is Z/d_1 + ... + Z/d_n for its invariant
    factors d_i, a d_i of 0 meaning a free summand.
    """

    presentation: IntMatrix

    @property
    def ngens(self) -> int:
        return self.presentation.cols

    @cached_property
    def relation_lattice(self) -> Lattice:
        return Lattice.from_rows(self.ngens, self.presentation.entries)

    @cached_property
    def invariant_factors(self) -> Vec:
        diag = snf(self.presentation)
        return diag + (0,) * (self.ngens - len(diag))

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

    Each matrix must be an automorphism of the group (`is_automorphism`);
    this is not checked again here.  Works by solving (A - id) x ∈ relations
    over Z (a kernel computation on a block matrix), then presenting the
    preimage lattice modulo the relations.
    """
    n = group.ngens
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
