"""Based root data with chosen character lattices, built in integers.

An irreducible type is given by its Cartan matrix A[i][j] =
<alpha_j, alpha_i^vee>, read off the Dynkin diagram in Bourbaki numbering.
The build writes the simple roots and coroots in a fixed basis of the
character lattice X, so that the pairing between X and its dual is the dot
product: in the simply connected datum (basis the fundamental weights)
alpha_i is column i of A and alpha_i^vee the unit vector e_i; in the adjoint
datum (basis the simple roots) alpha_i is e_i and alpha_i^vee row i of A.

That based datum is all a datum stores.  The roots are the Weyl orbits of
the simple roots, in every lattice and every direct sum alike, and
`weyl.roots_and_coroots` walks them.

Automorphisms are decided on S alone: a unimodular m permuting the simple
roots and, compatibly, the simple coroots normalises W, so it preserves R and
the root-coroot bijection.  A diagram automorphism lifts as a permutation
matrix when it preserves the block of the simple coroots, as it does in the
simply connected and adjoint bases, and otherwise by one elimination.  Data
are immutable: build_root_datum interns up to 128 simply connected and adjoint
ones, so each builds its Cartan matrix and lifts once.  A datum keeps the
lift of each Cartan-preserving permutation (or None) and reads it before any
test; a datum with no torus block also keeps the order of each generator set
staraction closed.  Its simple roots span X over Q, so there an automorphism
is fixed by its simple-root permutation, and both are bounded by the
diagram's automorphism group.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

from .intlinalg import IntMatrix, Vec, _int_vec, solve_fraction_free, vec_dot


class CapExceeded(RuntimeError):
    """An enumeration guardrail was hit before the computation finished."""


def check_cap(cap):
    """Refuse a cap below 1: it is a wrong argument, not a cap hit."""
    if cap < 1:
        raise ValueError(f"cap must be a positive integer, got {cap}")


WEYL_CAP = 10 ** 7
# Bound on max(|R|, rank) * rank: a datum's root set, or a torus's matrix
# on X.  No argument or option changes it.
ROOT_TABLE_CAP = 10 ** 6


def _root_count(letter: str, rank: int) -> int:
    """|R| for an irreducible type, in closed form; ValueError if there is none."""
    n = rank
    ok, need, count = {
        "A": (n >= 1, ">= 1", n * (n + 1)), "B": (n >= 2, ">= 2", 2 * n * n),
        "C": (n >= 2, ">= 2", 2 * n * n), "D": (n >= 3, ">= 3", 2 * n * (n - 1)),
        "E": (n in (6, 7, 8), "6, 7 or 8", {6: 72, 7: 126, 8: 240}.get(n)),
        "F": (n == 4, "4", 48), "G": (n == 2, "2", 12)}.get(letter, (None, None, None))
    if ok is None:
        raise ValueError(f"unknown type {letter!r}")
    if not ok:
        raise ValueError(f"type {letter} needs rank {need}")
    return count


def _cartan_matrix(letter: str, n: int) -> list[list[int]]:
    """A[i][j] = <alpha_j, alpha_i^vee>, read off the Dynkin diagram in
    Bourbaki's numbering (Lie Groups and Lie Algebras, Ch. VI, plates).

    Each bond puts -1 at both ends; a double or triple bond then puts -2 or
    -3 in the row of the coroot of its short root.
    """
    bonds = [(i, i + 1) for i in range(n - 1)]
    if letter == "D":
        bonds[-1] = (n - 3, n - 1)
    elif letter == "E":
        bonds = [(0, 2), (1, 3)] + bonds[2:]
    a = [[2 * (i == j) for j in range(n)] for i in range(n)]
    for i, j in bonds:
        a[i][j] = a[j][i] = -1
    for i, j, m in {"B": [(n - 1, n - 2, 2)], "C": [(n - 2, n - 1, 2)],
                    "F": [(2, 1, 2)], "G": [(0, 1, 3)]}.get(letter, []):
        a[i][j] = -m
    return a


@dataclass(frozen=True)
class BasedRootDatum:
    """Root datum with a based root system and a fixed basis of X.

    Simple roots live in X-coordinates (integers), simple coroots in the
    dual coordinates, and the pairing is the dot product.  Equality and
    hashing compare all six fields, so a custom_lattice datum with the
    simple system of a simply connected one is still unequal to it; the
    hash, which caches keyed by a datum read on every lookup, is computed
    once.  The Cartan matrix is built on first read, unless the builder
    already holds it.
    """

    components: tuple[tuple[str, int], ...]
    isogeny: str
    rank: int
    simple_roots: tuple[Vec, ...]
    simple_coroots: tuple[Vec, ...]
    torus_coords: tuple[int, ...] = ()

    @cached_property
    def _lifts(self) -> dict:  # lift_s_permutation's answers, verified once
        return {}

    @cached_property
    def _orders(self) -> dict:  # build_action's orders, by set of s_perms
        return {}

    @cached_property
    def _hash(self) -> int:
        return hash((self.components, self.isogeny, self.rank, self.simple_roots,
                     self.simple_coroots, self.torus_coords))

    def __hash__(self) -> int:
        return self._hash

    def __getstate__(self) -> dict:
        # string hashes differ between processes: a pickle carries no hash
        return {k: v for k, v in self.__dict__.items() if k != "_hash"}

    @cached_property
    def cartan_matrix(self) -> IntMatrix:
        k = len(self.simple_roots)
        return IntMatrix.from_rows(
            [[vec_dot(self.simple_roots[j], self.simple_coroots[i]) for j in range(k)]
             for i in range(k)], k)


def _custom_simple_system(lattice_basis, cartan):
    """Simple roots and coroots in the basis whose rows are lattice_basis,
    written in fundamental-weight coordinates."""
    rank = len(cartan)
    if lattice_basis is None:
        raise ValueError("custom_lattice requires lattice_basis rows")
    b = IntMatrix.from_rows(lattice_basis, rank)
    # alpha_i has fundamental-weight coordinates A e_i, so coordinates
    # (B^T)^-1 A e_i = d^-1 (d (B^T)^-1 A) e_i; the simple roots generate the
    # root lattice, so the lattice contains it when these are integral
    d, x = (solve_fraction_free(b.transpose().entries, cartan)
            if b.rows == rank else (0, []))
    if d == 0:
        raise ValueError("lattice_basis must be square and nonsingular")
    if any(c % d for row in x for c in row):
        raise ValueError("chosen lattice does not contain the root lattice")
    return ([tuple(row[i] // d for row in x) for i in range(rank)],
            [b.column(i) for i in range(rank)])


def build_root_datum(letter: str, rank: int, isogeny: str = "simply_connected",
                     lattice_basis=None) -> BasedRootDatum:
    """Construct a based root datum of the given irreducible type.

    isogeny selects X: "simply_connected" (weight lattice), "adjoint" (root
    lattice), or "custom_lattice" with `lattice_basis` rows expressed in
    fundamental-weight coordinates (the lattice must contain all roots).
    Raises CapExceeded, before anything is built, when max(|R|, rank) * rank,
    the root set or for a torus one matrix on X, would exceed
    ROOT_TABLE_CAP, read at each call.  Equal simply connected or adjoint
    requests return one shared datum.
    """
    roots = 0 if letter == "torus" else _root_count(letter, rank)
    size = max(roots, rank) * rank
    if size > ROOT_TABLE_CAP:
        what = "root table" if roots else "matrix on X"
        raise CapExceeded(f"root datum {letter}{rank}: {what} of {size} entries "
                          f"exceeds cap {ROOT_TABLE_CAP}")
    if letter == "torus":
        return torus(rank)
    if isogeny in ("simply_connected", "adjoint"):
        return _interned_datum(letter, rank, isogeny)
    return _build(letter, rank, isogeny, lattice_basis)


def _build(letter, rank, isogeny, lattice_basis=None) -> BasedRootDatum:
    cartan = _cartan_matrix(letter, rank)
    unit = [tuple(int(i == j) for j in range(rank)) for i in range(rank)]
    if isogeny == "simply_connected":
        simple, coroots = [tuple(row[i] for row in cartan) for i in range(rank)], unit
    elif isogeny == "adjoint":
        simple, coroots = unit, [tuple(row) for row in cartan]
    elif isogeny == "custom_lattice":
        simple, coroots = _custom_simple_system(lattice_basis, cartan)
    else:
        raise ValueError(f"unknown isogeny {isogeny!r}")
    brd = BasedRootDatum(components=((letter, rank),), isogeny=isogeny, rank=rank,
                         simple_roots=tuple(simple), simple_coroots=tuple(coroots))
    # in every lattice <alpha_j, alpha_i^vee> = A[i][j]: seed the cached property
    brd.__dict__["cartan_matrix"] = IntMatrix(rank, rank, tuple(map(tuple, cartan)))
    return brd


# 128 holds all 36 irreducible types in both bases; typed=True: rank 2.0 misses
_interned_datum = lru_cache(maxsize=128, typed=True)(_build)


def torus(rank: int) -> BasedRootDatum:
    """Root datum with empty root system (a torus of the given rank)."""
    if rank < 0:
        raise ValueError("rank must be nonnegative")
    return BasedRootDatum(
        components=(("torus", rank),) if rank else (), isogeny="torus", rank=rank,
        simple_roots=(), simple_coroots=(), torus_coords=tuple(range(rank)))


def direct_sum(a: BasedRootDatum, b: BasedRootDatum) -> BasedRootDatum:
    """Product root datum on the concatenated coordinates."""
    n, m = a.rank, b.rank
    def padl(v):
        return tuple(v) + (0,) * m
    def padr(v):
        return (0,) * n + tuple(v)
    return BasedRootDatum(
        components=a.components + b.components,
        isogeny=f"{a.isogeny}+{b.isogeny}",
        rank=n + m,
        simple_roots=tuple(map(padl, a.simple_roots)) + tuple(map(padr, b.simple_roots)),
        simple_coroots=tuple(map(padl, a.simple_coroots)) + tuple(map(padr, b.simple_coroots)),
        torus_coords=a.torus_coords + tuple(n + i for i in b.torus_coords),
    )


@dataclass(frozen=True)
class WeylElement:
    """Weyl group element as a matrix on X with a reduced word in the simple
    reflections (indices into simple_roots)."""

    matrix: IntMatrix
    word: tuple[int, ...]


def _times_reflection(brd: BasedRootDatum, m: IntMatrix, i: int) -> tuple:
    """Rows of m s_i = m - (m alpha_i) (alpha_i^vee)^T."""
    return tuple(tuple(x - c * y for x, y in zip(row, brd.simple_coroots[i]))
                 for row, c in zip(m.entries, m.apply(brd.simple_roots[i])))


def weyl_elements(brd: BasedRootDatum, cap: int = WEYL_CAP):
    """Lazily enumerate the Weyl group by breadth-first search over simple
    reflections, w s_i after w.  By induction on length, elements of one
    length come in the lexicographic order of their lexicographically first
    reduced words, which are the words recorded.  Raises CapExceeded instead
    of yielding element number cap + 1, and ValueError, before the identity,
    when cap is below 1."""
    check_cap(cap)
    ident = WeylElement(IntMatrix.identity(brd.rank), ())
    seen = {ident.matrix.entries}
    yield ident
    frontier = [ident]
    while frontier:
        nxt = []
        for w in frontier:
            for i in range(len(brd.simple_roots)):
                rows = _times_reflection(brd, w.matrix, i)
                if rows in seen:
                    continue
                seen.add(rows)
                if len(seen) > cap:
                    raise CapExceeded(f"Weyl group enumeration exceeded cap {cap}")
                el = WeylElement(IntMatrix(brd.rank, brd.rank, rows), w.word + (i,))
                nxt.append(el)
                yield el
        frontier = nxt


def weyl_group(brd: BasedRootDatum, cap: int = WEYL_CAP) -> tuple[WeylElement, ...]:
    """The whole Weyl group, in the order of weyl_elements."""
    return tuple(weyl_elements(brd, cap))


@dataclass(frozen=True)
class BRDAutomorphism:
    """Automorphism of a based root datum: a unimodular matrix on X together
    with the permutation it induces on the simple roots.  `build_action`
    gives each generator the matrix of its inverse; any other automorphism
    solves for it on first read, a ValueError if m is not unimodular."""

    matrix: IntMatrix
    s_perm: tuple[int, ...]

    @cached_property
    def inverse_matrix(self) -> IntMatrix:
        return self.matrix.inverse_unimodular()


def as_brd_automorphism(brd: BasedRootDatum, m: IntMatrix) -> BRDAutomorphism | None:
    """Interpret m as an automorphism of the based root datum, or None.

    Checks only that m is unimodular, maps each simple root alpha_i to a
    simple root alpha_pi(i), and satisfies m^T alpha_pi(i)^vee = alpha_i^vee.
    That suffices: then m s_i m^-1 = s_pi(i), so m normalises W; as R = W S
    and the coroot of w alpha_i is w alpha_i^vee, m maps R onto R and the
    coroot of each root to the coroot of its image (Humphreys, Reflection
    Groups and Coxeter Groups, 1.5 and 1.14).
    """
    if m.rows != brd.rank or m.cols != brd.rank or not m.is_unimodular():
        return None
    s_index = {r: i for i, r in enumerate(brd.simple_roots)}
    s_perm = tuple(s_index.get(m.apply(alpha)) for alpha in brd.simple_roots)
    if None in s_perm:
        return None
    # m^T alpha_j^vee, entry r, is column r of m dotted with alpha_j^vee
    columns = tuple(zip(*m.entries))
    if any(tuple(vec_dot(col, brd.simple_coroots[j]) for col in columns) != cov
           for j, cov in zip(s_perm, brd.simple_coroots)):
        return None
    return BRDAutomorphism(m, s_perm)


def lift_s_permutation(brd: BasedRootDatum, perm) -> BRDAutomorphism | None:
    """Extend a Cartan-preserving permutation of the simple roots to X.

    On the semisimple coordinates the lift is M = C^-1 P C, where C holds the
    simple coroots as rows (it maps X to fundamental-weight coordinates) and
    P sends row i of C to row perm[i]; then M alpha_i = alpha_perm[i].  When
    C[perm[i]][perm[j]] == C[i][j], C commutes with P, so M = P, the
    permutation matrix e_j -> e_perm[j]: C is I in the simply connected basis
    and A in the adjoint one.  Otherwise one fraction-free elimination of
    [C | P C] gives d M with d = +-det(C).  The lift acts trivially on any
    central torus block.  Returns None when the permutation does not preserve
    the Cartan matrix or M is not integral, i.e. does not stabilize the
    chosen lattice X.  Either way the lift passes as_brd_automorphism, once:
    the answer for a Cartan-preserving permutation is kept on the datum and
    read before any test.  Entries are coerced to int first, so a stored
    answer and a fresh one accept and refuse the same inputs.
    """
    perm = _int_vec(perm)
    if perm in brd._lifts:
        return brd._lifts[perm]
    k = len(brd.simple_roots)
    if sorted(perm) != list(range(k)):
        raise ValueError("not a permutation of the simple roots")
    cartan = brd.cartan_matrix.entries
    if any(cartan[perm[i]][perm[j]] != cartan[i][j] for i in range(k) for j in range(k)):
        return None
    brd._lifts[perm] = _lift(brd, perm)
    return brd._lifts[perm]


def _lift(brd: BasedRootDatum, perm: tuple[int, ...]) -> BRDAutomorphism | None:
    k, n = len(perm), brd.rank
    semis = sorted(set(range(n)) - set(brd.torus_coords))
    if len(semis) != k and k > 0:
        return None  # lattice does not split off the torus block
    c = [[cov[j] for j in semis] for cov in brd.simple_coroots]
    if all(c[perm[i]][perm[j]] == x for i, row in enumerate(c) for j, x in enumerate(row)):
        d, dm = 1, [[int(i == perm[j]) for j in range(k)] for i in range(k)]
    else:
        pc = [c[j] for j in sorted(range(k), key=perm.__getitem__)]  # row i is c[perm^-1(i)]
        d, dm = solve_fraction_free(c, pc)
        if any(x % d for row in dm for x in row):
            return None
    rows = [[int(i == j) for j in range(n)] for i in range(n)]
    for i, row in zip(semis, dm):
        for j, x in zip(semis, row):
            rows[i][j] = x // d
    return as_brd_automorphism(brd, IntMatrix(n, n, tuple(map(tuple, rows))))

