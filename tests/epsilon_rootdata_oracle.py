"""Reference root-datum builder in classical epsilon coordinates (test oracle).

This is the construction `sphdescent.rootdata` used before it moved to the
integer Cartan-matrix search: simple roots are seeded as exact rational
vectors in an ambient Euclidean space, the root system is closed under
reflections there, and every root and coroot is written in the chosen basis
of X by a `Fraction` solve.  It is kept only so the tests can compare the
integer engine against an independent derivation.

The diagram-automorphism layer that went with it is kept here too: the lift
of a simple-root permutation by one `Fraction` solve per row, the
automorphism test that maps every root and coroot, and the scan over all k!
permutations of S for the Cartan-preserving ones.  The D4 quadruples of
pairwise orthogonal roots are counted here too, orthogonality read in the
epsilon realization.  Every root, coroot and reflection these read comes
from the oracle's own tables, never from the library's datum.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, permutations

from elimination_oracle import bareiss_det, solve_exact
from sphdescent.intlinalg import IntMatrix


def _dot(a, b):
    return sum(x * y for x, y in zip(a, b))


def vec_sub(a, b):
    return tuple(x - y for x, y in zip(a, b))


def epsilon_simple_roots(letter: str, rank: int) -> list[tuple[Fraction, ...]]:
    F = Fraction

    def e(i, m):
        return tuple(F(int(j == i)) for j in range(m))

    if letter == "A":
        m = rank + 1
        return [vec_sub(e(i, m), e(i + 1, m)) for i in range(rank)]
    if letter == "B":
        out = [vec_sub(e(i, rank), e(i + 1, rank)) for i in range(rank - 1)]
        out.append(e(rank - 1, rank))
        return out
    if letter == "C":
        out = [vec_sub(e(i, rank), e(i + 1, rank)) for i in range(rank - 1)]
        out.append(tuple(2 * x for x in e(rank - 1, rank)))
        return out
    if letter == "D":
        out = [vec_sub(e(i, rank), e(i + 1, rank)) for i in range(rank - 1)]
        out.append(tuple(x + y for x, y in zip(e(rank - 2, rank), e(rank - 1, rank))))
        return out
    if letter == "E":
        half = F(1, 2)
        roots8 = [(half, -half, -half, -half, -half, -half, -half, half),
                  tuple(x + y for x, y in zip(e(0, 8), e(1, 8)))]
        roots8 += [vec_sub(e(i, 8), e(i - 1, 8)) for i in range(1, 7)]
        return roots8[:rank]
    if letter == "F":
        half = F(1, 2)
        return [vec_sub(e(1, 4), e(2, 4)), vec_sub(e(2, 4), e(3, 4)), e(3, 4),
                (half, -half, -half, -half)]
    if letter == "G":
        return [vec_sub(e(0, 3), e(1, 3)), (F(-2), F(1), F(1))]
    raise ValueError(f"unknown type {letter!r}")


def _reflect(x, alpha):
    c = 2 * _dot(x, alpha) / _dot(alpha, alpha)
    return tuple(xi - c * ai for xi, ai in zip(x, alpha))


def _generate_roots(simple):
    roots = set(simple)
    frontier = list(simple)
    while frontier:
        nxt = []
        for beta in frontier:
            for alpha in simple:
                img = _reflect(beta, alpha)
                if img not in roots:
                    roots.add(img)
                    nxt.append(img)
        frontier = nxt
    return roots


@dataclass(frozen=True)
class EpsilonDatum:
    """The tables the old builder produced, plus its derived ones."""

    components: tuple
    rank: int
    realization: tuple      # ambient_dim x rank, Fraction entries
    roots: tuple
    coroots: tuple
    simple_roots: tuple
    simple_coroots: tuple
    torus_coords: tuple = ()

    @property
    def cartan_matrix(self):
        k = len(self.simple_roots)
        return tuple(tuple(_dot(self.simple_roots[j], self.simple_coroots[i])
                           for j in range(k)) for i in range(k))

    @property
    def positive_roots(self):
        if not self.simple_roots:
            return ()
        k = len(self.simple_roots)
        rows = [[Fraction(self.simple_roots[j][i]) for j in range(k)]
                for i in range(self.rank)]
        return tuple(beta for beta in self.roots
                     if all(c >= 0 for c in solve_exact(rows, beta)))

    def to_epsilon(self, v):
        return tuple(sum(Fraction(row[j]) * v[j] for j in range(self.rank))
                     for row in self.realization)


def orthogonal_quadruples(eps: EpsilonDatum) -> list[frozenset]:
    """Sets {±b1, ..., ±b4} of pairwise orthogonal roots, in X-coordinates,
    found by a scan of the 4-subsets of R+ with orthogonality read in the
    epsilon realization."""
    found = set()
    for combo in combinations(eps.positive_roots, 4):
        vecs = [eps.to_epsilon(r) for r in combo]
        if all(_dot(a, b) == 0 for a, b in combinations(vecs, 2)):
            found.add(frozenset(combo) | frozenset(tuple(-x for x in r) for r in combo))
    return sorted(found, key=sorted)


def build(letter: str, rank: int, isogeny: str = "simply_connected",
          lattice_basis=None) -> EpsilonDatum:
    simple_eps = epsilon_simple_roots(letter, rank)
    ambient = len(simple_eps[0])
    cartan = [[2 * _dot(simple_eps[j], simple_eps[i]) / _dot(simple_eps[i], simple_eps[i])
               for j in range(rank)] for i in range(rank)]
    if isogeny == "adjoint":
        basis_eps = [list(col) for col in zip(*simple_eps)]
    else:
        fw_cols = []
        for i in range(rank):
            coeffs = solve_exact(cartan, [Fraction(int(j == i)) for j in range(rank)])
            fw_cols.append(tuple(sum(coeffs[k] * simple_eps[k][d] for k in range(rank))
                                 for d in range(ambient)))
        basis_eps = [[fw_cols[j][d] for j in range(rank)] for d in range(ambient)]
        if isogeny == "custom_lattice":
            b = IntMatrix.from_rows(lattice_basis, rank)
            if b.rows != rank or bareiss_det(b) == 0:
                raise ValueError("lattice_basis must be square and nonsingular")
            basis_eps = [[sum(Fraction(b.entries[i][k]) * fw_cols[k][d] for k in range(rank))
                          for i in range(rank)] for d in range(ambient)]
    realization = tuple(tuple(Fraction(x) for x in row) for row in basis_eps)

    def x_coords(vec_eps):
        sol = solve_exact(realization, vec_eps)
        if sol is None or any(c.denominator != 1 for c in sol):
            raise ValueError("chosen lattice does not contain the root lattice")
        return tuple(int(c) for c in sol)

    def covec_coords(vec_eps):
        norm = _dot(vec_eps, vec_eps)
        cov = tuple(2 * x / norm for x in vec_eps)
        out = []
        for j in range(rank):
            val = _dot((realization[d][j] for d in range(ambient)), cov)
            if val.denominator != 1:
                raise ValueError("coroot is not integral on the chosen lattice")
            out.append(int(val))
        return tuple(out)

    all_eps = sorted(_generate_roots(tuple(simple_eps)))
    pairs = sorted((x_coords(beta), covec_coords(beta)) for beta in all_eps)
    return EpsilonDatum(
        components=((letter, rank),), rank=rank, realization=realization,
        roots=tuple(r for r, _ in pairs), coroots=tuple(c for _, c in pairs),
        simple_roots=tuple(x_coords(v) for v in simple_eps),
        simple_coroots=tuple(covec_coords(v) for v in simple_eps))


def torus(rank: int) -> EpsilonDatum:
    ident = tuple(tuple(Fraction(int(i == j)) for j in range(rank)) for i in range(rank))
    return EpsilonDatum(components=(("torus", rank),) if rank else (), rank=rank,
                        realization=ident, roots=(), coroots=(), simple_roots=(),
                        simple_coroots=(), torus_coords=tuple(range(rank)))


def direct_sum(a: EpsilonDatum, b: EpsilonDatum) -> EpsilonDatum:
    n, m = a.rank, b.rank

    def padl(v):
        return tuple(v) + (0,) * m

    def padr(v):
        return (0,) * n + tuple(v)

    realization = tuple(tuple(row) + (Fraction(0),) * m for row in a.realization) + \
        tuple((Fraction(0),) * n + tuple(row) for row in b.realization)
    pairs = sorted([(padl(r), padl(c)) for r, c in zip(a.roots, a.coroots)]
                   + [(padr(r), padr(c)) for r, c in zip(b.roots, b.coroots)])
    return EpsilonDatum(
        components=a.components + b.components, rank=n + m, realization=realization,
        roots=tuple(r for r, _ in pairs), coroots=tuple(c for _, c in pairs),
        simple_roots=tuple(map(padl, a.simple_roots)) + tuple(map(padr, b.simple_roots)),
        simple_coroots=tuple(map(padl, a.simple_coroots)) + tuple(map(padr, b.simple_coroots)),
        torus_coords=a.torus_coords + tuple(n + i for i in b.torus_coords))


def reflection(eps: EpsilonDatum, root) -> IntMatrix:
    """s_beta on X: x -> x - <x, beta^vee> beta, beta^vee read off the table."""
    cor = dict(zip(eps.roots, eps.coroots))[root]
    n = eps.rank
    return IntMatrix.from_rows(
        [[int(i == j) - root[i] * cor[j] for j in range(n)] for i in range(n)], n)


def weyl_group_by_products(eps: EpsilonDatum):
    """W as (matrix, word) pairs, breadth-first by full products with the
    simple reflection matrices, in the canonical order of the library."""
    gens = [reflection(eps, alpha) for alpha in eps.simple_roots]
    ident = IntMatrix.identity(eps.rank)
    seen = {ident}
    out = [(ident, ())]
    frontier = [(ident, ())]
    while frontier:
        nxt = []
        for m, word in frontier:
            for i, s in enumerate(gens):
                prod = m @ s
                if prod not in seen:
                    seen.add(prod)
                    nxt.append((prod, word + (i,)))
        out += nxt
        frontier = nxt
    return out


def conjugate_by_full_scan(group, a, b):
    """First (matrix, word) of `group` mapping root set a onto b, or None."""
    for m, word in group:
        if frozenset(m.apply(r) for r in a) == frozenset(b):
            return m, word
    return None


# -- diagram automorphisms, checked on every root ------------------------------------

def as_brd_automorphism_on_all_roots(eps: EpsilonDatum, m):
    """(m, s_perm) when the unimodular m maps R onto R, each coroot (through
    m^-T) to the coroot of the image root, and S onto S; otherwise None."""
    if m.rows != eps.rank or m.cols != eps.rank or bareiss_det(m) not in (1, -1):
        return None
    inv_t = m.inverse_unimodular().transpose()
    index = {r: i for i, r in enumerate(eps.roots)}
    for beta, cov in zip(eps.roots, eps.coroots):
        img = m.apply(beta)
        if img not in index or inv_t.apply(cov) != eps.coroots[index[img]]:
            return None
    s_index = {r: i for i, r in enumerate(eps.simple_roots)}
    s_perm = []
    for alpha in eps.simple_roots:
        img = m.apply(alpha)
        if img not in s_index:
            return None
        s_perm.append(s_index[img])
    return m, tuple(s_perm)


def lift_s_permutation_by_rows(eps: EpsilonDatum, perm):
    """(matrix, s_perm) of the lift of a Cartan-preserving permutation of S,
    or None: M restricted to the semisimple coordinates solves M S = S_perm
    one row at a time over Q, the identity on the torus block."""
    k = len(eps.simple_roots)
    perm = tuple(perm)
    if sorted(perm) != list(range(k)):
        raise ValueError("not a permutation of the simple roots")
    cartan = [[_dot(a, c) for a in eps.simple_roots] for c in eps.simple_coroots]
    if any(cartan[perm[i]][perm[j]] != cartan[i][j] for i in range(k) for j in range(k)):
        return None
    semis = [i for i in range(eps.rank) if i not in set(eps.torus_coords)]
    if len(semis) != k and k > 0:
        return None
    n = eps.rank
    rows = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    if k:
        sub = [[Fraction(eps.simple_roots[j][i]) for j in range(k)] for i in semis]
        img = [[Fraction(eps.simple_roots[perm[j]][i]) for j in range(k)] for i in semis]
        for ri, i in enumerate(semis):
            coeffs = solve_exact([list(col) for col in zip(*sub)], img[ri])
            if coeffs is None:
                return None
            for rj, j in enumerate(semis):
                rows[i][j] = coeffs[rj]
    if any(x.denominator != 1 for row in rows for x in row):
        return None
    return as_brd_automorphism_on_all_roots(eps, IntMatrix.from_rows(rows, n))


def dynkin_automorphisms_by_scan(brd, lift):
    """(automorphisms, skipped) by a scan over all k! permutations of S in
    lexicographic order: each Cartan-preserving one is lifted by `lift`, and
    skipped, with a reason, when the lift is None."""
    k = len(brd.simple_roots)
    cartan = [[_dot(a, c) for a in brd.simple_roots] for c in brd.simple_coroots]
    autos, skipped = [], []
    for perm in permutations(range(k)):
        if any(cartan[perm[i]][perm[j]] != cartan[i][j] for i in range(k) for j in range(k)):
            continue
        lifted = lift(brd, perm)
        if lifted is None:
            skipped.append((perm, "permutation does not stabilize the chosen lattice"))
        else:
            autos.append(lifted)
    return tuple(autos), tuple(skipped)
