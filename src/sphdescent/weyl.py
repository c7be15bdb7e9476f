"""Weyl group computations: orbits and conjugacy of root subsets.

An orbit is enumerated from its dominant member, read on the simple system
alone: each vector mu carries its pairings p_j = <mu, alpha_j^vee>, and s_i
changes only the entries of mu in the support of alpha_i and the p_j in the
support of column i of the Cartan matrix A: at most four of each in the
simply connected and adjoint bases.  The start vector descends to the
dominant chamber, a fundamental domain (Humphreys, Reflection Groups and
Coxeter Groups, 1.12), and the orbit is the tree in which s_i mu is a child
of mu when p_i > 0 and i is the least index with a negative pairing at
s_i mu.  As s_i raises each other p_j by -p_i A[j][i] >= 0, that test reads
only the negative p_j of mu, and one at a j < i that is not a neighbour of
i fails it.  Every element but the dominant one has exactly one parent, so
no element is produced twice.  Vectors stay in integers when the start
vector is integral and in exact rationals otherwise.
Every root is W-conjugate to a simple root (Humphreys, Introduction to Lie
Algebras and Representation Theory, 10.3), so R is the union of their orbits.
Conjugacy of root subsets first compares two W-invariant integer statistics
of the form B(x, y) = sum over coroots c of <x, c><y, c>, which answers "not
conjugate" without a search whenever they differ.  Otherwise it walks the
Weyl group lazily in its canonical breadth-first order and stops at the
first element mapping one subset onto the other, so returned witnesses have
minimal word length.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from functools import lru_cache
from itertools import combinations

from .intlinalg import _exact, vec_dot
from .rootdata import (WEYL_CAP, BasedRootDatum, CapExceeded, WeylElement, _root_count,
                       check_cap, weyl_elements)

ORBIT_CAP = 10 ** 6


@dataclass(frozen=True)
class RootSubset:
    """A subset of the roots of a fixed based root datum."""

    brd: BasedRootDatum
    roots: frozenset

    def __post_init__(self):
        roots = roots_and_coroots(self.brd)[0]
        bad = [r for r in self.roots if r not in roots]
        if bad:
            raise ValueError(f"not roots of the datum: {sorted(bad)}")


def root_subset(brd: BasedRootDatum, vectors) -> RootSubset:
    """The roots given by integral vectors; a non-integral one is refused."""
    roots = []
    for v in vectors:
        v = tuple(map(_exact, v))
        if any(type(x) is not int for x in v):
            raise ValueError(f"not an integral vector: ({', '.join(map(str, v))})")
        roots.append(v)
    return RootSubset(brd, frozenset(roots))


def weyl_orbit(brd: BasedRootDatum, v, cap: int = ORBIT_CAP) -> frozenset:
    """Orbit of a rational vector (X-coordinates) under the Weyl group.

    Raises CapExceeded when the orbit has more than cap elements, and
    ValueError when cap is below 1.
    """
    check_cap(cap)
    mu = list(map(_exact, v))
    if len(mu) != brd.rank:
        raise ValueError("vector length mismatch")
    if any(type(x) is not int for x in mu):
        mu = list(map(Fraction, mu))
    cartan = brd.cartan_matrix.entries
    # the nonzero entries of alpha_i and of column i of A, (<alpha_i, alpha_j^vee>)_j
    alphas = [[(x, a) for x, a in enumerate(alpha) if a] for alpha in brd.simple_roots]
    cols = [[(j, row[i]) for j, row in enumerate(cartan) if row[i]] for i in range(len(cartan))]
    def reflect(mu, p, i, c):
        """s_i in place on mu and its pairings p, where c = p[i]."""
        for x, a in alphas[i]:
            mu[x] -= c * a
        for j, a in cols[i]:
            p[j] -= c * a
    p = [vec_dot(mu, cov) for cov in brd.simple_coroots]
    # descend: s_i with <mu, alpha_i^vee> < 0 moves mu up by a positive multiple of alpha_i
    while (i := next((j for j, c in enumerate(p) if c < 0), None)) is not None:
        reflect(mu, p, i, p[i])
    orbit = [tuple(mu)]
    stack = [(orbit[0], p)]
    while stack:
        mu, p = stack.pop()
        neg = [j for j, c in enumerate(p) if c < 0]
        for i, c in enumerate(p):
            if c <= 0:
                continue
            # s_i mu keeps p_j - c A[j][i] < 0 for some j < i: not a child
            for j in neg:
                if j > i or p[j] < c * cartan[j][i]:
                    break
            else:
                j = i
            if j < i:
                continue  # its parent is s_j of it for a smaller j
            nu, q = list(mu), p[:]
            reflect(nu, q, i, c)
            orbit.append(tuple(nu))
            if len(orbit) > cap:
                raise CapExceeded(f"orbit exceeded cap {cap}")
            stack.append((orbit[-1], q))
    return frozenset(orbit)


@lru_cache(maxsize=128)
def roots_and_coroots(brd: BasedRootDatum) -> tuple[frozenset, frozenset]:
    """The roots R and the coroots of a datum, kept for the 128 data last asked.

    One walk per W-orbit: a simple root already found starts none.  The
    coroots are walked in the dual datum, with simple roots and coroots
    swapped.  An orbit has at most |R| elements, and the walks are capped at
    |R| in closed form, which the build has already checked.
    """
    size = sum(_root_count(*c) for c in brd.components if c[0] != "torus")
    sets = []
    for data in (brd, replace(brd, simple_roots=brd.simple_coroots,
                              simple_coroots=brd.simple_roots)):
        found = set()
        for alpha in data.simple_roots:
            if alpha not in found:
                found |= weyl_orbit(data, alpha, size)
        sets.append(frozenset(found))
    return tuple(sets)


def _form_statistics(brd: BasedRootDatum, roots):
    """Sorted B(x, x) and sorted B(x, y) over distinct pairs of the subset.

    B(x, y) is the sum over all coroots c of <x, c><y, c>.  W permutes the
    coroots, so B is W-invariant and conjugate subsets have equal statistics.
    """
    coroots = roots_and_coroots(brd)[1]
    pairings = [tuple(vec_dot(x, c) for c in coroots) for x in roots]
    return (sorted(vec_dot(p, p) for p in pairings),
            sorted(vec_dot(p, q) for p, q in combinations(pairings, 2)))


def are_weyl_conjugate(brd: BasedRootDatum, a: RootSubset, b: RootSubset,
                       cap: int = WEYL_CAP) -> WeylElement | None:
    """First Weyl element (in canonical enumeration order) mapping a to b.

    Returns None when the subsets are not conjugate.  The witness word is
    reduced because enumeration is breadth-first.
    """
    if a.brd != brd or b.brd != brd:
        raise ValueError("subsets belong to a different root datum")
    target = b.roots
    if (len(a.roots) != len(target)
            or _form_statistics(brd, a.roots) != _form_statistics(brd, target)):
        return None
    for w in weyl_elements(brd, cap):
        if frozenset(w.matrix.apply(r) for r in a.roots) == target:
            return w
    return None
