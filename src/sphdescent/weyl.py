"""Weyl group computations: orbits and conjugacy of root subsets.

An orbit is enumerated from its dominant member, read on the simple system
alone: each vector carries its pairings with the simple coroots, which a
simple reflection updates by a column of the Cartan matrix.  The start
vector descends to the dominant chamber, a fundamental domain (Humphreys,
Reflection Groups and Coxeter Groups, 1.12), and the orbit is the tree in
which s_i mu is a child of mu when <mu, alpha_i^vee> > 0 and i is the least
index with a negative pairing at s_i mu; every element but the dominant one
has exactly one parent, so no element is produced twice.  Vectors stay in
integers when the start vector is integral and in exact rationals otherwise.
Conjugacy of root subsets first compares two W-invariant integer statistics
of the form B(x, y) = sum over coroots c of <x, c><y, c>, which answers "not
conjugate" without a search whenever they differ.  Otherwise it walks the
Weyl group lazily in its canonical breadth-first order and stops at the
first element mapping one subset onto the other, so returned witnesses have
minimal word length.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .intlinalg import vec_dot
from .rootdata import WEYL_CAP, BasedRootDatum, CapExceeded, WeylElement, check_cap, weyl_elements

ORBIT_CAP = 10 ** 6


@dataclass(frozen=True)
class RootSubset:
    """A subset of the roots of a fixed based root datum."""

    brd: BasedRootDatum
    roots: frozenset

    def __post_init__(self):
        bad = [r for r in self.roots if r not in self.brd.root_set]
        if bad:
            raise ValueError(f"not roots of the datum: {sorted(bad)}")


def root_subset(brd: BasedRootDatum, vectors) -> RootSubset:
    """The roots given by integral vectors; a non-integral one is refused."""
    roots = []
    for v in vectors:
        v = tuple(Fraction(x) for x in v)
        if any(x.denominator != 1 for x in v):
            raise ValueError(f"not an integral vector: ({', '.join(map(str, v))})")
        roots.append(tuple(int(x) for x in v))
    return RootSubset(brd, frozenset(roots))


def weyl_orbit(brd: BasedRootDatum, v, cap: int = ORBIT_CAP) -> frozenset:
    """Orbit of a rational vector (X-coordinates) under the Weyl group.

    Raises CapExceeded when the orbit has more than cap elements, and
    ValueError when cap is below 1.
    """
    check_cap(cap)
    mu = tuple(Fraction(x) for x in v)
    if len(mu) != brd.rank:
        raise ValueError("vector length mismatch")
    if all(x.denominator == 1 for x in mu):
        mu = tuple(int(x) for x in mu)
    simple = brd.simple_roots
    cartan = brd.cartan_matrix.entries
    cols = [tuple(row[i] for row in cartan) for i in range(len(simple))]  # <alpha_i, alpha_j^vee>
    p = tuple(vec_dot(mu, cov) for cov in brd.simple_coroots)
    # descend: s_i with <mu, alpha_i^vee> < 0 moves mu up by a positive multiple of alpha_i
    i = next((i for i, c in enumerate(p) if c < 0), None)
    while i is not None:
        c = p[i]
        mu = tuple(x - c * a for x, a in zip(mu, simple[i]))
        p = tuple(x - c * y for x, y in zip(p, cols[i]))
        i = next((i for i, c in enumerate(p) if c < 0), None)
    orbit = [mu]
    stack = [(mu, p)]
    while stack:
        mu, p = stack.pop()
        for i, c in enumerate(p):
            if c <= 0:
                continue
            q = tuple(x - c * y for x, y in zip(p, cols[i]))
            if any(x < 0 for x in q[:i]):
                continue  # its parent is s_j of it for a smaller j
            nu = tuple(x - c * a for x, a in zip(mu, simple[i]))
            orbit.append(nu)
            if len(orbit) > cap:
                raise CapExceeded(f"orbit exceeded cap {cap}")
            stack.append((nu, q))
    return frozenset(orbit)


def _form_statistics(brd: BasedRootDatum, roots):
    """Sorted B(x, x) and sorted B(x, y) over distinct pairs of the subset.

    B(x, y) is the sum over all coroots c of <x, c><y, c>.  W permutes the
    coroots, so B is W-invariant and conjugate subsets have equal statistics.
    """
    pairings = [tuple(vec_dot(x, c) for c in brd.coroots) for x in roots]
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
