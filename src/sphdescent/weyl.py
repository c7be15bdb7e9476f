"""Weyl group computations: orbits and conjugacy of root subsets.

An orbit is enumerated from its dominant member, read on the pairings
p_j = <mu, alpha_j^vee> alone, held as tuples: s_i changes only the p_j in
the support of column i of the Cartan matrix A, at most four of them in
every type.  The start vector descends to the dominant chamber, a
fundamental domain (Humphreys, Reflection Groups and Coxeter Groups, 1.12),
and the orbit is the tree in which s_i mu is a child of mu when p_i > 0 and
i is the least index with a negative pairing at s_i mu, that is when
p_j >= p_i A[j][i] for every j < i.  Every element but the dominant one has
exactly one parent, so no element is produced twice.  Where the simple
coroots are the unit vectors of X, as in every simply connected semisimple
datum, the coordinates of mu are its pairings, and the orbit is the set of
pairing tuples; in any other basis the walk carries mu too, changing only
its entries in the support of alpha_i.  Vectors stay in integers when the
start vector is integral and in exact rationals otherwise.
Every root is W-conjugate to a simple root (Humphreys, Introduction to Lie
Algebras and Representation Theory, 10.3), so R is the union of their orbits.
Conjugacy of root subsets first compares two W-invariant integer statistics
of the form B(x, y) = sum over coroots c of <x, c><y, c>, which answers "not
conjugate" without a search whenever they differ.  Otherwise it searches the
orbit of one subset breadth-first, keeping the first word that reaches each
image, and stops at the other: the word it returns is the lexicographically
first reduced word of the first element in the breadth-first order of W that
maps one subset onto the other (the argument is in `are_weyl_conjugate`).
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from functools import lru_cache
from itertools import combinations

from .intlinalg import IntMatrix, _exact, vec_dot
from .rootdata import (WEYL_CAP, BasedRootDatum, CapExceeded, WeylElement, _root_count,
                       _times_reflection, check_cap)

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
    k = len(cartan)
    # the nonzero entries of alpha_i and of column i of A, (<alpha_i, alpha_j^vee>)_j
    alphas = [[(x, a) for x, a in enumerate(alpha) if a] for alpha in brd.simple_roots]
    cols = [[(j, row[i]) for j, row in enumerate(cartan) if row[i]] for i in range(k)]
    # (j, A[j][i]) for j < i: the pairing of s_i mu with alpha_j^vee is p_j - p_i A[j][i]
    lower = [[(j, cartan[j][i]) for j in range(i)] for i in range(k)]
    p = [vec_dot(mu, cov) for cov in brd.simple_coroots]
    # descend: s_i with <mu, alpha_i^vee> < 0 moves mu up by a positive multiple of alpha_i
    while (i := next((j for j, c in enumerate(p) if c < 0), None)) is not None:
        c = p[i]
        for x, a in alphas[i]:
            mu[x] -= c * a
        for j, a in cols[i]:
            p[j] -= c * a
    # with alpha_i^vee = e_i the coordinates are the pairings: carry p alone
    carried = brd.simple_coroots != tuple(
        tuple(int(i == j) for j in range(brd.rank)) for i in range(brd.rank))
    top = (tuple(mu), tuple(p)) if carried else (tuple(p),) * 2
    orbit = [top[0]]
    stack = [top]
    while stack:
        mu, p = stack.pop()
        for i, c in enumerate(p):
            if c <= 0:
                continue
            for j, a in lower[i]:
                if p[j] < c * a:
                    break  # p_j < 0 at s_i mu: its parent is s_j of it for a j < i
            else:
                q = list(p)
                for j, a in cols[i]:
                    q[j] -= c * a
                q = tuple(q)
                if carried:
                    nu = list(mu)
                    for x, a in alphas[i]:
                        nu[x] -= c * a
                    nu = tuple(nu)
                else:
                    nu = q
                orbit.append(nu)
                if len(orbit) > cap:
                    raise CapExceeded(f"orbit exceeded cap {cap}")
                stack.append((nu, q))
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


@lru_cache(maxsize=128)
def _simple_reflections(brd: BasedRootDatum) -> tuple[dict, ...]:
    """s_i on the roots, one map {beta: s_i beta} for each simple root."""
    roots, maps = roots_and_coroots(brd)[0], []
    for alpha, cov in zip(brd.simple_roots, brd.simple_coroots):
        image = {}
        for beta in roots:
            c = vec_dot(beta, cov)
            image[beta] = tuple(x - c * a for x, a in zip(beta, alpha)) if c else beta
        maps.append(image)
    return tuple(maps)


def are_weyl_conjugate(brd: BasedRootDatum, a: RootSubset, b: RootSubset,
                       cap: int = WEYL_CAP) -> WeylElement | None:
    """First Weyl element (in the order of `weyl_elements`) mapping a to b.

    Returns None when the subsets are not conjugate.  After the form
    statistics, a breadth-first search walks the orbit of b: a state T is
    reached by the word (i_1, ..., i_k) when s_ik ... s_i1 b = T, that is
    w^-1 b = T for w = s_i1 ... s_ik, and each state keeps the first word
    that reaches it.  By induction on k, states are reached in the
    lexicographic order of their words within one length, so each state keeps
    the lexicographically first shortest w with w^-1 b = T.  `weyl_elements`
    yields W by length and, within one length, in the lexicographic order of
    lexicographically first reduced words (Björner and Brenti, Combinatorics
    of Coxeter Groups, ch. 3), and records that word.  So the word with which
    the search first reaches a is the word of the first element of W mapping
    a to b: the same witness, word and matrix, as a walk of W, and reduced.
    Raises CapExceeded when the search would hold more than cap states; it
    holds at most |W b| <= |W|.
    """
    if a.brd != brd or b.brd != brd:
        raise ValueError("subsets belong to a different root datum")
    source, target = a.roots, b.roots
    if (len(source) != len(target)
            or _form_statistics(brd, source) != _form_statistics(brd, target)):
        return None
    check_cap(cap)
    word = () if source == target else _orbit_search(brd, source, target, cap)
    if word is None:
        return None
    matrix = IntMatrix.identity(brd.rank)
    for i in word:
        matrix = IntMatrix(brd.rank, brd.rank, _times_reflection(brd, matrix, i))
    return WeylElement(matrix, word)


def _orbit_search(brd: BasedRootDatum, source: frozenset, target: frozenset,
                  cap: int) -> tuple | None:
    """The first word reaching source in the breadth-first search of the
    orbit of target, or None when source is not in that orbit."""
    reflections = _simple_reflections(brd)
    words = {target: ()}
    frontier = [target]
    while frontier:
        nxt = []
        for state in frontier:
            for i, s in enumerate(reflections):
                image = frozenset(map(s.__getitem__, state))
                if image in words:
                    continue
                words[image] = words[state] + (i,)
                if len(words) > cap:
                    raise CapExceeded(f"conjugacy walk exceeded cap {cap}")
                if image == source:
                    return words[image]
                nxt.append(image)
        frontier = nxt
    return None
