"""Finite automorphism groups acting on a based root datum.

A Galois group acts on a based root datum through a homomorphism to its
(finite, for semisimple data) automorphism group.  We represent the action by
its image: a named generating set and the image's order, found by closing the
generators' permutations of the orbit of X's standard basis under a cap; that
capped closure is the check that the image is finite.  Simple-root
permutations are lifted by rootdata, as a permutation matrix in the simply
connected and adjoint bases and by one fraction-free elimination otherwise;
every generator, lifted or stated as a matrix, passes rootdata's test on the
simple roots and coroots, a lift once: the datum keeps it.  The closure
reads each generator's inverse off its permutation of O, with no
elimination, and keeps it on the generator.  A datum with no torus block
keeps the order of each generator set closed over it: a set seen before is
not closed again, and its stored order is compared with the cap, which the
closure exceeds exactly when the order does.  On a datum with a torus block
an automorphism is not fixed by its s_perm, so its actions are closed on
each call.

One element moves to a stable sublattice of X, or to the dual V of one, by
restrict_to_sublattice and dual_matrix_on_V, which give None when it moves
the lattice: the weight lattice, or L for a horospherical M = L/d, which g
keeps exactly when it keeps L.  It moves simple-root indices by `s_perm`.
"""
from __future__ import annotations

from dataclasses import dataclass

from .intlinalg import IntMatrix, Lattice, _int_vec
from .rootdata import (
    BasedRootDatum,
    BRDAutomorphism,
    CapExceeded,
    as_brd_automorphism,
    check_cap,
    lift_s_permutation,
)

CLOSURE_CAP = 10 ** 4


class ClosureCapExceeded(CapExceeded):
    """The generated automorphism group grew past the closure cap."""


@dataclass(frozen=True)
class GaloisAction:
    """A finite subgroup of Aut(BRD): its named generators and its order."""

    brd: BasedRootDatum
    generator_names: tuple[str, ...]
    generators: tuple[BRDAutomorphism, ...]
    order: int


def _coerce_generator(brd: BasedRootDatum, gen) -> BRDAutomorphism:
    if isinstance(gen, BRDAutomorphism):
        gen = gen.matrix
    if isinstance(gen, IntMatrix):
        out = as_brd_automorphism(brd, gen)
        if out is None:
            raise ValueError("matrix generator is not a based root datum automorphism")
        return out
    perm = tuple(gen)
    out = lift_s_permutation(brd, perm)
    if out is None:
        raise ValueError(f"simple root permutation {_int_vec(perm)} does not lift to the datum")
    return out


def build_action(brd: BasedRootDatum, generators, names=None,
                 cap: int = CLOSURE_CAP) -> GaloisAction:
    """Validate generators and find the order of the finite group they
    generate, or raise ClosureCapExceeded when it exceeds the cap.

    Each generator may be a BRDAutomorphism, an IntMatrix, or a permutation
    of simple root indices (lifted as a diagram automorphism).  An empty
    generator list yields the trivial action.  A cap below 1 is a ValueError.
    """
    check_cap(cap)
    gens = tuple(_coerce_generator(brd, g) for g in generators)
    if names is None:
        names = tuple(f"g{i}" for i in range(len(gens)))
    else:
        names = tuple(names)
        if len(names) != len(gens):
            raise ValueError("one name per generator required")
        if len(set(names)) != len(names):
            raise ValueError("generator names must be distinct")

    # a datum with no torus block keeps each generator set's order: there an
    # automorphism is fixed by its s_perm, and as |O| <= rank * order, _close
    # raises exactly when the order exceeds the cap
    orders = brd._orders if len(brd.simple_roots) == brd.rank else {}
    key = frozenset(g.s_perm for g in gens)
    order = orders.get(key)
    if order is None:
        order = orders[key] = _close(brd, gens, cap)
    elif order > cap:
        raise _too_big(cap)
    return GaloisAction(brd, names, gens, order)


def _too_big(cap: int) -> ClosureCapExceeded:
    return ClosureCapExceeded(
        f"closure exceeds {cap} elements; the action must factor through a "
        "finite group (for a torus factor, pick generators of finite order)")


def _close(brd: BasedRootDatum, gens, cap: int) -> int:
    """The order of the group gens generate, capped, and each generator's
    inverse, read off its permutation of O."""
    # O, the orbit of the standard basis, has |O| <= rank * order; generators
    # become permutations of O (a basis vector's image is a column) and act on
    # the left on elements, each keyed by the O-indices of its basis images
    n = brd.rank
    orbit = [(0,) * i + (1,) + (0,) * (n - 1 - i) for i in range(n)]
    index = {v: i for i, v in enumerate(orbit)}
    columns = [tuple(zip(*g.matrix.entries)) for g in gens]
    perms = [[] for _ in gens]
    for k, v in enumerate(orbit):
        for g, cols, perm in zip(gens, columns, perms):
            w = cols[k] if k < n else g.matrix.apply(v)
            if w not in index:
                if len(orbit) >= n * cap:
                    raise _too_big(cap)
                index[w] = len(orbit)
                orbit.append(w)
            perm.append(index[w])
    for g, perm in zip(gens, perms):
        if "inverse_matrix" not in g.__dict__:
            # g permutes O, so column j of g^-1 is the o in O with g(o) = e_j
            pre = {j: k for k, j in enumerate(perm) if j < n}
            g.__dict__["inverse_matrix"] = IntMatrix(
                n, n, tuple(zip(*(orbit[pre[j]] for j in range(n)))))
    frontier = [tuple(range(n))]
    seen = set(frontier)
    while frontier:
        nxt = []
        for p in frontier:
            for g in perms:
                prod = tuple(map(g.__getitem__, p))
                if prod not in seen:
                    if len(seen) >= cap:
                        raise _too_big(cap)
                    seen.add(prod)
                    nxt.append(prod)
        frontier = nxt
    return len(seen)


def restrict_to_sublattice(element: BRDAutomorphism, lattice: Lattice) -> IntMatrix | None:
    """Matrix of one automorphism on a sublattice L of X, in L's canonical
    basis (columns are images of basis vectors), or None if it moves L.

    Only g(L) ⊆ L is tested, one basis vector at a time: for g in GL_n(Z)
    that already gives g(L) = L.  Indeed g maps the span of L into itself,
    hence onto it, and Z^n onto itself, so it fixes the saturation S of L
    and acts on S unimodularly; then [S : g(L)] = [S : L], and g(L) ⊆ L
    forces equality.  The restriction is therefore unimodular.
    """
    return _restrict(element.matrix, lattice)


def _restrict(m: IntMatrix, lattice: Lattice) -> IntMatrix | None:
    if lattice.ambient_rank != m.rows:
        raise ValueError("lattice does not live in the character lattice")
    if lattice.is_full():  # its Hermite basis is the identity
        return m
    cols = [lattice.coordinates(m.apply(b)) for b in lattice.basis.entries]
    return None if None in cols else IntMatrix(lattice.rank, lattice.rank, tuple(zip(*cols)))


def dual_matrix_on_V(element: BRDAutomorphism, lattice: Lattice) -> IntMatrix | None:
    """One automorphism on the dual of a stable lattice, in the dual basis,
    or None if it moves the lattice.

    If it acts on the lattice by N, it acts on linear functionals by the
    inverse transpose of N, so that the evaluation pairing is preserved.
    That is the transpose of g^-1 restricted to the lattice, as g keeps the
    lattice exactly when g^-1 does: no elimination is needed.
    """
    restriction = _restrict(element.inverse_matrix, lattice)
    return None if restriction is None else restriction.transpose()
