"""Combinatorial invariants of spherical homogeneous spaces.

The invariants of such a space are its weight lattice (a sublattice of the
character lattice X), its valuation cone (in V, the rational dual of the
weight lattice), and the images of its colors in V paired with their
simple-root supports, split by the number of preimages (one or two).  By
Losev's uniqueness theorem the invariants determine the space, so equality
of invariants and their preservation under a finite automorphism action are
the decidable heart of the descent questions this package answers.  Lattices
and cones are stored in canonical form, so equality is `==`.

Horospherical spaces are covered by the simpler datum (I, M): a set of
simple roots and a lattice of characters orthogonal to it.

Coordinates in V are always taken in the basis dual to the canonical Hermite
basis of the weight lattice, so the pairing of a weight-lattice member
(written in its Hermite coordinates) with a V-vector is the dot product.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from math import gcd, lcm

from .cones import RationalCone, _simple_indices
from .intlinalg import Lattice, _exact, vec_dot
from .rootdata import BRDAutomorphism, BasedRootDatum
from .staraction import GaloisAction, dual_matrix_on_V, restrict_to_sublattice


@dataclass(frozen=True)
class RationalLattice:
    """Finitely generated subgroup of Q^n: (1/denominator) times a lattice.

    The stored form is canonical: the denominator is the least d such that
    d times the group is a group of integer vectors.
    """

    denominator: int
    lattice: Lattice

    def __post_init__(self):
        if self.denominator < 1:
            raise ValueError("denominator must be positive")
        content = reduce(gcd, (x for row in self.lattice.basis.entries for x in row), 0)
        g = gcd(self.denominator, content)
        if g > 1:
            object.__setattr__(self, "denominator", self.denominator // g)
            object.__setattr__(self, "lattice", Lattice.from_rows(
                self.lattice.ambient_rank,
                [tuple(x // g for x in row) for row in self.lattice.basis.entries]))

    @classmethod
    def from_generators(cls, ambient_rank: int, vectors,
                        denominator: int = 1) -> "RationalLattice":
        """1/denominator times the group the vectors generate: entries read by
        `_exact`, rows scaled by the lcm of the non-int ones' denominators."""
        rows = [tuple(map(_exact, v)) for v in vectors]
        d = lcm(*(x.denominator for row in rows for x in row if type(x) is not int))
        if d > 1:
            rows = [tuple(x.numerator * (d // x.denominator) for x in row) for row in rows]
        return cls(d * denominator, Lattice.from_rows(ambient_rank, rows))

    @property
    def ambient_rank(self) -> int:
        return self.lattice.ambient_rank

    @property
    def rank(self) -> int:
        return self.lattice.rank

    @property
    def is_integral(self) -> bool:
        return self.denominator == 1


@dataclass(frozen=True)
class SphericalInvariants:
    """Weight lattice, valuation cone, and color images of a spherical space."""

    brd: BasedRootDatum
    weight_lattice: Lattice
    valuation_cone: RationalCone
    omega1: frozenset
    omega2: frozenset

    def __post_init__(self):
        object.__setattr__(self, "omega1", frozenset(self.omega1))
        object.__setattr__(self, "omega2", frozenset(self.omega2))
        if self.weight_lattice.ambient_rank != self.brd.rank:
            raise ValueError("weight lattice must sit inside the character lattice")
        if self.valuation_cone.ambient_dim != self.weight_lattice.rank:
            raise ValueError("valuation cone must live in the dual of the "
                             "weight lattice")
        nsimple = len(self.brd.simple_roots)
        for rec in self.omega1 | self.omega2:
            if len(rec.rho) != self.weight_lattice.rank:
                raise ValueError("color image dimension mismatch")
            if any(i >= nsimple for i in rec.sigma):
                raise ValueError("color support must consist of simple roots")
        if self.omega1 & self.omega2:
            raise ValueError("a color pair cannot have both one and two preimages")


@dataclass(frozen=True)
class HorosphericalDatum:
    """A set of simple-root indices I and a character group M orthogonal to it."""

    simple_subset: frozenset
    characters: RationalLattice

    def __post_init__(self):
        object.__setattr__(self, "simple_subset", _simple_indices(self.simple_subset))


def validate_horospherical(brd: BasedRootDatum, datum: HorosphericalDatum) -> list[str]:
    """Soft validation: orthogonality of M against I, and M inside X."""
    warnings = []
    nsimple = len(brd.simple_roots)
    for i in sorted(datum.simple_subset):
        if i >= nsimple:
            warnings.append(f"index {i} does not name a simple root")
    if datum.characters.ambient_rank != brd.rank:
        warnings.append("character group does not live in the character lattice")
        return warnings
    for row in datum.characters.lattice.basis.entries:
        for i in sorted(datum.simple_subset):
            if i < nsimple and vec_dot(row, brd.simple_coroots[i]) != 0:
                warnings.append(
                    f"generator {row} pairs nontrivially with coroot {i}")
    if not datum.characters.is_integral:
        warnings.append(
            f"characters have denominator {datum.characters.denominator}, "
            "so some generators lie outside the character lattice")
    return warnings


LATTICE_MOVED = "moves the weight lattice"


@dataclass(frozen=True)
class PreservationVerdict:
    """What one automorphism moves, in the trace's words and order.

    For spherical invariants a moved weight lattice is the one problem, as
    the action on V is then undefined; otherwise the valuation cone, the
    single- and the double-preimage colors.  For a horospherical datum the
    simple-root subset, then the character group.
    """

    problems: tuple

    @property
    def ok(self) -> bool:
        return not self.problems


def preserves_invariants(action: GaloisAction, element: BRDAutomorphism,
                         inv: SphericalInvariants | HorosphericalDatum
                         ) -> PreservationVerdict:
    """Does one automorphism keep the spherical invariants (weight lattice,
    cone and color sets) or the horospherical datum (I and M)?"""
    if isinstance(inv, HorosphericalDatum):
        if max(inv.simple_subset, default=-1) >= len(action.brd.simple_roots):
            raise ValueError("subset members must index the simple roots")
        # M = L/d in canonical form: g(M) = M exactly when g keeps L
        moved = frozenset(element.s_perm[i] for i in inv.simple_subset)
        return PreservationVerdict(tuple(p for ok, p in (
            (moved == inv.simple_subset, "moves the simple-root subset"),
            (restrict_to_sublattice(element, inv.characters.lattice) is not None,
             "moves the character group")) if not ok))
    if action.brd != inv.brd:
        raise ValueError("action and invariants belong to different root data")
    dual = dual_matrix_on_V(element, inv.weight_lattice)
    if dual is None:
        return PreservationVerdict((LATTICE_MOVED,))
    # g acts on V by the inverse transpose of its restriction N, so g^-1 by N^T
    cone = inv.valuation_cone
    inverse = restrict_to_sublattice(element, inv.weight_lattice).transpose()
    # g.V = V exactly when g.V and g^-1.V both lie in V
    v_ok = all(cone.contains(dual.apply(x)) and cone.contains(inverse.apply(x))
               for x in cone.generators())
    o1 = frozenset(r.image(dual, element.s_perm) for r in inv.omega1)
    o2 = frozenset(r.image(dual, element.s_perm) for r in inv.omega2)
    return PreservationVerdict(tuple(p for ok, p in (
        (v_ok, "moves the valuation cone"),
        (o1 == inv.omega1, "moves the single-preimage colors"),
        (o2 == inv.omega2, "moves the double-preimage colors")) if not ok))
