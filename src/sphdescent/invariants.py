"""Combinatorial invariants of spherical homogeneous spaces.

The invariants of such a space are its weight lattice (a sublattice of the
character lattice X), its valuation cone (in V, the rational dual of the
weight lattice), and the images of its colors in V paired with their
simple-root supports, split by the number of preimages (one or two).  By
Losev's uniqueness theorem the invariants determine the space, so equality
of invariants and their preservation under a finite automorphism action are
the decidable heart of the descent questions this package answers.

Horospherical spaces are covered by the simpler datum (I, M): a set of
simple roots and a lattice of characters orthogonal to it.

Coordinates in V are always taken in the basis dual to the canonical Hermite
basis of the weight lattice, so the pairing of a weight-lattice member
(written in its Hermite coordinates) with a V-vector is the dot product.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from math import gcd

from .cones import RationalCone, cones_equal
from .intlinalg import IntMatrix, Lattice, vec_dot
from .rootdata import BRDAutomorphism, BasedRootDatum
from .staraction import GaloisAction, dual_matrix_on_V


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
    def from_generators(cls, ambient_rank: int, vectors) -> "RationalLattice":
        rows = [tuple(Fraction(x) for x in v) for v in vectors]
        d = 1
        for row in rows:
            for x in row:
                d = d * x.denominator // gcd(d, x.denominator)
        scaled = [tuple(int(x * d) for x in row) for row in rows]
        return cls(d, Lattice.from_rows(ambient_rank, scaled))

    @property
    def ambient_rank(self) -> int:
        return self.lattice.ambient_rank

    @property
    def rank(self) -> int:
        return self.lattice.rank

    @property
    def is_integral(self) -> bool:
        return self.denominator == 1

    def generators(self) -> tuple:
        d = Fraction(1, self.denominator)
        return tuple(tuple(x * d for x in row) for row in self.lattice.basis.entries)

    def contains(self, v) -> bool:
        scaled = tuple(Fraction(x) * self.denominator for x in v)
        return scaled in self.lattice

    def apply(self, m: IntMatrix) -> "RationalLattice":
        return RationalLattice(self.denominator, self.lattice.apply(m))


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
            if any(i < 0 or i >= nsimple for i in rec.sigma):
                raise ValueError("color support must consist of simple roots")
        if self.omega1 & self.omega2:
            raise ValueError("a color pair cannot have both one and two preimages")


def invariants_equal(a: SphericalInvariants, b: SphericalInvariants) -> bool:
    """Losev-style equality: lattice, cone (as a set), and both color sets."""
    if a.brd != b.brd:
        raise ValueError("invariants belong to different root data")
    if a.weight_lattice != b.weight_lattice:
        return False
    return (cones_equal(a.valuation_cone, b.valuation_cone)
            and a.omega1 == b.omega1 and a.omega2 == b.omega2)


@dataclass(frozen=True)
class PreservationVerdict:
    """Per-invariant outcome for one automorphism.

    When the weight lattice moves (x_ok false) the action on V is undefined,
    so the remaining flags are None rather than booleans.
    """

    x_ok: bool
    v_ok: bool | None
    omega1_ok: bool | None
    omega2_ok: bool | None

    @property
    def all_ok(self) -> bool:
        return bool(self.x_ok and self.v_ok and self.omega1_ok and self.omega2_ok)


def preserves_invariants(action: GaloisAction, element: BRDAutomorphism,
                         inv: SphericalInvariants) -> PreservationVerdict:
    """Does one automorphism fix the weight lattice, cone, and color sets?"""
    if action.brd != inv.brd:
        raise ValueError("action and invariants belong to different root data")
    dual = dual_matrix_on_V(element, inv.weight_lattice)
    if dual is None:
        return PreservationVerdict(False, None, None, None)
    cone, inverse = inv.valuation_cone, dual.inverse_unimodular()
    # g.V = V exactly when g.V and g^-1.V both lie in V
    v_ok = all(cone.contains(dual.apply(x)) and cone.contains(inverse.apply(x))
               for x in cone.generators())
    o1 = frozenset(r.image(dual, element.s_perm) for r in inv.omega1)
    o2 = frozenset(r.image(dual, element.s_perm) for r in inv.omega2)
    return PreservationVerdict(True, v_ok, o1 == inv.omega1, o2 == inv.omega2)


@dataclass(frozen=True)
class HorosphericalDatum:
    """A set of simple-root indices I and a character group M orthogonal to it."""

    simple_subset: frozenset
    characters: RationalLattice

    def __post_init__(self):
        object.__setattr__(self, "simple_subset",
                           frozenset(int(i) for i in self.simple_subset))


def validate_horospherical(brd: BasedRootDatum, datum: HorosphericalDatum) -> list[str]:
    """Soft validation: orthogonality of M against I, and M inside X."""
    warnings = []
    nsimple = len(brd.simple_roots)
    for i in sorted(datum.simple_subset):
        if i < 0 or i >= nsimple:
            warnings.append(f"index {i} does not name a simple root")
    if datum.characters.ambient_rank != brd.rank:
        warnings.append("character group does not live in the character lattice")
        return warnings
    for row in datum.characters.lattice.basis.entries:
        for i in sorted(datum.simple_subset):
            if 0 <= i < nsimple and vec_dot(row, brd.simple_coroots[i]) != 0:
                warnings.append(
                    f"generator {row} pairs nontrivially with coroot {i}")
    if not datum.characters.is_integral:
        warnings.append(
            f"characters have denominator {datum.characters.denominator}, "
            "so some generators lie outside the character lattice")
    return warnings
