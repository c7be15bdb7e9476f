"""Character-level cohomology helpers.

A group of multiplicative type over the base field is recorded through its
character group: a finitely presented abelian group together with one
automorphism per Galois generator, keyed by the generator's name.  For a
*finite* such group over a p-adic base field, its degree-2 Galois cohomology
is dual to the subgroup of fixed characters, so vanishing can be decided
exactly from the presentation.

The obstruction to equivariant descent lives in the degree-2 cohomology of a
quotient A of the ambient group's simply connected center.  The obstruction
class itself is not computable from the data kept here, so the verdict type
distinguishes "provably vanishes" from "unknown" and never certifies
nonvanishing.
"""
from dataclasses import dataclass
from functools import cached_property

from .intlinalg import FgAbelianGroup, IntMatrix, fixed_points_fg


class PositiveDimensional(ValueError):
    """The duality-based vanishing test only covers finite character groups."""


@dataclass(frozen=True)
class MultiplicativeTypeModule:
    """Character group with a Galois action: generator name -> automorphism.

    The action is kept sorted by name, so modules with the same data are
    equal in any input order.  Automorphism matrices act on
    presentation-generator coefficient vectors (column convention,
    x -> m @ x) and must preserve the relation subgroup.
    """

    characters: FgAbelianGroup
    action: dict

    def __post_init__(self):
        object.__setattr__(self, "action", dict(sorted(self.action.items())))
        for name, m in self.action.items():
            if not self.characters.is_automorphism(m):
                raise ValueError(
                    f"generator {name!r} does not act by an automorphism "
                    "of the presented group")

    def __hash__(self):  # the action is a dict, so hash its items
        return hash((self.characters, tuple(self.action.items())))

    @property
    def generator_names(self) -> tuple:
        return tuple(self.action)

    @property
    def is_finite(self) -> bool:
        return self.characters.is_finite()

    @cached_property
    def fixed_characters(self) -> FgAbelianGroup:
        """The characters fixed by every generator, computed once per module."""
        return fixed_points_fg(self.characters, list(self.action.values()))


def h2_local_vanishes(module: MultiplicativeTypeModule) -> bool:
    """Vanishing of H^2 for a finite multiplicative group over a p-adic field.

    H^2 is dual to the group of fixed characters, so it is trivial exactly
    when no nontrivial character is fixed by the whole action.
    """
    if not module.is_finite:
        raise PositiveDimensional(
            "the vanishing test requires a finite character group "
            "(free rank 0); positive-dimensional targets are out of scope")
    return module.fixed_characters.is_trivial()


@dataclass(frozen=True)
class CharacterMap:
    """Equivariant homomorphism between presented character groups.

    The matrix sends source coefficient vectors to target coefficient
    vectors.  Construction validates that it descends through both
    presentations and commutes with the two actions generator by generator.
    """

    source: MultiplicativeTypeModule
    target: MultiplicativeTypeModule
    matrix: IntMatrix

    def __post_init__(self):
        m = self.matrix
        if (m.cols != self.source.characters.ngens
                or m.rows != self.target.characters.ngens):
            raise ValueError("matrix shape does not match the presentations")
        if self.source.generator_names != self.target.generator_names:
            raise ValueError("source and target must share Galois generators")
        trel = self.target.characters.relation_lattice
        for r in self.source.characters.presentation.entries:
            if m.apply(r) not in trel:
                raise ValueError("matrix does not descend through the presentations")
        for name, a in self.source.action.items():
            diff = (m @ a) - (self.target.action[name] @ m)
            for j in range(m.cols):
                if diff.column(j) not in trel:
                    raise ValueError(
                        f"matrix is not equivariant for generator {name!r}")

    def is_zero_map(self) -> bool:
        """Does the matrix induce the zero map on the quotients?"""
        trel = self.target.characters.relation_lattice
        return all(self.matrix.column(j) in trel for j in range(self.matrix.cols))


VANISHES = "vanishes"
NONVANISHING = "nonvanishing"
UNKNOWN = "unknown"

_REASONS = {
    VANISHES: {"quasi_split_form", "zero_character_map", "h2_target_trivial"},
    UNKNOWN: {"nontrivial_fixed_characters", "insufficient_data"},
    NONVANISHING: set(),  # no computable certificate exists for this status
}


@dataclass(frozen=True)
class ObstructionVerdict:
    """Truth value of "the obstruction class vanishes", with its reason."""

    status: str
    reason: str

    def __post_init__(self):
        if self.status not in _REASONS:
            raise ValueError(f"unknown status {self.status!r}")
        if self.reason not in _REASONS[self.status]:
            raise ValueError(
                f"reason {self.reason!r} is not valid for status {self.status!r}")

    @property
    def vanishes(self) -> bool:
        return self.status == VANISHES


def obstruction_verdict(form_is_quasi_split: bool,
                        kappa: CharacterMap | None = None,
                        a_module: MultiplicativeTypeModule | None = None,
                        base_field: str = "large_other") -> ObstructionVerdict:
    """Combine the implemented sufficient conditions for vanishing.

    Checked in order: a quasi-split form has trivial obstruction class; a
    zero character map kills the image; a finite target with trivial fixed
    characters over a p-adic field has trivial H^2 altogether.  Anything
    else is Unknown; Nonvanishing is never concluded from this data.
    """
    if form_is_quasi_split:
        return ObstructionVerdict(VANISHES, "quasi_split_form")
    if kappa is not None and kappa.is_zero_map():
        return ObstructionVerdict(VANISHES, "zero_character_map")
    if a_module is not None and a_module.is_finite and base_field == "p_adic":
        if h2_local_vanishes(a_module):
            return ObstructionVerdict(VANISHES, "h2_target_trivial")
        return ObstructionVerdict(UNKNOWN, "nontrivial_fixed_characters")
    return ObstructionVerdict(UNKNOWN, "insufficient_data")
