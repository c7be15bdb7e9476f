"""sphdescent: exact combinatorial descent checks for spherical homogeneous spaces.

Everything is computed over exact arithmetic (integers and fractions); there
are no tolerances anywhere.  The public surface re-exported here covers the
typical workflow: build a based root datum, present a finite Galois-type
action on its character lattice, state the combinatorial invariants of a
spherical subgroup, and ask the checker whether an equivariant form over the
small field exists.
"""

from .checker import (
    EXISTS_IFF,
    FORM_EXISTS,
    INCONCLUSIVE,
    NO_FORM,
    CohomologyInputs,
    HypothesisSet,
    TraceEntry,
    Verdict,
    WonderfulReport,
    invariance_entries,
    verdict,
    wonderful_stability_report,
)
from .cohomology import (
    CharacterMap,
    MultiplicativeTypeModule,
    ObstructionVerdict,
    PositiveDimensional,
    h2_local_vanishes,
    obstruction_verdict,
)
from .cones import (
    ColoredCone,
    ColoredFan,
    ColorRecord,
    FanCone,
    FanVerdict,
    NotStrictlyConvex,
    RationalCone,
    StabilityVerdict,
    colored_cone,
    cone_from_generators,
    cone_from_inequalities,
    cones_equal,
    faces,
    is_gamma_stable,
    is_valid_fan,
    is_wonderful,
    meet_relative_interiors,
    wonderful_fan,
)
from .intlinalg import FgAbelianGroup, IntMatrix, Lattice
from .invariants import (
    HorosphericalDatum,
    RationalLattice,
    SphericalInvariants,
    invariants_equal,
    preserves_invariants,
    validate_horospherical,
)
from .problem import Problem, ProblemError, parse_dict, parse_file, parse_text, to_json
from .rootdata import (
    BasedRootDatum,
    BRDAutomorphism,
    CapExceeded,
    build_root_datum,
    dynkin_automorphisms,
    torus,
    weyl_group,
)
from .staraction import ClosureCapExceeded, GaloisAction, build_action
from .weyl import are_weyl_conjugate, orthogonal_quadruples, root_subset, weyl_orbit

__version__ = "0.1.0"

__all__ = [
    "EXISTS_IFF",
    "FORM_EXISTS",
    "INCONCLUSIVE",
    "NO_FORM",
    "BRDAutomorphism",
    "BasedRootDatum",
    "CapExceeded",
    "CharacterMap",
    "ClosureCapExceeded",
    "CohomologyInputs",
    "ColorRecord",
    "ColoredCone",
    "ColoredFan",
    "FanCone",
    "FanVerdict",
    "FgAbelianGroup",
    "GaloisAction",
    "HorosphericalDatum",
    "HypothesisSet",
    "IntMatrix",
    "Lattice",
    "MultiplicativeTypeModule",
    "NotStrictlyConvex",
    "ObstructionVerdict",
    "PositiveDimensional",
    "Problem",
    "ProblemError",
    "RationalCone",
    "RationalLattice",
    "SphericalInvariants",
    "StabilityVerdict",
    "TraceEntry",
    "Verdict",
    "WonderfulReport",
    "are_weyl_conjugate",
    "build_action",
    "build_root_datum",
    "colored_cone",
    "cone_from_generators",
    "cone_from_inequalities",
    "cones_equal",
    "dynkin_automorphisms",
    "faces",
    "h2_local_vanishes",
    "invariance_entries",
    "invariants_equal",
    "is_gamma_stable",
    "is_valid_fan",
    "is_wonderful",
    "meet_relative_interiors",
    "obstruction_verdict",
    "orthogonal_quadruples",
    "parse_dict",
    "parse_file",
    "parse_text",
    "preserves_invariants",
    "root_subset",
    "to_json",
    "torus",
    "validate_horospherical",
    "verdict",
    "weyl_group",
    "weyl_orbit",
    "wonderful_fan",
    "wonderful_stability_report",
]
