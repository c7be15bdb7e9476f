"""Verdict engine for equivariant descent of spherical homogeneous spaces.

Combines three layers of evidence into one verdict with a full trace:

1. Invariance: every Galois generator must preserve the combinatorial
   invariants (or the horospherical datum).  Failure here is conclusive in
   the negative; invariance is a necessary condition for a form to exist.
2. Hypotheses: base-field largeness, characteristic zero, and the
   self-normalizing-normalizer condition are user assertions, each recorded
   in the trace.  An unresolved hypothesis yields an inconclusive verdict.
3. Form type: a quasi-split form plus the hypotheses gives existence
   outright; otherwise existence is equivalent to the vanishing of a
   cohomological obstruction, and the engine reports whichever sufficient
   vanishing condition applies or an honest "exists iff the obstruction
   vanishes" when none does.
"""
from dataclasses import dataclass

from .cohomology import (
    CharacterMap,
    MultiplicativeTypeModule,
    ObstructionVerdict,
    obstruction_verdict,
)
from .cones import (
    ColoredCone,
    is_gamma_stable,
    is_valid_fan,
    is_wonderful,
    wonderful_fan,
)
from .invariants import (
    HorosphericalDatum,
    SphericalInvariants,
    preserves_invariants,
)
from .rootdata import BasedRootDatum
from .staraction import GaloisAction, action_on_simple_subset

FORM_EXISTS = "form_exists"
NO_FORM = "no_form"
EXISTS_IFF = "exists_iff_obstruction_vanishes"
INCONCLUSIVE = "inconclusive"

NECESSITY = "combinatorial-invariance-necessity"
QUASI_SPLIT_DESCENT = "quasi-split-descent"
HOROSPHERICAL_CRITERION = "horospherical-criterion"
OBSTRUCTION_DESCENT = "obstruction-vanishing-descent"
TITS_CRITERION = "tits-class-obstruction-criterion"

NORMALIZER_REASONS = ("AssertedTrue", "ByHorospherical", "BySymmetric", "Unknown")
BASE_FIELDS = ("p_adic", "real", "large_other")

_NORMALIZER_DETAIL = {
    "AssertedTrue": "asserted directly",
    "ByHorospherical": "horospherical subgroups have self-normalizing normalizer",
    "BySymmetric": "symmetric subgroups have self-normalizing normalizer",
    "Unknown": "unresolved",
}


@dataclass(frozen=True)
class HypothesisSet:
    """User assertions about the base field, the form, and the normalizer."""

    field_is_large: bool = False
    char_zero: bool = False
    form_is_quasi_split: bool = False
    normalizer_self_normalizing: str = "Unknown"
    base_field: str = "large_other"

    def __post_init__(self):
        if self.normalizer_self_normalizing not in NORMALIZER_REASONS:
            raise ValueError(
                f"normalizer assertion must be one of {NORMALIZER_REASONS}")
        if self.base_field not in BASE_FIELDS:
            raise ValueError(f"base field must be one of {BASE_FIELDS}")


@dataclass(frozen=True)
class CohomologyInputs:
    """Optional character-level data for the obstruction route."""

    kappa: CharacterMap | None = None
    a_module: MultiplicativeTypeModule | None = None


@dataclass(frozen=True)
class TraceEntry:
    check: str
    ok: bool
    detail: str = ""


@dataclass(frozen=True)
class Verdict:
    status: str
    theorem_applied: str | None
    trace: tuple
    missing: tuple = ()
    obstruction: ObstructionVerdict | None = None

    def __post_init__(self):
        object.__setattr__(self, "trace", tuple(self.trace))
        object.__setattr__(self, "missing", tuple(self.missing))
        if self.status not in (FORM_EXISTS, NO_FORM, EXISTS_IFF, INCONCLUSIVE):
            raise ValueError(f"unknown status {self.status!r}")
        # soundness guard: a positive verdict may not coexist with a failure
        if self.status == FORM_EXISTS and any(not e.ok for e in self.trace):
            raise ValueError("form_exists verdict with a failed trace entry")


def _spherical_entries(action: GaloisAction, inv: SphericalInvariants):
    entries = []
    all_ok = True
    for name, gen in zip(action.generator_names, action.generators):
        v = preserves_invariants(action, gen, inv)
        problems = []
        if not v.x_ok:
            problems.append("moves the weight lattice")
        else:
            if not v.v_ok:
                problems.append("moves the valuation cone")
            if not v.omega1_ok:
                problems.append("moves the single-preimage colors")
            if not v.omega2_ok:
                problems.append("moves the double-preimage colors")
        ok = not problems
        all_ok = all_ok and ok
        entries.append(TraceEntry(
            f"invariants preserved by generator '{name}'", ok,
            "; ".join(problems) if problems else "lattice, cone, and colors fixed"))
    return all_ok, entries


def _horospherical_entries(action: GaloisAction, datum: HorosphericalDatum):
    entries = []
    all_ok = True
    for name, gen in zip(action.generator_names, action.generators):
        problems = []
        moved = action_on_simple_subset(action, datum.simple_subset, gen)
        if moved != datum.simple_subset:
            problems.append("moves the simple-root subset")
        if datum.characters.apply(gen.matrix) != datum.characters:
            problems.append("moves the character group")
        ok = not problems
        all_ok = all_ok and ok
        entries.append(TraceEntry(
            f"invariants preserved by generator '{name}'", ok,
            "; ".join(problems) if problems else "subset and characters fixed"))
    return all_ok, entries


def invariance_entries(action: GaloisAction, invariants):
    """Per-generator preservation trace for either invariants flavor.

    Returns (all_ok, entries).  Generator-level preservation extends to the
    whole closure, so this decides invariance under the full finite image.
    """
    if isinstance(invariants, HorosphericalDatum):
        return _horospherical_entries(action, invariants)
    if isinstance(invariants, SphericalInvariants):
        return _spherical_entries(action, invariants)
    raise TypeError("invariants must be spherical invariants or a "
                    "horospherical datum")


def _check_cohomology_names(action: GaloisAction, coh: CohomologyInputs):
    modules = []
    if coh.a_module is not None:
        modules.append(coh.a_module)
    if coh.kappa is not None:
        modules.extend([coh.kappa.source, coh.kappa.target])
    for m in modules:
        if m.generator_names != action.generator_names:
            raise ValueError(
                f"cohomology data names generators {m.generator_names}, "
                f"but the action has {action.generator_names}")


def verdict(brd: BasedRootDatum, action: GaloisAction, invariants,
            hyps: HypothesisSet, coh: CohomologyInputs | None = None) -> Verdict:
    """Decide whether an equivariant form of the homogeneous space exists.

    `invariants` is either a SphericalInvariants or a HorosphericalDatum.
    The trace records every check performed, in generator order followed by
    hypothesis order.
    """
    if action.brd != brd:
        raise ValueError("action was built for a different root datum")
    horospherical = isinstance(invariants, HorosphericalDatum)
    if isinstance(invariants, SphericalInvariants) and invariants.brd != brd:
        raise ValueError("invariants belong to a different root datum")
    inv_ok, trace = invariance_entries(action, invariants)
    if hyps.normalizer_self_normalizing == "ByHorospherical" and not horospherical:
        raise ValueError("the ByHorospherical normalizer assertion requires "
                         "a horospherical datum")
    if coh is not None:
        _check_cohomology_names(action, coh)

    if not inv_ok:
        return Verdict(NO_FORM, NECESSITY, trace)

    missing = []
    trace.append(TraceEntry("field_is_large", hyps.field_is_large,
                            "asserted" if hyps.field_is_large else "not asserted"))
    if not hyps.field_is_large:
        missing.append("field_is_large")
    trace.append(TraceEntry("char_zero", hyps.char_zero,
                            "asserted" if hyps.char_zero else "not asserted"))
    if not hyps.char_zero:
        missing.append("char_zero")
    norm_ok = hyps.normalizer_self_normalizing != "Unknown"
    trace.append(TraceEntry("normalizer_self_normalizing", norm_ok,
                            _NORMALIZER_DETAIL[hyps.normalizer_self_normalizing]))
    if not norm_ok:
        missing.append("normalizer_self_normalizing")

    if missing:
        return Verdict(INCONCLUSIVE, None, trace, tuple(missing))

    if hyps.form_is_quasi_split:
        trace.append(TraceEntry("form_is_quasi_split", True, "asserted"))
        label = HOROSPHERICAL_CRITERION if horospherical else QUASI_SPLIT_DESCENT
        return Verdict(FORM_EXISTS, label, trace)

    kappa = coh.kappa if coh is not None else None
    a_module = coh.a_module if coh is not None else None
    ov = obstruction_verdict(False, kappa=kappa, a_module=a_module,
                             base_field=hyps.base_field)
    if ov.vanishes:
        trace.append(TraceEntry("obstruction vanishes", True, ov.reason))
        return Verdict(FORM_EXISTS, OBSTRUCTION_DESCENT, trace, obstruction=ov)
    trace.append(TraceEntry("obstruction vanishes", False,
                            f"{ov.status} ({ov.reason})"))
    return Verdict(EXISTS_IFF, TITS_CRITERION, trace, obstruction=ov)


@dataclass(frozen=True)
class WonderfulReport:
    """Fan-side report: validity, wonderfulness, and Galois stability."""

    fan_valid: bool
    wonderful: bool
    stable: bool
    violating_generator: str | None
    problems: tuple
    violating_cone: ColoredCone | None


def wonderful_stability_report(invariants: SphericalInvariants,
                               action: GaloisAction) -> WonderfulReport:
    """Build the face fan of the valuation cone and test it end to end."""
    fan = wonderful_fan(invariants.valuation_cone)
    validity = is_valid_fan(fan, invariants.valuation_cone)
    wonderful = is_wonderful(fan, invariants.valuation_cone)
    stability = is_gamma_stable(fan, action, invariants.weight_lattice)
    return WonderfulReport(validity.ok, wonderful, stability.stable,
                           stability.violating_generator, validity.problems,
                           stability.violating_cone)
