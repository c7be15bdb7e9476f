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
from .cones import (NO_FACE_FAN, ColoredFan, FanCone, is_gamma_stable, is_valid_fan,
                    is_wonderful)
from .invariants import (
    LATTICE_MOVED,
    HorosphericalDatum,
    SphericalInvariants,
    preserves_invariants,
)
from .rootdata import WEYL_CAP, BasedRootDatum, check_cap
from .staraction import GaloisAction

FORM_EXISTS = "form_exists"
NO_FORM = "no_form"
EXISTS_IFF = "exists_iff_obstruction_vanishes"
INCONCLUSIVE = "inconclusive"

NECESSITY = "combinatorial-invariance-necessity"
QUASI_SPLIT_DESCENT = "quasi-split-descent"
HOROSPHERICAL_CRITERION = "horospherical-criterion"
OBSTRUCTION_DESCENT = "obstruction-vanishing-descent"
TITS_CRITERION = "tits-class-obstruction-criterion"

BASE_FIELDS = ("p_adic", "real", "large_other")

_NORMALIZER_DETAIL = {
    "AssertedTrue": "asserted directly",
    "ByHorospherical": "horospherical subgroups have self-normalizing normalizer",
    "BySymmetric": "symmetric subgroups have self-normalizing normalizer",
    "Unknown": "unresolved",
}
NORMALIZER_REASONS = tuple(_NORMALIZER_DETAIL)


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


def invariance_entries(action: GaloisAction, invariants):
    """Per-generator preservation trace for either invariants flavor.

    Returns (all_ok, entries).  Generator-level preservation extends to the
    whole closure, so this decides invariance under the full finite image.
    """
    if isinstance(invariants, HorosphericalDatum):
        fixed = "subset and characters fixed"
    elif isinstance(invariants, SphericalInvariants):
        fixed = "lattice, cone, and colors fixed"
    else:
        raise TypeError("invariants must be spherical invariants or a "
                        "horospherical datum")
    entries = []
    for name, gen in zip(action.generator_names, action.generators):
        problems = preserves_invariants(action, gen, invariants).problems
        entries.append(TraceEntry(f"invariants preserved by generator '{name}'",
                                  not problems, "; ".join(problems) or fixed))
    return all(e.ok for e in entries), entries


def _check_cohomology_names(action: GaloisAction, coh: CohomologyInputs):
    # a CharacterMap's target names the generators its source names
    for m in (coh.a_module, coh.kappa and coh.kappa.source):
        if m is not None and set(m.generator_names) != set(action.generator_names):
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

    norm = hyps.normalizer_self_normalizing
    missing = []
    for name, ok, detail in (
            ("field_is_large", hyps.field_is_large, None),
            ("char_zero", hyps.char_zero, None),
            ("normalizer_self_normalizing", norm != "Unknown", _NORMALIZER_DETAIL[norm])):
        trace.append(TraceEntry(name, ok, detail or ("asserted" if ok else "not asserted")))
        if not ok:
            missing.append(name)

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
    """Fan-side report: validity, wonderfulness, and Galois stability.

    `wonderful` and `stable` are None when undecided: both when a valuation
    cone with lineality has no face fan, `stable` alone without an action.
    `violating_rays` are the rays of the fan cone (for V's face fan, the one
    ray of V) that the violating generator moves off the fan; None when the
    fan is stable or the generator moves the weight lattice.
    """

    fan_valid: bool
    wonderful: bool | None
    stable: bool | None
    violating_generator: str | None
    problems: tuple
    violating_rays: tuple | None


def wonderful_stability_report(invariants: SphericalInvariants,
                               action: GaloisAction | None = None,
                               fan: ColoredFan | None = None,
                               cap: int = WEYL_CAP) -> WonderfulReport:
    """Validity, wonderfulness and, given an action, Galois stability of a
    colored fan: the given one, or else the face fan of the valuation cone,
    which for a strictly convex V is valid, wonderful, and stable exactly
    when each generator permutes V's primitive rays (tested on V's one-ray
    faces; no face is enumerated).  A V with lineality and an action that
    moves the weight lattice are negative answers with a problem.
    CapExceeded when a stated fan's cone has more than `cap` faces.
    """
    check_cap(cap)
    vcone = invariants.valuation_cone
    if fan is None and not vcone.is_strictly_convex:
        return WonderfulReport(False, None, None, None, (NO_FACE_FAN,), None)
    if fan is None:  # stability reads no parents
        valid, wonderful, problems = True, True, ()
        fan = ColoredFan(vcone.ambient_dim, vcone.rays, tuple(
            FanCone(1 << i, frozenset()) for i in range(len(vcone.rays))), ())
    else:
        validity = is_valid_fan(fan, vcone, cap)
        valid, problems = validity.ok, validity.problems
        wonderful = is_wonderful(fan, vcone)
    stable = generator = rays = None
    if action is not None:
        sv = is_gamma_stable(fan, action, invariants.weight_lattice)
        stable, generator = sv.stable, sv.violating_generator
        if sv.violating_cone is not None:
            rays = fan.rays_of(sv.violating_cone.mask)
        elif not stable:
            problems += (LATTICE_MOVED,)
    return WonderfulReport(valid, wonderful, stable, generator, problems, rays)
