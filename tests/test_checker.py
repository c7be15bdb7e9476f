"""Tests for the descent verdict engine and the wonderful-fan report."""
import itertools

import pytest

from sphdescent.checker import (
    EXISTS_IFF,
    FORM_EXISTS,
    HOROSPHERICAL_CRITERION,
    INCONCLUSIVE,
    NECESSITY,
    NO_FORM,
    OBSTRUCTION_DESCENT,
    QUASI_SPLIT_DESCENT,
    TITS_CRITERION,
    CohomologyInputs,
    HypothesisSet,
    TraceEntry,
    Verdict,
    verdict,
    wonderful_stability_report,
)
from sphdescent.cohomology import CharacterMap, MultiplicativeTypeModule
from sphdescent.cones import ColorRecord, cone_from_generators, cone_from_inequalities
from sphdescent.intlinalg import FgAbelianGroup, IntMatrix, Lattice, vec_dot, vec_neg
from sphdescent.invariants import HorosphericalDatum, RationalLattice, SphericalInvariants
from sphdescent.rootdata import build_root_datum
from sphdescent.staraction import build_action


@pytest.fixture(scope="module")
def d4():
    return build_root_datum("D", 4)


@pytest.fixture(scope="module")
def triality(d4):
    return build_action(d4, [(2, 1, 3, 0)], names=("t",))


@pytest.fixture(scope="module")
def symmetric(d4):
    c = d4.cartan_matrix.entries
    al = [tuple(c[i][j] for i in range(4)) for j in range(4)]
    root_lat = Lattice.from_rows(4, al)
    vcone = cone_from_inequalities(
        4, [vec_neg(root_lat.coordinates(a)) for a in al])
    basis = root_lat.basis.entries
    omega1 = frozenset(
        ColorRecord(tuple(vec_dot(u, d4.simple_coroots[i]) for u in basis), {i})
        for i in range(4))
    return SphericalInvariants(d4, root_lat, vcone, omega1, frozenset())


def center_module():
    z22 = FgAbelianGroup(IntMatrix.from_rows([[2, 0], [0, 2]]))
    return MultiplicativeTypeModule(z22, {"t": IntMatrix.from_rows([[0, 1], [1, 1]])})


# -- the five worked verdict scenarios ------------------------------------------

def test_trialitary_quasi_split_form_exists(d4, triality, symmetric):
    hyps = HypothesisSet(True, True, True, "BySymmetric", "p_adic")
    v = verdict(d4, triality, symmetric, hyps)
    assert v.status == FORM_EXISTS
    assert v.theorem_applied == QUASI_SPLIT_DESCENT
    assert all(e.ok for e in v.trace)
    checks = [e.check for e in v.trace]
    assert checks == ["invariants preserved by generator 't'", "field_is_large",
                      "char_zero", "normalizer_self_normalizing",
                      "form_is_quasi_split"]


def test_moved_horospherical_subset_means_no_form(d4, triality):
    bad = HorosphericalDatum({0}, RationalLattice.from_generators(4, [(0, 1, 0, 0)]))
    hyps = HypothesisSet(True, True, True, "ByHorospherical", "p_adic")
    v = verdict(d4, triality, bad, hyps)
    assert v.status == NO_FORM and v.theorem_applied == NECESSITY
    assert v.trace == (TraceEntry("invariants preserved by generator 't'",
                                  False, "moves the simple-root subset"),)


def test_invariant_horospherical_datum_form_exists(d4, triality):
    good = HorosphericalDatum({1}, RationalLattice.from_generators(4, [(1, 0, 1, 1)]))
    hyps = HypothesisSet(True, True, True, "ByHorospherical", "p_adic")
    v = verdict(d4, triality, good, hyps)
    assert v.status == FORM_EXISTS
    assert v.theorem_applied == HOROSPHERICAL_CRITERION


def test_split_form_with_asserted_normalizer(d4, symmetric):
    trivial = build_action(d4, [])
    hyps = HypothesisSet(True, True, True, "AssertedTrue", "large_other")
    v = verdict(d4, trivial, symmetric, hyps)
    assert v.status == FORM_EXISTS and v.theorem_applied == QUASI_SPLIT_DESCENT


def test_non_quasi_split_with_vanishing_obstruction(d4, triality, symmetric):
    hyps = HypothesisSet(True, True, False, "BySymmetric", "p_adic")
    v = verdict(d4, triality, symmetric, hyps,
                CohomologyInputs(a_module=center_module()))
    assert v.status == FORM_EXISTS
    assert v.theorem_applied == OBSTRUCTION_DESCENT
    assert v.obstruction is not None
    assert v.obstruction.reason == "h2_target_trivial"


def test_non_quasi_split_without_data_is_exists_iff(d4, triality, symmetric):
    hyps = HypothesisSet(True, True, False, "BySymmetric", "p_adic")
    v = verdict(d4, triality, symmetric, hyps)
    assert v.status == EXISTS_IFF and v.theorem_applied == TITS_CRITERION
    assert v.obstruction.status == "unknown"
    assert v.obstruction.reason == "insufficient_data"


def test_unknown_normalizer_is_inconclusive(d4, triality, symmetric):
    hyps = HypothesisSet(True, True, True, "Unknown", "p_adic")
    v = verdict(d4, triality, symmetric, hyps)
    assert v.status == INCONCLUSIVE
    assert v.missing == ("normalizer_self_normalizing",)
    assert v.theorem_applied is None


def test_zero_character_map_route(d4, triality, symmetric):
    # free rank-1 source mapping to an order-2 target by an even multiple
    src = MultiplicativeTypeModule(FgAbelianGroup(IntMatrix(0, 1, ())),
                                   {"t": IntMatrix.identity(1)})
    tgt = MultiplicativeTypeModule(FgAbelianGroup(IntMatrix.from_rows([[2]])),
                                   {"t": IntMatrix.identity(1)})
    kappa = CharacterMap(src, tgt, IntMatrix.from_rows([[2]]))
    hyps = HypothesisSet(True, True, False, "BySymmetric", "large_other")
    v = verdict(d4, triality, symmetric, hyps, CohomologyInputs(kappa=kappa))
    assert v.status == FORM_EXISTS
    assert v.theorem_applied == OBSTRUCTION_DESCENT
    assert v.obstruction.reason == "zero_character_map"


# -- input validation ------------------------------------------------------------

def test_hypothesis_enums_validated():
    with pytest.raises(ValueError, match="normalizer"):
        HypothesisSet(normalizer_self_normalizing="Probably")
    with pytest.raises(ValueError, match="base field"):
        HypothesisSet(base_field="finite")


def test_by_horospherical_needs_a_datum(d4, triality, symmetric):
    hyps = HypothesisSet(True, True, True, "ByHorospherical", "p_adic")
    with pytest.raises(ValueError, match="horospherical datum"):
        verdict(d4, triality, symmetric, hyps)


def test_cohomology_generator_names_must_match(d4, triality, symmetric):
    z2 = FgAbelianGroup(IntMatrix.from_rows([[2]]))
    mod = MultiplicativeTypeModule(z2, {"sigma": IntMatrix.identity(1)})
    hyps = HypothesisSet(True, True, False, "BySymmetric", "p_adic")
    with pytest.raises(ValueError, match="sigma"):
        verdict(d4, triality, symmetric, hyps, CohomologyInputs(a_module=mod))


def test_mismatched_root_datum_rejected(d4, triality, symmetric):
    other = build_root_datum("A", 2)
    with pytest.raises(ValueError, match="different root datum"):
        verdict(other, triality, symmetric, HypothesisSet())
    with pytest.raises(TypeError):
        verdict(d4, triality, "not invariants", HypothesisSet())


def test_verdict_guard_rejects_success_with_failure():
    bad_entry = TraceEntry("anything", False, "failed")
    with pytest.raises(ValueError, match="failed trace entry"):
        Verdict(FORM_EXISTS, QUASI_SPLIT_DESCENT, (bad_entry,))
    with pytest.raises(ValueError, match="status"):
        Verdict("maybe", None, ())


# -- engine-level properties ------------------------------------------------------

def all_hypothesis_sets():
    for large, chz, qs, norm, bf in itertools.product(
            (False, True), (False, True), (False, True),
            ("AssertedTrue", "BySymmetric", "Unknown"),
            ("p_adic", "real", "large_other")):
        yield HypothesisSet(large, chz, qs, norm, bf)


def test_soundness_over_all_hypothesis_sets(d4, triality, symmetric):
    # never a positive verdict with a failed check; invariance failure is
    # always conclusive in the negative
    bad = HorosphericalDatum({0}, RationalLattice.from_generators(4, [(0, 1, 0, 0)]))
    good = HorosphericalDatum({1}, RationalLattice.from_generators(4, [(1, 0, 1, 1)]))
    for hyps in all_hypothesis_sets():
        for inv, inv_ok in ((symmetric, True), (good, True), (bad, False)):
            v = verdict(d4, triality, inv, hyps)
            if v.status == FORM_EXISTS:
                assert all(e.ok for e in v.trace)
            if not inv_ok:
                assert v.status == NO_FORM
                assert v.theorem_applied == NECESSITY
            if inv_ok and v.status == INCONCLUSIVE:
                assert v.missing


def test_quasi_split_flag_never_demotes(d4, triality, symmetric):
    for hyps in all_hypothesis_sets():
        if hyps.form_is_quasi_split:
            continue
        upgraded = HypothesisSet(hyps.field_is_large, hyps.char_zero, True,
                                 hyps.normalizer_self_normalizing, hyps.base_field)
        before = verdict(d4, triality, symmetric, hyps)
        after = verdict(d4, triality, symmetric, upgraded)
        if before.status == FORM_EXISTS:
            assert after.status == FORM_EXISTS
        assert (after.status, before.status) != (NO_FORM, FORM_EXISTS)
        assert (after.status, before.status) != (INCONCLUSIVE, FORM_EXISTS)


def test_trivial_action_reduces_to_hypotheses(d4, symmetric):
    # with no generators the invariance stage is vacuous
    trivial = build_action(d4, [])
    v = verdict(d4, trivial, symmetric, HypothesisSet())
    assert v.status == INCONCLUSIVE
    assert v.missing == ("field_is_large", "char_zero",
                         "normalizer_self_normalizing")


def test_no_form_agrees_with_preservation(d4, triality):
    # weight lattice moved by triality: span of the first simple root
    c = d4.cartan_matrix.entries
    a1 = tuple(c[i][0] for i in range(4))
    inv = SphericalInvariants(d4, Lattice.from_rows(4, [a1]),
                              cone_from_inequalities(1, [(-1,)]),
                              frozenset(), frozenset())
    v = verdict(d4, triality, inv, HypothesisSet(True, True, True, "BySymmetric"))
    assert v.status == NO_FORM
    assert v.trace[0].detail == "moves the weight lattice"


# -- wonderful stability reports ---------------------------------------------------

def test_symmetric_valuation_cone_reports_stable(d4, triality, symmetric):
    r = wonderful_stability_report(symmetric, triality)
    assert r.fan_valid and r.wonderful and r.stable
    assert r.violating_generator is None and r.problems == ()


def test_trivial_action_reports_stable(d4, symmetric):
    r = wonderful_stability_report(symmetric, build_action(d4, []))
    assert r.fan_valid and r.wonderful and r.stable


def test_rotated_cone_reports_violator():
    t2 = build_root_datum("torus", 2)
    rot = build_action(t2, [IntMatrix.from_rows([[0, -1], [1, 0]])], names=("r",))
    lop = SphericalInvariants(t2, Lattice.full(2),
                              cone_from_generators(2, [(1, 0), (1, 1)]),
                              frozenset(), frozenset())
    r = wonderful_stability_report(lop, rot)
    assert r.fan_valid and r.wonderful and not r.stable
    assert r.violating_generator == "r" and r.violating_rays == ((1, 0),)


def test_lattice_move_is_reported_before_any_cone():
    # the reflection keeps the lattice and moves the cone, the swap moves
    # the lattice: every generator's lattice is tested before any cone
    t2 = build_root_datum("torus", 2)
    action = build_action(t2, [IntMatrix.from_rows([[-1, 0], [0, 1]]),
                               IntMatrix.from_rows([[0, 1], [1, 0]])],
                          names=("f", "s"))
    inv = SphericalInvariants(t2, Lattice.from_rows(2, [(2, 0), (0, 1)]),
                              cone_from_generators(2, [(1, 0), (1, 1)]),
                              frozenset(), frozenset())
    r = wonderful_stability_report(inv, action)
    assert r.fan_valid and r.wonderful and r.stable is False
    assert r.violating_generator == "s" and r.violating_rays is None
    assert r.problems == ("moves the weight lattice",)
    r = wonderful_stability_report(inv, build_action(t2, action.generators[:1],
                                                     names=("f",)))
    assert r.violating_generator == "f" and r.violating_rays is not None


def test_non_strictly_convex_cone_is_reported():
    t2 = build_root_datum("torus", 2)
    rot = build_action(t2, [IntMatrix.from_rows([[0, -1], [1, 0]])], names=("r",))
    wide = SphericalInvariants(t2, Lattice.full(2),
                               cone_from_generators(2, [(1, 0), (-1, 0), (0, 1)]),
                               frozenset(), frozenset())
    r = wonderful_stability_report(wide, rot)
    assert r.fan_valid is False and r.wonderful is None and r.stable is None
    assert r.problems == ("the valuation cone has nontrivial lineality, so no "
                          "fan has it as a maximal strictly convex cone",)


@pytest.mark.parametrize("cap", [0, -3])
def test_report_refuses_a_cap_below_one(symmetric, triality, cap):
    # the face fan enumerates no face, and still a bad cap is a wrong
    # argument, as it is for a stated fan
    with pytest.raises(ValueError, match=f"cap must be a positive integer, got {cap}"):
        wonderful_stability_report(symmetric, triality, cap=cap)
