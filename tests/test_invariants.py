"""Tests for spherical invariants, preservation checks, horospherical data."""
from fractions import Fraction

import pytest

import active_set_oracle
import invariance_oracle as oracle
from closure_oracle import elements
from sphdescent.checker import invariance_entries
from sphdescent.cones import ColorRecord, cone_from_generators, cone_from_inequalities
from sphdescent.intlinalg import Lattice, vec_dot, vec_neg
from sphdescent.invariants import (
    HorosphericalDatum,
    PreservationVerdict,
    RationalLattice,
    SphericalInvariants,
    preserves_invariants,
    validate_horospherical,
)
from sphdescent.rootdata import build_root_datum
from sphdescent.staraction import build_action, dual_matrix_on_V

PRESERVED = PreservationVerdict(())


@pytest.fixture(scope="module")
def d4():
    return build_root_datum("D", 4)


@pytest.fixture(scope="module")
def triality(d4):
    return build_action(d4, [(2, 1, 3, 0)], names=("t",))


def alphas(brd):
    c = brd.cartan_matrix.entries
    return [tuple(c[i][j] for i in range(brd.rank)) for j in range(brd.rank)]


def symmetric_invariants(brd):
    """Triality-stable instance: root lattice, antidominant cone, one color
    per simple root placed at the coroot functional."""
    root_lat = Lattice.from_rows(4, alphas(brd))
    basis = root_lat.basis.entries
    vcone = cone_from_inequalities(
        4, [vec_neg(root_lat.coordinates(a)) for a in alphas(brd)])
    omega1 = frozenset(
        ColorRecord(tuple(vec_dot(u, brd.simple_coroots[i]) for u in basis), {i})
        for i in range(4))
    return SphericalInvariants(brd, root_lat, vcone, omega1, frozenset())


def invariant(action, inv) -> bool:
    """The checker's generator-level decision, asserted equal to the
    closure-wide oracle loop it replaced."""
    ok = invariance_entries(action, inv)[0]
    if isinstance(inv, HorosphericalDatum):
        assert ok == oracle.preserves_horospherical(action, inv)
    else:
        assert ok == oracle.closure_preserves(action, inv)
    return ok


def transported(element, inv) -> SphericalInvariants:
    """The invariants moved along one automorphism that fixes the lattice."""
    dual = dual_matrix_on_V(element, inv.weight_lattice)
    return SphericalInvariants(
        inv.brd, inv.weight_lattice, active_set_oracle.image(inv.valuation_cone, dual),
        frozenset(r.image(dual, element.s_perm) for r in inv.omega1),
        frozenset(r.image(dual, element.s_perm) for r in inv.omega2))


# -- rational lattices --------------------------------------------------------

def test_rational_lattice_canonical_denominator():
    half = RationalLattice.from_generators(
        4, [(Fraction(1, 2), 0, Fraction(1, 2), Fraction(1, 2))])
    assert half.denominator == 2
    assert half.lattice.basis.entries == ((1, 0, 1, 1),)
    assert not half.is_integral
    doubled = RationalLattice.from_generators(4, [(1, 0, 1, 1)])
    assert doubled.denominator == 1 and doubled.is_integral
    # a redundant common factor in (denominator, lattice) is reduced away
    assert RationalLattice(2, Lattice.from_rows(2, [(2, 4)])) \
        == RationalLattice(1, Lattice.from_rows(2, [(1, 2)]))


# -- invariants equality and preservation --------------------------------------

def test_invariants_equal_reflexive_and_cone_presentation(d4, triality):
    inv = symmetric_invariants(d4)
    assert inv == inv
    # same valuation cone from a different generator list
    regen = cone_from_generators(4, inv.valuation_cone.rays + ((-3, -2, -2, -2),))
    other = SphericalInvariants(d4, inv.weight_lattice, regen, inv.omega1, inv.omega2)
    assert inv == other  # the cone is stored in canonical form
    assert invariant(triality, other)


def test_invariants_equal_detects_omega_swap(d4, triality):
    inv = symmetric_invariants(d4)
    rec = next(iter(inv.omega1))
    moved = SphericalInvariants(d4, inv.weight_lattice, inv.valuation_cone,
                                inv.omega1 - {rec}, frozenset([rec]))
    assert inv != moved
    # triality fixes only the color over the branch node
    for rec in inv.omega1:
        moved = SphericalInvariants(d4, inv.weight_lattice, inv.valuation_cone,
                                    inv.omega1 - {rec}, frozenset([rec]))
        assert invariant(triality, moved) == (rec.sigma == {1})


def test_invariants_equal_requires_same_datum(d4):
    inv = symmetric_invariants(d4)
    other = build_root_datum("A", 4)
    lat = Lattice.full(4)
    foreign = SphericalInvariants(other, lat, cone_from_generators(4, []),
                                  frozenset(), frozenset())
    assert inv != foreign


def test_omega_overlap_rejected(d4):
    inv = symmetric_invariants(d4)
    rec = next(iter(inv.omega1))
    with pytest.raises(ValueError):
        SphericalInvariants(d4, inv.weight_lattice, inv.valuation_cone,
                            inv.omega1, frozenset([rec]))


def test_triality_preserves_symmetric_instance(d4, triality):
    inv = symmetric_invariants(d4)
    ok, entries = invariance_entries(triality, inv)
    assert ok and all(e.ok for e in entries)
    assert invariant(triality, inv)
    s3 = build_action(d4, [(2, 1, 3, 0), (0, 1, 3, 2)])
    assert invariant(s3, inv)


def test_trivial_action_preserves_anything(d4):
    triv = build_action(d4, [])
    inv = symmetric_invariants(d4)
    assert invariant(triv, inv)
    for el in elements(triv):
        assert preserves_invariants(triv, el, inv) == PRESERVED


def test_moved_weight_lattice_is_the_only_problem(d4, triality):
    inv = SphericalInvariants(d4, Lattice.from_rows(4, [alphas(d4)[0]]),
                              cone_from_inequalities(1, [(-1,)]),
                              frozenset(), frozenset())
    verdict = preserves_invariants(triality, elements(triality)[1], inv)
    assert verdict == PreservationVerdict(("moves the weight lattice",))
    assert not verdict.ok
    ok, entries = invariance_entries(triality, inv)
    assert not ok and [e.check for e in entries if not e.ok] == [
        "invariants preserved by generator 't'"]
    assert not invariant(triality, inv)


def test_moved_cone_detected(d4, triality):
    # stable lattice but a subcone on two of the four rays; the dual triality
    # action fixes ray (-3,-2,-2,-2) and 3-cycles the other three
    inv = symmetric_invariants(d4)
    sub = cone_from_generators(4, inv.valuation_cone.rays[:2])
    lopsided = SphericalInvariants(d4, inv.weight_lattice, sub,
                                   frozenset(), frozenset())
    verdict = preserves_invariants(triality, elements(triality)[1], lopsided)
    assert verdict.problems == ("moves the valuation cone",)
    assert not invariant(triality, lopsided)


def test_moved_colors_detected(d4, triality):
    inv = symmetric_invariants(d4)
    keep = frozenset(r for r in inv.omega1 if r.sigma != {0})
    partial = SphericalInvariants(d4, inv.weight_lattice, inv.valuation_cone,
                                  keep, frozenset())
    verdict = preserves_invariants(triality, elements(triality)[1], partial)
    assert verdict.problems == ("moves the single-preimage colors",)
    assert not invariant(triality, partial)


def test_preservation_extends_to_closure(d4):
    # no problem on the generators implies none on any closure element
    s3 = build_action(d4, [(2, 1, 3, 0), (0, 1, 3, 2)])
    inv = symmetric_invariants(d4)
    assert invariance_entries(s3, inv)[0]
    for el in elements(s3):
        assert preserves_invariants(s3, el, inv) == PRESERVED


def test_apply_to_invariants_agrees_with_equality(d4, triality):
    # preserving the invariants is the same as moving them to equal ones
    inv = symmetric_invariants(d4)
    sub = cone_from_generators(4, inv.valuation_cone.rays[:2])
    lopsided = SphericalInvariants(d4, inv.weight_lattice, sub,
                                   frozenset(), frozenset())
    partial = SphericalInvariants(
        d4, inv.weight_lattice, inv.valuation_cone,
        frozenset(r for r in inv.omega1 if r.sigma != {0}), frozenset())
    for data, expected in ((inv, True), (lopsided, False), (partial, False)):
        for el in elements(triality):
            same = transported(el, data) == data
            assert same == (preserves_invariants(triality, el, data) == PRESERVED)
        assert all(preserves_invariants(triality, el, data) == PRESERVED
                   for el in elements(triality)) == expected
    bad = SphericalInvariants(d4, Lattice.from_rows(4, [alphas(d4)[0]]),
                              cone_from_inequalities(1, [(-1,)]),
                              frozenset(), frozenset())
    assert dual_matrix_on_V(elements(triality)[1], bad.weight_lattice) is None
    assert preserves_invariants(triality, elements(triality)[1], bad).problems == (
        "moves the weight lattice",)


def test_verdict_independent_of_weight_basis_presentation(d4, triality):
    # the stored lattice is canonical, so any spanning set gives the same one
    rows = alphas(d4)
    lat1 = Lattice.from_rows(4, rows)
    mixed = [tuple(a + b for a, b in zip(rows[0], rows[1])), rows[1],
             tuple(-x for x in rows[2]), rows[3], rows[2]]
    lat2 = Lattice.from_rows(4, mixed)
    assert lat1 == lat2


# -- horospherical data --------------------------------------------------------

def test_m1_even_instance(d4, triality):
    m1 = RationalLattice.from_generators(4, [(1, 0, 1, 1)])
    datum = HorosphericalDatum({1}, m1)
    assert validate_horospherical(d4, datum) == []
    assert invariant(triality, datum)
    s3 = build_action(d4, [(2, 1, 3, 0), (0, 1, 3, 2)])
    assert invariant(s3, datum)


def test_m1_odd_instance_warns_but_stays_invariant(d4, triality):
    half = RationalLattice.from_generators(
        4, [(Fraction(1, 2), 0, Fraction(1, 2), Fraction(1, 2))])
    datum = HorosphericalDatum({1}, half)
    warnings = validate_horospherical(d4, datum)
    assert any("denominator 2" in w for w in warnings)
    assert invariant(triality, datum)


def test_m2_span_instance(d4, triality):
    a = alphas(d4)
    gens = [tuple(Fraction(x - y, 2) for x, y in zip(a[0], a[2])),
            tuple(Fraction(x - y, 2) for x, y in zip(a[2], a[3]))]
    m2 = RationalLattice.from_generators(4, gens)
    assert m2.is_integral  # halves of root differences are weights here
    datum = HorosphericalDatum({1}, m2)
    assert validate_horospherical(d4, datum) == []
    assert invariant(triality, datum)


def test_m4_and_m5_instances(d4, triality):
    a = alphas(d4)
    m5 = RationalLattice.from_generators(4, [(1, 0, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)])
    assert validate_horospherical(d4, HorosphericalDatum({1}, m5)) == []
    assert invariant(triality, HorosphericalDatum({1}, m5))
    m4 = RationalLattice.from_generators(
        4, [(1, 0, 1, 1),
            tuple(x - y for x, y in zip(a[0], a[2])),
            tuple(x - y for x, y in zip(a[2], a[3]))])
    assert invariant(triality, HorosphericalDatum({1}, m4))


def test_full_subset_instance(d4, triality):
    w2 = RationalLattice.from_generators(4, [(0, 1, 0, 0)])
    datum = HorosphericalDatum({0, 2, 3}, w2)
    assert validate_horospherical(d4, datum) == []
    assert invariant(triality, datum)


def test_moved_subset_fails(d4, triality):
    m5 = RationalLattice.from_generators(4, [(0, 1, 0, 0)])
    assert not invariant(triality, HorosphericalDatum({0}, m5))


def test_moved_characters_fail(d4, triality):
    m = RationalLattice.from_generators(4, [(1, 0, 0, 0)])  # omega1 alone
    assert not invariant(triality, HorosphericalDatum(set(), m))


def test_subset_naming_no_simple_root_is_refused_by_the_predicate(d4, triality):
    # index 7 names no simple root of D4: a ValueError, not an IndexError
    # from the generator's permutation of the simple roots
    datum = HorosphericalDatum({7}, RationalLattice.from_generators(4, [(0, 1, 0, 0)]))
    for check in (lambda: preserves_invariants(triality, triality.generators[0], datum),
                  lambda: invariance_entries(triality, datum)):
        with pytest.raises(ValueError, match="^subset members must index the simple roots$"):
            check()


def test_orthogonality_warning(d4, triality):
    a2 = RationalLattice.from_generators(4, [alphas(d4)[1]])
    warnings = validate_horospherical(d4, HorosphericalDatum({1}, a2))
    assert any("coroot 1" in w for w in warnings)
    assert invariant(triality, HorosphericalDatum({1}, a2))


def test_bad_index_warning(d4, triality):
    m = RationalLattice.from_generators(4, [(0, 1, 0, 0)])
    assert any("does not name" in w
               for w in validate_horospherical(d4, HorosphericalDatum({7}, m)))
    for decide in (invariance_entries, oracle.preserves_horospherical):
        with pytest.raises(ValueError):
            decide(triality, HorosphericalDatum({7}, m))


def test_simple_root_indices_are_nonnegative_integers():
    m = RationalLattice.from_generators(4, [(0, 1, 0, 0)])
    for indices in ({Fraction(3, 2), 1.9}, {Fraction(1, 2), 2.7}, {-1}):
        with pytest.raises(ValueError):
            ColorRecord((1, 0), indices)
        with pytest.raises(ValueError):
            HorosphericalDatum(indices, m)
    assert ColorRecord((1, 0), {Fraction(2), 1.0}).sigma == {1, 2}
    assert HorosphericalDatum({Fraction(2)}, m).simple_subset == {2}
