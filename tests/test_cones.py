"""Tests for rational cones, colored fans, fan axioms, fan stability, and the
feasibility test, compared with the simplex it replaced (`simplex_oracle`)."""
import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import active_set_oracle
import simplex_oracle
from sphdescent import ratlp
from sphdescent.cones import (
    ColorRecord,
    ColoredCone,
    ColoredFan,
    NotStrictlyConvex,
    _relint,
    _relint_contains,
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
from sphdescent.intlinalg import IntMatrix, Lattice
from sphdescent.invariants import SphericalInvariants, preserves_invariants
from sphdescent.ratlp import feasible
from sphdescent.rootdata import BRDAutomorphism, torus
from sphdescent.staraction import GaloisAction, build_action


def in_hull(cone, point):
    """Membership via the generator description: exact LP over multipliers,
    solved by the simplex oracle so that it is independent of the cone
    engine."""
    gens = cone.generators()
    if not gens:
        return all(x == 0 for x in point)
    rows, rhs = [], []
    for j in range(cone.ambient_dim):
        coeff = tuple(g[j] for g in gens)
        rows += [coeff, tuple(-c for c in coeff)]
        rhs += [point[j], -point[j]]
    for i in range(len(gens)):
        rows.append(tuple(int(k == i) for k in range(len(gens))))
        rhs.append(0)
    return simplex_oracle.feasible(rows, rhs) is not None


# -- feasibility primitive ----------------------------------------------------

def test_feasible_returns_valid_witness():
    rows = [(2, -1), (-1, 3), (0, 1)]
    rhs = [1, -2, 0]
    x = feasible(rows, rhs)
    assert x is not None
    assert all(sum(c * v for c, v in zip(row, x)) >= r for row, r in zip(rows, rhs))


def test_feasible_detects_infeasible():
    assert feasible([(1,), (-1,)], [1, 0]) is None
    assert feasible([(1, 1), (-1, -1)], [1, 1]) is None


def test_feasible_edge_shapes():
    assert feasible([], []) == ()
    assert feasible([(), ()], [0, -1]) == ()
    assert feasible([()], [1]) is None
    # all-zero rows hold exactly when their right-hand sides are <= 0
    assert feasible([(0, 0), (0, 0)], [0, -2]) is not None
    assert feasible([(0, 0), (1, 1)], [Fraction(1, 3), 0]) is None
    half = Fraction(1, 2)
    x = feasible([(half, Fraction(-2, 3)), (-half, 0)], [Fraction(1, 3), -2])
    assert x is not None and half * x[0] - Fraction(2, 3) * x[1] >= Fraction(1, 3)
    assert -half * x[0] >= -2
    assert feasible([(half,), (-half,)], [half, Fraction(-1, 3)]) is None


def test_feasible_rejects_ragged_rows_and_mismatched_rhs():
    with pytest.raises(ValueError, match="ragged"):
        feasible([(1, 0), (1,)], [0, 0])
    with pytest.raises(ValueError, match="one right-hand side per row"):
        feasible([(1, 0)], [0, 1])
    with pytest.raises(ValueError, match="one right-hand side per row"):
        feasible([], [0])


def assert_feasible_agrees_with_the_simplex(rows, rhs):
    """Same feasible/None answer as the simplex; a point satisfies its rows."""
    x = feasible(rows, rhs)
    assert (x is None) == (simplex_oracle.feasible(rows, rhs) is None)
    if x is not None:
        assert len(x) == (len(rows[0]) if rows else 0)
        assert all(sum(c * v for c, v in zip(row, x)) >= r
                   for row, r in zip(rows, rhs))
    return x


@pytest.mark.parametrize("seed", range(20))
def test_feasible_witness_property_random(seed):
    rng = random.Random(seed)
    n = rng.randint(1, 4)
    rows = [tuple(rng.randint(-4, 4) for _ in range(n))
            for _ in range(rng.randint(1, 6))]
    rhs = [rng.randint(-3, 3) for _ in rows]
    assert_feasible_agrees_with_the_simplex(rows, rhs)


rationals = st.one_of(st.integers(-4, 4),
                      st.fractions(min_value=-4, max_value=4, max_denominator=6))


@st.composite
def systems(draw):
    """Rows of length 0..6 and 0..10 of them; some all-zero rows, and some
    equations as two opposite rows."""
    n = draw(st.integers(0, 6))
    m = draw(st.integers(0, 10))
    rows = draw(st.lists(st.tuples(*[rationals] * n), min_size=m, max_size=m))
    rhs = draw(st.lists(rationals, min_size=m, max_size=m))
    if rows and draw(st.booleans()):
        i = draw(st.integers(0, m - 1))
        rows.append(tuple(-x for x in rows[i]))
        rhs.append(-rhs[i])
    if draw(st.booleans()):
        rows.append((0,) * n)
        rhs.append(draw(rationals))
    return rows, rhs


@given(systems())
@settings(max_examples=400, deadline=None)
def test_feasible_matches_the_simplex(system):
    assert_feasible_agrees_with_the_simplex(*system)


def test_feasible_matches_the_simplex_on_seeded_systems():
    rng = random.Random(9090)
    answers = []
    for _ in range(1500):
        n, m = rng.randint(0, 6), rng.randint(0, 10)
        rows = [tuple(Fraction(rng.randint(-5, 5), rng.randint(1, 3))
                      if rng.random() < 0.2 else rng.randint(-4, 4)
                      for _ in range(n)) for _ in range(m)]
        rhs = [rng.randint(-3, 3) for _ in rows]
        if rows and rng.random() < 0.3:
            i = rng.randrange(m)
            rows.append(tuple(-x for x in rows[i]))
            rhs.append(-rhs[i])
        answers.append(assert_feasible_agrees_with_the_simplex(rows, rhs))
    # both answers occur often enough for the comparison to mean something
    assert 400 < sum(x is None for x in answers) < 1100


def test_feasible_stops_early_on_seeded_infeasible_systems(monkeypatch):
    """Systems with a contradiction c.x >= 1, -c.x >= 0 after at most n - 2
    rows: None, as the simplex says, and the conversion stops before the
    rows that follow.  Those few rows leave a lineality at t = 0, so a
    conversion that went on would dot the next row with it."""
    cut = []
    dot = ratlp.vec_dot

    def watched(a, v):
        cut.append(a)  # every row the conversion cuts with comes first
        return dot(a, v)

    monkeypatch.setattr(ratlp, "vec_dot", watched)
    rng = random.Random(4242)
    stopped = 0
    for _ in range(300):
        n = rng.randint(2, 5)
        c = tuple(rng.randint(-3, 3) for _ in range(n))
        if not any(c):
            continue

        def draw(k):
            return [tuple(rng.randint(-4, 4) for _ in range(n)) for _ in range(k)]

        head, tail = draw(rng.randint(0, n - 2)), draw(rng.randint(1, 6))
        rows = head + [c, tuple(-x for x in c)] + tail
        rhs = [rng.randint(-3, 0) for _ in head] + [1, 0] + \
            [rng.randint(-3, 3) for _ in tail]
        cut.clear()
        assert assert_feasible_agrees_with_the_simplex(rows, rhs) is None
        k = len(head) + 2
        after = ratlp.vec_primitive((*rows[k], -rhs[k]))
        stopped += after is not None and after not in cut
    assert stopped > 250


# -- double description -------------------------------------------------------

def test_orthant():
    c = cone_from_generators(2, [(1, 0), (0, 1)])
    assert c.rays == ((0, 1), (1, 0))
    assert c.inequalities == ((0, 1), (1, 0))
    assert c.lineality == () and c.equations == ()
    assert c.is_strictly_convex and c.dim == 2


def test_half_plane_with_lineality():
    c = cone_from_generators(2, [(1, 0), (-1, 0), (0, 1)])
    assert c.lineality == ((1, 0),)
    assert c.rays == ((0, 1),)
    assert c.inequalities == ((0, 1),)
    assert not c.is_strictly_convex


def test_origin_cone():
    c = cone_from_generators(2, [])
    assert c.rays == c.lineality == () and c.equations == ((1, 0), (0, 1))
    assert c.contains((0, 0)) and not c.contains((1, 0))


def test_full_plane():
    c = cone_from_generators(2, [(1, 0), (-1, 0), (0, 1), (0, -1)])
    assert c.lineality == ((1, 0), (0, 1))
    assert c.inequalities == () and c.equations == ()


def test_single_ray_canonicalizes_and_gets_equations():
    c = cone_from_generators(3, [(2, 4, 0)])
    assert c.rays == ((1, 2, 0),)
    assert len(c.equations) == 2 and c.dim == 1
    assert c.contains((3, 6, 0)) and not c.contains((-1, -2, 0))
    assert not c.contains((1, 2, 1))


def test_redundant_generators_canonicalize():
    a = cone_from_generators(2, [(1, 0), (0, 1)])
    b = cone_from_generators(2, [(1, 0), (0, 1), (1, 1), (2, 3)])
    assert a == b
    assert cones_equal(a, b)  # mutual containment agrees with equality


def test_h_and_v_descriptions_agree():
    a = cone_from_generators(2, [(1, 0), (0, 1)])
    b = cone_from_inequalities(2, [(1, 0), (0, 1), (1, 1)])
    assert a == b
    line = cone_from_inequalities(3, [], [(0, 0, 1), (0, 1, 0)])
    assert line.lineality == ((1, 0, 0),) and line.rays == ()


def test_rational_generators():
    c = cone_from_generators(2, [(Fraction(1, 2), Fraction(3, 2)), (1, 0)])
    assert c.rays == ((1, 0), (1, 3))


def test_dimension_mismatch_errors():
    with pytest.raises(ValueError):
        cone_from_generators(2, [(1, 0, 0)])
    c = cone_from_generators(2, [(1, 0)])
    with pytest.raises(ValueError):
        c.contains((1, 0, 0))


@pytest.mark.parametrize("seed", range(25))
def test_double_description_consistency_random(seed):
    rng = random.Random(100 + seed)
    dim = rng.randint(2, 5)
    gens = [tuple(rng.randint(-3, 3) for _ in range(dim))
            for _ in range(rng.randint(1, dim + 2))]
    cone = cone_from_generators(dim, gens)
    # canonical form is a fixed point of both constructors
    assert cone_from_generators(dim, cone.generators()) == cone
    assert cone_from_inequalities(dim, cone.inequalities, cone.equations) == cone
    assert all(cone.contains(g) for g in gens)
    for _ in range(8):
        p = tuple(rng.randint(-4, 4) for _ in range(dim))
        assert cone.contains(p) == in_hull(cone, p)


def test_image_rays_are_the_mapped_rays():
    # what the stability check relies on: a unimodular map sends a strictly
    # convex cone's primitive extreme rays to its image's
    c = cone_from_generators(3, [(1, 0, 0), (1, 1, 0)])
    m = IntMatrix.from_rows([[0, 1, 0], [1, 0, 0], [1, 1, 1]])
    moved = active_set_oracle.image(c, m)
    assert moved == cone_from_generators(3, [(0, 1, 1), (1, 1, 2)])
    assert moved.rays == tuple(sorted(m.apply(r) for r in c.rays))


@pytest.mark.parametrize("rows", [
    [[1, 0, 0], [0, 1, 0]],                 # not square
    [[1, 0], [0, 1]],                       # wrong dimension
    [[2, 0, 0], [0, 1, 0], [0, 0, 1]],      # determinant 2
    [[1, 1, 0], [1, 1, 0], [0, 0, 1]],      # singular
])
def test_image_needs_a_unimodular_matrix(rows):
    # images of the valuation cone and of fan cones are taken by the
    # transport of an automorphism to V, which refuses any other matrix
    c = cone_from_generators(3, [(1, 0, 0), (0, 1, 0)])
    inv = SphericalInvariants(torus(3), Lattice.full(3), c, frozenset(), frozenset())
    element = BRDAutomorphism(IntMatrix.from_rows(rows), ())
    with pytest.raises(ValueError):
        preserves_invariants(build_action(torus(3), []), element, inv)
    # an action whose generator never passed build_action's checks
    action = GaloisAction(torus(3), ("g",), (element,), (element,), (("g",),))
    with pytest.raises(ValueError):
        is_gamma_stable(wonderful_fan(c), action, Lattice.full(3))


def test_ray_sums_are_interior_to_their_faces():
    # the fan checks try the sum of a face's rays before any feasibility test
    c = cone_from_generators(3, [(1, 0, 0), (0, 1, 0), (1, 1, 1), (2, 1, 1)])
    fan = faces(ColoredCone(c, frozenset()))
    for fc, parent in zip(fan.cones, fan.parents):
        p = tuple(sum(r[j] for r in fan.rays_of(fc.mask)) for j in range(3))
        assert _relint_contains(_relint(parent, fc.mask), p)
        face = cone_from_generators(3, fan.rays_of(fc.mask))
        assert all(sum(a * b for a, b in zip(row, p)) > 0 for row in face.inequalities)
        assert all(sum(a * b for a, b in zip(row, p)) == 0 for row in face.equations)


def _in_relint(cone, x):
    return (all(sum(a * b for a, b in zip(e, x)) == 0 for e in cone.equations)
            and all(sum(a * b for a, b in zip(c, x)) > 0
                    for c in cone.inequalities))


def assert_meet_agrees_with_the_old_body(strict, weak):
    """Same answer as the kernel-elimination-plus-simplex meet, and a point
    interior to every strict cone and inside every weak one."""
    x = meet_relative_interiors(strict, weak)
    old = simplex_oracle.meet_relative_interiors(strict, weak)
    assert (x is None) == (old is None)
    if x is not None:
        assert all(_in_relint(c, x) for c in strict)
        assert all(c.contains(x) for c in weak)
    return x


def test_meet_relative_interiors():
    neg = cone_from_generators(2, [(-1, 0), (0, -1)])
    ray = cone_from_generators(2, [(-1, 0)])
    assert meet_relative_interiors([ray], [neg]) is not None
    assert meet_relative_interiors([ray, neg], []) is None  # ray lies on a facet
    origin = cone_from_generators(2, [])
    assert meet_relative_interiors([origin], [neg]) is not None  # {0} meets any cone


def _cone(dim, *gens):
    return cone_from_generators(dim, gens)


@pytest.mark.parametrize("strict,weak,meets", [
    # strict cones with equations: two rays meet only where they coincide
    ([_cone(3, (1, 1, 0))], [_cone(3, (1, 0, 0), (0, 1, 0), (0, 0, 1))], True),
    ([_cone(3, (1, 1, 0)), _cone(3, (1, 0, 0), (0, 1, 0))], [], True),
    ([_cone(3, (1, 1, 0)), _cone(3, (1, 0, 0))], [], False),
    ([_cone(3, (2, 2, 0)), _cone(3, (1, 1, 0), (1, 1, 1))], [], False),
    # weak cones with lineality: the half-plane y >= 0 and the line y = 0
    ([_cone(2, (-1, 1))], [_cone(2, (1, 0), (-1, 0), (0, 1))], True),
    ([_cone(2, (0, -1))], [_cone(2, (1, 0), (-1, 0), (0, 1))], False),
    ([_cone(2, (1, 1), (1, -1))], [_cone(2, (1, 0), (-1, 0))], True),
    ([_cone(3, (1, 0, 1), (0, 1, 1))],
     [_cone(3, (1, 0, 0), (-1, 0, 0), (0, 1, -1))], False),
    # a strict facet that is another cone's equation: x > 0 against x = 0
    ([_cone(2, (1, 0), (0, 1))], [_cone(2, (0, 1))], False),
    ([_cone(2, (1, 0), (0, 1)), _cone(2, (0, 1))], [], False),
    ([_cone(2, (0, 1))], [_cone(2, (1, 0), (0, 1))], True),
    # the origin: its relative interior is itself, so it meets every cone
    # but no relative interior of a cone with a ray
    ([_cone(2)], [_cone(2, (1, 0), (0, 1)), _cone(2, (-1, -1))], True),
    ([_cone(2), _cone(2, (1, 0))], [], False),
    ([_cone(3, (1, 0, 0), (-1, 0, 0))], [_cone(3)], True),
    # dimension 0: one point, in every cone's relative interior
    ([_cone(0)], [_cone(0)], True),
    ([], [_cone(0)], True),
])
def test_meet_relative_interiors_cases(strict, weak, meets):
    x = assert_meet_agrees_with_the_old_body(strict, weak)
    assert (x is not None) == meets


def _random_cone(rng, dim):
    """Anything from the origin to the whole space: few generators give
    equations, a generator and its negative give lineality."""
    gens = [tuple(rng.randint(-2, 2) for _ in range(dim))
            for _ in range(rng.randint(0, dim + 1))]
    if gens and rng.random() < 0.3:
        gens.append(tuple(-x for x in gens[0]))
    return cone_from_generators(dim, gens)


def test_meet_relative_interiors_matches_the_old_body():
    rng = random.Random(5151)
    answers = []
    for _ in range(600):
        dim = rng.randint(1, 5)
        strict = [_random_cone(rng, dim) for _ in range(rng.randint(1, 2))]
        weak = [_random_cone(rng, dim) for _ in range(rng.randint(0, 2))]
        answers.append(assert_meet_agrees_with_the_old_body(strict, weak))
    assert 150 < sum(x is None for x in answers) < 450


# -- colored cones and faces --------------------------------------------------

def test_colored_cone_validation():
    half = cone_from_generators(2, [(1, 0), (-1, 0), (0, 1)])
    with pytest.raises(NotStrictlyConvex):
        ColoredCone(half, frozenset())
    orth = cone_from_generators(2, [(1, 0), (0, 1)])
    with pytest.raises(ValueError):
        ColoredCone(orth, frozenset([ColorRecord((0, 0), set())]))
    with pytest.raises(ValueError):
        ColoredCone(orth, frozenset([ColorRecord((-1, 0), set())]))


def test_colored_cone_factory_spans_colors():
    rec = ColorRecord((1, 0), {0})
    cc = colored_cone(2, [(0, 1)], [rec])
    assert cc.cone.rays == ((0, 1), (1, 0))
    assert cc.colors == frozenset([rec])


def colored_cones(fan):
    """A fan's cones in full canonical form, in the fan's order."""
    return [fan.colored_cone(k) for k in range(len(fan))]


def cone_set(fan):
    return {(fan.rays_of(fc.mask), fc.colors) for fc in fan.cones}


def test_faces_of_simplicial_cone():
    orth = cone_from_generators(2, [(1, 0), (0, 1)])
    fs = faces(ColoredCone(orth, frozenset()))
    assert len(fs) == 4 and fs.rays == orth.rays
    assert sorted(fc.mask.bit_count() for fc in fs.cones) == [0, 1, 1, 2]
    # canonical order: by ray tuple
    assert [fs.rays_of(fc.mask) for fc in fs.cones] == [
        (), ((0, 1),), ((0, 1), (1, 0)), ((1, 0),)]


def test_faces_of_origin():
    z = cone_from_generators(2, [])
    assert len(faces(ColoredCone(z, frozenset()))) == 1


def test_faces_inherit_colors_by_membership():
    rec = ColorRecord((1, 0), {0})
    cc = colored_cone(2, [(0, 1)], [rec])
    fs = faces(cc)
    by_rays = {fs.rays_of(fc.mask): fc.colors for fc in fs.cones}
    assert by_rays[((1, 0),)] == frozenset([rec])
    assert by_rays[((0, 1),)] == frozenset()
    assert by_rays[()] == frozenset()
    assert by_rays[((0, 1), (1, 0))] == frozenset([rec])


def test_faces_closed_and_transitive():
    cc = ColoredCone(cone_from_generators(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)]),
                     frozenset())
    fs = faces(cc)
    assert len(fs) == 8  # simplicial: all coordinate faces
    for f in colored_cones(fs):
        assert cone_set(faces(f)) <= cone_set(fs)


# -- fans ---------------------------------------------------------------------

@pytest.fixture()
def neg_orthant():
    return cone_from_generators(2, [(-1, 0), (0, -1)])


def test_fan_build_validation(neg_orthant):
    with pytest.raises(ValueError):
        ColoredFan.build([])
    a = ColoredCone(neg_orthant, frozenset())
    fan = ColoredFan.build([a, a])
    assert len(fan.cones) == 1
    b = ColoredCone(cone_from_generators(3, [(1, 0, 0)]), frozenset())
    with pytest.raises(ValueError):
        ColoredFan.build([a, b])


def test_wonderful_fan_is_valid_and_wonderful(neg_orthant):
    fan = wonderful_fan(neg_orthant)
    assert len(fan.cones) == 4
    verdict = is_valid_fan(fan, neg_orthant)
    assert verdict.ok and verdict.problems == ()
    assert is_wonderful(fan, neg_orthant)


def test_wonderful_fan_of_single_ray():
    v = cone_from_generators(2, [(1, 2)])
    fan = wonderful_fan(v)
    assert len(fan.cones) == 2
    assert is_valid_fan(fan, v).ok and is_wonderful(fan, v)


def test_wonderful_fan_needs_strict_convexity():
    full = cone_from_generators(2, [(1, 0), (-1, 0), (0, 1), (0, -1)])
    with pytest.raises(NotStrictlyConvex):
        wonderful_fan(full)


def test_axiom_interior_fails_for_wrong_side(neg_orthant):
    pos = ColoredCone(cone_from_generators(2, [(1, 0), (0, 1)]), frozenset())
    verdict = is_valid_fan(faces(pos), neg_orthant)
    assert not verdict.interior_ok and not verdict.ok


def test_axiom_closure_fails_for_missing_face(neg_orthant):
    base = ColoredCone(neg_orthant, frozenset())
    keep = [f for f in colored_cones(faces(base)) if f.cone.rays != ((-1, 0),)]
    verdict = is_valid_fan(ColoredFan.build(keep), neg_orthant)
    assert verdict.interior_ok and verdict.separation_ok
    assert not verdict.closure_ok
    assert any("missing" in p for p in verdict.problems)


def test_axiom_separation_fails_for_duplicated_cone(neg_orthant):
    base = ColoredCone(neg_orthant, frozenset())
    recolored = ColoredCone(neg_orthant,
                            frozenset([ColorRecord((-1, 0), {0})]))
    fan = ColoredFan.build(colored_cones(faces(base)) + [recolored])
    verdict = is_valid_fan(fan, neg_orthant)
    assert not verdict.separation_ok


def test_valid_fan_with_two_maximal_cones():
    v = cone_from_generators(2, [(-1, 0), (0, -1)])
    left = ColoredCone(cone_from_generators(2, [(-1, 0), (-1, -1)]), frozenset())
    right = ColoredCone(cone_from_generators(2, [(-1, -1), (0, -1)]), frozenset())
    fan = ColoredFan.build(colored_cones(faces(left)) + colored_cones(faces(right)))
    verdict = is_valid_fan(fan, v)
    assert verdict.ok
    assert not is_wonderful(fan, v)  # two maximal cones


def test_is_wonderful_rejects_colors_and_subcones(neg_orthant):
    fan = wonderful_fan(neg_orthant)
    recolored = []
    for cc in colored_cones(fan):
        if cc.cone.rays == ((-1, 0),):
            recolored.append(ColoredCone(cc.cone,
                                         frozenset([ColorRecord((-1, 0), set())])))
        else:
            recolored.append(cc)
    assert not is_wonderful(ColoredFan.build(recolored), neg_orthant)
    sub = cone_from_generators(2, [(-1, 0), (-1, -1)])
    subfan = wonderful_fan(sub)
    assert is_valid_fan(subfan, neg_orthant).ok
    assert not is_wonderful(subfan, neg_orthant)
    assert is_wonderful(subfan, sub)


# -- stability under a finite action ------------------------------------------

def test_stability_of_symmetric_fan():
    t2 = torus(2)
    swap = build_action(t2, [IntMatrix.from_rows([[0, 1], [1, 0]])], names=("s",))
    full = Lattice.full(2)
    fan = wonderful_fan(cone_from_generators(2, [(-1, 0), (0, -1)]))
    verdict = is_gamma_stable(fan, swap, full)
    assert verdict.stable and verdict.violating_generator is None


def test_instability_reports_first_violator():
    t2 = torus(2)
    swap = build_action(t2, [IntMatrix.from_rows([[0, 1], [1, 0]])], names=("s",))
    fan = wonderful_fan(cone_from_generators(2, [(1, 0), (1, 1)]))
    verdict = is_gamma_stable(fan, swap, Lattice.full(2))
    assert not verdict.stable
    assert verdict.violating_generator == "s"
    assert verdict.violating_cone.cone.rays == ((1, 0),)


def test_trivial_action_stabilizes_any_fan():
    t2 = torus(2)
    triv = build_action(t2, [])
    fan = wonderful_fan(cone_from_generators(2, [(1, 0), (1, 1)]))
    assert is_gamma_stable(fan, triv, Lattice.full(2)).stable


def test_stability_requires_stable_weight_lattice():
    t2 = torus(2)
    swap = build_action(t2, [IntMatrix.from_rows([[0, 1], [1, 0]])], names=("s",))
    fan = wonderful_fan(cone_from_generators(2, [(-1, 0), (0, -1)]))
    with pytest.raises(ValueError):
        is_gamma_stable(fan, swap, Lattice.from_rows(2, [(1, 0)]))


def test_color_image_moves_valuation_and_support():
    swap = IntMatrix.from_rows([[0, 1], [1, 0]])
    rec = ColorRecord((1, 0), {0}).image(swap, (1, 0))
    assert rec.rho == (0, 1) and rec.sigma == {1}


def test_stability_of_colored_fan_depends_on_color_symmetry():
    t2 = torus(2)
    swap = build_action(t2, [IntMatrix.from_rows([[0, 1], [1, 0]])], names=("s",))
    full = Lattice.full(2)
    sym_rec = [ColorRecord((1, 0), set()), ColorRecord((0, 1), set())]
    cc = colored_cone(2, [], sym_rec)
    assert is_gamma_stable(faces(cc), swap, full).stable
    # same cone, but only one ray carries a color: swap breaks the symmetry
    asym = colored_cone(2, [(0, 1)], [ColorRecord((1, 0), set())])
    assert not is_gamma_stable(faces(asym), swap, full).stable


def _two_cone_fan(right_colors):
    """Faces of the cones spanned by (1,0),(1,1) with the color (1,0) and
    by (0,1),(1,1) with the given colors: the swap maps each onto the
    other's rays."""
    left = colored_cone(2, [(1, 1)], [ColorRecord((1, 0), set())])
    right = colored_cone(2, [(0, 1), (1, 1)], right_colors)
    return ColoredFan.build(colored_cones(faces(left)) + colored_cones(faces(right)))


def test_stability_compares_colors_of_the_image_cone():
    swap = build_action(torus(2), [IntMatrix.from_rows([[0, 1], [1, 0]])],
                        names=("s",))
    full = Lattice.full(2)
    symmetric = _two_cone_fan([ColorRecord((0, 1), set())])
    assert is_gamma_stable(symmetric, swap, full).stable
    # the rays of every cone still map onto the rays of a fan cone, but the
    # color (1,0) lands on (0,1), which the other cone does not carry
    fan = _two_cone_fan([])
    assert {fan.rays_of(fc.mask) for fc in fan.cones} == \
        {symmetric.rays_of(fc.mask) for fc in symmetric.cones}
    verdict = is_gamma_stable(fan, swap, full)
    assert not verdict.stable and verdict.violating_generator == "s"
    # the first cone in canonical order that moves: the ray (0,1), whose
    # image (1,0) is a fan cone only with the color (1,0)
    assert verdict.violating_cone == colored_cone(2, [(0, 1)], [])
    assert is_valid_fan(fan, cone_from_generators(2, [(1, 0), (0, 1)])).ok
