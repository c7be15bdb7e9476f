"""Tests for rational cones, colored fans, fan axioms, and fan stability."""
import random
from fractions import Fraction
from itertools import combinations

import pytest

from sphdescent.cones import (
    ColorRecord,
    ColoredCone,
    ColoredFan,
    NotStrictlyConvex,
    colored_cone,
    cone_from_generators,
    cone_from_inequalities,
    cones_equal,
    faces,
    is_gamma_stable,
    is_valid_fan,
    is_wonderful,
    meet_relative_interiors,
    transform_colored_cone,
    wonderful_fan,
)
from sphdescent.intlinalg import IntMatrix, Lattice
from sphdescent.ratlp import feasible
from sphdescent.rootdata import torus
from sphdescent.staraction import build_action


def in_hull(cone, point):
    """Membership via the generator description: exact LP over multipliers."""
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
    return feasible(rows, rhs) is not None


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


@pytest.mark.parametrize("seed", range(20))
def test_feasible_witness_property_random(seed):
    rng = random.Random(seed)
    n = rng.randint(1, 4)
    rows = [tuple(rng.randint(-4, 4) for _ in range(n))
            for _ in range(rng.randint(1, 6))]
    rhs = [rng.randint(-3, 3) for _ in rows]
    x = feasible(rows, rhs)
    if x is not None:
        assert all(sum(c * v for c, v in zip(row, x)) >= r
                   for row, r in zip(rows, rhs))


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
    assert c.is_origin and c.rays == () and c.equations == ((1, 0), (0, 1))
    assert c.relative_interior_point() == (0, 0)
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


def test_image_maps_rays_forward_and_facets_by_inverse_transpose():
    c = cone_from_generators(3, [(1, 0, 0), (1, 1, 0)])
    shear = IntMatrix.from_rows([[1, 0, 1], [0, 1, 0], [0, 0, 1]])
    moved = c.image(IntMatrix.from_rows([[0, 1, 0], [1, 0, 0], [1, 1, 1]]))
    assert moved == cone_from_generators(3, [(0, 1, 1), (1, 1, 2)])
    half = cone_from_generators(3, [(1, 0, 0), (-1, 0, 0), (0, 1, 0)])
    assert half.image(shear) == cone_from_generators(
        3, [(1, 0, 0), (-1, 0, 0), (0, 1, 0)])


@pytest.mark.parametrize("rows", [
    [[1, 0, 0], [0, 1, 0]],                 # not square
    [[1, 0], [0, 1]],                       # wrong dimension
    [[2, 0, 0], [0, 1, 0], [0, 0, 1]],      # determinant 2
    [[1, 1, 0], [1, 1, 0], [0, 0, 1]],      # singular
])
def test_image_needs_a_unimodular_matrix(rows):
    c = cone_from_generators(3, [(1, 0, 0), (0, 1, 0)])
    with pytest.raises(ValueError):
        c.image(IntMatrix.from_rows(rows))


def test_relative_interior_point_is_interior():
    c = cone_from_generators(3, [(1, 0, 0), (0, 1, 0), (1, 1, 1)])
    p = c.relative_interior_point()
    assert all(sum(a * b for a, b in zip(row, p)) > 0 for row in c.inequalities)
    assert all(sum(a * b for a, b in zip(row, p)) == 0 for row in c.equations)


def test_meet_relative_interiors():
    neg = cone_from_generators(2, [(-1, 0), (0, -1)])
    ray = cone_from_generators(2, [(-1, 0)])
    assert meet_relative_interiors([ray], [neg]) is not None
    assert meet_relative_interiors([ray, neg], []) is None  # ray lies on a facet
    origin = cone_from_generators(2, [])
    assert meet_relative_interiors([origin], [neg]) is not None  # {0} meets any cone


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


def test_faces_of_simplicial_cone():
    orth = cone_from_generators(2, [(1, 0), (0, 1)])
    fs = faces(ColoredCone(orth, frozenset()))
    assert len(fs) == 4
    assert sorted(len(f.cone.rays) for f in fs) == [0, 1, 1, 2]


def test_faces_of_origin():
    z = cone_from_generators(2, [])
    assert len(faces(ColoredCone(z, frozenset()))) == 1


def test_faces_inherit_colors_by_membership():
    rec = ColorRecord((1, 0), {0})
    cc = colored_cone(2, [(0, 1)], [rec])
    by_rays = {f.cone.rays: f.colors for f in faces(cc)}
    assert by_rays[((1, 0),)] == frozenset([rec])
    assert by_rays[((0, 1),)] == frozenset()
    assert by_rays[()] == frozenset()
    assert by_rays[((0, 1), (1, 0))] == frozenset([rec])


def test_faces_closed_and_transitive():
    cc = ColoredCone(cone_from_generators(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)]),
                     frozenset())
    fs = faces(cc)
    assert len(fs) == 8  # simplicial: all coordinate faces
    for f in fs:
        assert faces(f) <= fs


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
    verdict = is_valid_fan(ColoredFan.build(faces(pos)), neg_orthant)
    assert not verdict.interior_ok and not verdict.ok


def test_axiom_closure_fails_for_missing_face(neg_orthant):
    base = ColoredCone(neg_orthant, frozenset())
    keep = [f for f in faces(base) if f.cone.rays != ((-1, 0),)]
    verdict = is_valid_fan(ColoredFan.build(keep), neg_orthant)
    assert verdict.interior_ok and verdict.separation_ok
    assert not verdict.closure_ok
    assert any("missing" in p for p in verdict.problems)


def test_axiom_separation_fails_for_duplicated_cone(neg_orthant):
    base = ColoredCone(neg_orthant, frozenset())
    recolored = ColoredCone(neg_orthant,
                            frozenset([ColorRecord((-1, 0), {0})]))
    fan = ColoredFan.build(list(faces(base)) + [recolored])
    verdict = is_valid_fan(fan, neg_orthant)
    assert not verdict.separation_ok


def test_valid_fan_with_two_maximal_cones():
    v = cone_from_generators(2, [(-1, 0), (0, -1)])
    left = ColoredCone(cone_from_generators(2, [(-1, 0), (-1, -1)]), frozenset())
    right = ColoredCone(cone_from_generators(2, [(-1, -1), (0, -1)]), frozenset())
    fan = ColoredFan.build(list(faces(left)) + list(faces(right)))
    verdict = is_valid_fan(fan, v)
    assert verdict.ok
    assert not is_wonderful(fan, v)  # two maximal cones


def test_is_wonderful_rejects_colors_and_subcones(neg_orthant):
    fan = wonderful_fan(neg_orthant)
    recolored = []
    for cc in fan.cones:
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


def test_transform_colored_cone_moves_colors():
    swap = IntMatrix.from_rows([[0, 1], [1, 0]])
    cc = colored_cone(2, [(0, 1)], [ColorRecord((1, 0), {0})])
    moved = transform_colored_cone(cc, swap, (1, 0))
    assert moved.cone.rays == ((0, 1), (1, 0))
    rec = next(iter(moved.colors))
    assert rec.rho == (0, 1) and rec.sigma == {1}


def test_stability_of_colored_fan_depends_on_color_symmetry():
    t2 = torus(2)
    swap = build_action(t2, [IntMatrix.from_rows([[0, 1], [1, 0]])], names=("s",))
    full = Lattice.full(2)
    sym_rec = [ColorRecord((1, 0), set()), ColorRecord((0, 1), set())]
    cc = colored_cone(2, [], sym_rec)
    fan = ColoredFan.build(faces(cc))
    assert is_gamma_stable(fan, swap, full).stable
    # same cone, but only one ray carries a color: swap breaks the symmetry
    asym = colored_cone(2, [(0, 1)], [ColorRecord((1, 0), set())])
    fan2 = ColoredFan.build(faces(asym))
    assert not is_gamma_stable(fan2, swap, full).stable
