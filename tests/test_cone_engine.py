"""Differential tests: the double-description cone engine against the
active-set engine it replaced (`active_set_oracle.py`).

Canonical cones must be byte-identical in both conversion directions, on
every face and on images under signed permutations and unimodular maps, and
the fan checks must give identical verdicts, the oracle's taking its meets
from the simplex in `simplex_oracle.py`.  Inputs: the cones of
acceptance criteria 7 and 8 and a seeded grid of dims 2-5 with dim..dim+3
generators, plus dim 6 with at most 8 generators, small enough for the
exponential oracle.
"""
import random
from itertools import product
from pathlib import Path

import pytest

import active_set_oracle as oracle
from sphdescent.cli import corpus_names, corpus_root
from sphdescent.cones import (
    ColoredCone,
    ColoredFan,
    ColorRecord,
    cone_from_generators,
    cone_from_inequalities,
    faces,
    is_valid_fan,
    is_wonderful,
    wonderful_fan,
)
from sphdescent.intlinalg import IntMatrix, kernel_lattice
from sphdescent.problem import parse_file, parse_text
from sphdescent.staraction import dual_matrix_on_V
from test_acceptance import _random_unimodular, _signed_permutation


def _criterion_7_draws():
    """The generator lists acceptance criterion 7 draws, from its seed."""
    rng = random.Random(20260825)
    draws = []
    for trial in range(60):
        dim = 2 + trial % 4
        while True:
            k = rng.randint(dim, dim + 3)
            gens = [tuple(rng.randint(-3, 3) for _ in range(dim))
                    for _ in range(k)]
            cone = cone_from_generators(dim, gens)
            if cone.is_strictly_convex and cone.rays:
                break
        draws.append((dim, gens))
        if trial % 5:
            _signed_permutation(rng, dim)  # keep the stream aligned
    return draws


def _draw(dim, k, count):
    rng = random.Random(f"grid-{dim}-{k}")
    return [(dim, [tuple(rng.randint(-3, 3) for _ in range(dim))
                   for _ in range(k)]) for _ in range(count)]


def _grid_draws():
    """Seeded random rows: dims 2-5 with dim..dim+3 rows, dim 6 with 6-7."""
    draws = []
    for dim in range(2, 6):
        for k in range(dim, dim + 4):
            draws += _draw(dim, k, 2)
    return draws + _draw(6, 6, 1) + _draw(6, 7, 1)


def _corpus_cones():
    """Valuation cones and fan cones of the shipped corpus (criterion 8)."""
    out = []
    for name in corpus_names():
        p = parse_text((corpus_root() / name).read_text("utf-8"))
        if p.invariants is None:
            continue
        out.append((name, p.invariants.valuation_cone, p))
        if p.fan is not None:
            out += [(name, cc.cone, None) for cc in p.fan.cones]
    return out


DATA = Path(__file__).parent / "data"
CRITERION_7 = _criterion_7_draws()
GRID = _grid_draws()
POINTED = [(dim, gens) for dim, gens in CRITERION_7 + GRID
           if cone_from_generators(dim, gens).is_strictly_convex]
CORPUS = _corpus_cones()


@pytest.mark.parametrize("dim,gens", CRITERION_7 + GRID)
def test_conversions_match_active_set_engine(dim, gens):
    assert cone_from_generators(dim, gens) == \
        oracle.cone_from_generators(dim, gens)
    assert cone_from_inequalities(dim, gens) == \
        oracle.cone_from_inequalities(dim, gens)
    # one row turned into an equation exercises the equation path
    assert cone_from_inequalities(dim, gens[1:], gens[:1]) == \
        oracle.cone_from_inequalities(dim, gens[1:], gens[:1])


def test_dim_6_with_8_generators_matches_active_set_engine():
    # the oracle takes seconds a conversion here, so this draw is only
    # converted once
    [(dim, gens)] = _draw(6, 8, 1)
    assert cone_from_generators(dim, gens) == \
        oracle.cone_from_generators(dim, gens)


@pytest.mark.parametrize("name,cone,problem", CORPUS)
def test_corpus_cones_match_active_set_engine(name, cone, problem):
    dim = cone.ambient_dim
    assert oracle.cone_from_generators(dim, cone.generators()) == cone, name
    assert oracle.cone_from_inequalities(
        dim, cone.inequalities, cone.equations) == cone, name


def _assert_faces_match(cone):
    got = faces(ColoredCone(cone, frozenset()))
    assert {f.cone.rays for f in got} == oracle.face_ray_sets(cone)
    # the cone itself is its top face, compared with the oracle elsewhere
    for f in got:
        if f.cone != cone:
            assert f.cone == oracle.cone_from_generators(cone.ambient_dim,
                                                         f.cone.rays)


@pytest.mark.parametrize("dim,gens", POINTED)
def test_faces_match_active_set_engine(dim, gens):
    _assert_faces_match(cone_from_generators(dim, gens))


@pytest.mark.parametrize("name,cone,problem", CORPUS)
def test_corpus_faces_match_active_set_engine(name, cone, problem):
    if cone.is_strictly_convex:
        _assert_faces_match(cone)


@pytest.mark.parametrize("dim,gens", CRITERION_7 + GRID)
def test_images_match_active_set_engine(dim, gens):
    rng = random.Random(str(gens))
    cone = cone_from_generators(dim, gens)
    for m in (_signed_permutation(rng, dim), _random_unimodular(rng, dim)):
        assert cone.image(m) == oracle.image(cone, m)


@pytest.mark.parametrize("name,cone,problem", CORPUS)
def test_corpus_images_match_active_set_engine(name, cone, problem):
    rng = random.Random(name)
    maps = [_random_unimodular(rng, cone.ambient_dim)]
    if problem is not None and problem.action is not None:
        maps += [dual_matrix_on_V(g, problem.invariants.weight_lattice)
                 for g in problem.action.elements]
    for m in maps:
        assert cone.image(m) == oracle.image(cone, m), name


def _fan_cases():
    neg = cone_from_generators(2, [(-1, 0), (0, -1)])
    pos = cone_from_generators(2, [(1, 0), (0, 1)])
    base = ColoredCone(neg, frozenset())
    left = ColoredCone(cone_from_generators(2, [(-1, 0), (-1, -1)]), frozenset())
    right = ColoredCone(cone_from_generators(2, [(-1, -1), (0, -1)]), frozenset())
    recolored = ColoredCone(neg, frozenset([ColorRecord((-1, 0), {0})]))
    cases = [
        ("wrong side", faces(ColoredCone(pos, frozenset())), neg),
        ("missing face",
         [f for f in faces(base) if f.cone.rays != ((-1, 0),)], neg),
        ("duplicated cone", list(faces(base)) + [recolored], neg),
        ("two maximal cones", list(faces(left)) + list(faces(right)), neg),
        ("overlapping maximal cones",
         list(faces(base)) + list(faces(left)), neg),
    ]
    # unions of two face fans inside the cone they span: overlapping
    # interiors, faces shared or not, and a dropped face now and then
    rng = random.Random(4040)
    while len(cases) < 25:
        dim = rng.choice((2, 3))
        a, b = (cone_from_generators(
            dim, [tuple(rng.randint(0, 3) for _ in range(dim))
                  for _ in range(rng.randint(1, dim + 1))]) for _ in range(2))
        v = cone_from_generators(dim, a.rays + b.rays)
        if not (a.rays and b.rays and v.is_strictly_convex):
            continue
        fan = list(faces(ColoredCone(a, frozenset())))
        fan += faces(ColoredCone(b, frozenset()))
        if rng.random() < 0.3:
            fan.pop(rng.randrange(len(fan)))
        cases.append((f"random {len(cases)}", fan, v))
    # cones that reach past the valuation cone, so that the sum of a cone's
    # rays often misses it and the meets go to the feasibility test
    data = parse_file(DATA / "fan_ray_sums_outside.json")
    cases.append(("ray sums outside", data.fan.cones,
                  data.invariants.valuation_cone))
    while len(cases) < 40:
        dim = rng.choice((2, 3))
        a, b, v = (cone_from_generators(
            dim, [tuple(rng.randint(-1, 3) for _ in range(dim))
                  for _ in range(rng.randint(1, dim + 1))]) for _ in range(3))
        if not (a.rays and b.rays and v.rays and a.is_strictly_convex
                and b.is_strictly_convex):
            continue
        fan = list(faces(ColoredCone(a, frozenset())))
        fan += faces(ColoredCone(b, frozenset()))
        cases.append((f"reaching past {len(cases)}", fan, v))
    return cases


@pytest.mark.parametrize("label,cones,v_cone", _fan_cases())
def test_fan_verdicts_match_active_set_engine(label, cones, v_cone):
    fan = ColoredFan.build(cones)
    assert is_valid_fan(fan, v_cone) == oracle.is_valid_fan(fan, v_cone), label
    assert is_wonderful(fan, v_cone) == oracle.is_wonderful(fan, v_cone), label


def test_face_fan_verdicts_match_active_set_engine():
    for dim, gens in CRITERION_7[:16]:
        if dim == 5:
            continue  # the oracle's pairwise checks take seconds a fan
        cone = cone_from_generators(dim, gens)
        fan = wonderful_fan(cone)
        assert is_valid_fan(fan, cone) == oracle.is_valid_fan(fan, cone)


def test_dim_6_with_12_generators():
    """Too big for the oracle: checked by the defining properties."""
    dim = 6
    normals = [c for c in product((-1, 0, 1), repeat=dim) if any(c)]
    rng = random.Random(6012)
    while True:
        gens = [tuple(rng.randint(-3, 3) for _ in range(dim))
                for _ in range(12)]
        # a normal positive on every generator proves the cone pointed
        if any(all(sum(a * b for a, b in zip(c, g)) > 0 for g in gens)
               for c in normals):
            break
    cone = cone_from_generators(dim, gens)
    assert cone.is_strictly_convex and cone.dim == dim
    assert all(sum(a * b for a, b in zip(c, g)) >= 0
               for c in cone.inequalities for g in gens)
    directions = {oracle._primitive(g) for g in gens if any(g)}
    assert set(cone.rays) <= directions
    for c in cone.inequalities:
        tight = [r for r in cone.rays if sum(a * b for a, b in zip(c, r)) == 0]
        # the tight rays span a hyperplane: dim - 1 independent rays
        assert kernel_lattice(IntMatrix.from_rows(tight, cols=dim)).rank == 1
    assert len(cone.rays) > dim and len(cone.inequalities) > dim
