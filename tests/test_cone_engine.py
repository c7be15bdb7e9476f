"""Differential tests: the double-description cone engine against the
active-set engine it replaced (`active_set_oracle.py`).

Canonical cones must be byte-identical in both conversion directions; the
face lattices, each face's relative interior, the images under signed
permutations and unimodular maps and the invariance test on them must
agree, and the fan checks must give identical verdicts, the oracle's taking
its meets from the simplex in `simplex_oracle.py`.  Inputs: the cones of
acceptance criteria 7 and 8 and a seeded grid of dims 2-5 with dim..dim+3
generators, plus dim 6 with at most 8 generators, small enough for the
exponential oracle.
"""
import random
from itertools import product
from pathlib import Path

import pytest

import active_set_oracle as oracle
from active_set_oracle import colored_cones
from closure_oracle import elements
from sphdescent import cones
from sphdescent.cli import corpus_names, corpus_root
from sphdescent.cones import (
    ColoredCone,
    ColoredFan,
    ColorRecord,
    _relint,
    _relint_contains,
    cone_from_generators,
    cone_from_inequalities,
    faces,
    is_valid_fan,
    is_wonderful,
    wonderful_fan,
)
from sphdescent.intlinalg import IntMatrix, Lattice, kernel_lattice
from sphdescent.invariants import SphericalInvariants, preserves_invariants
from sphdescent.problem import parse_file, parse_text
from sphdescent.rootdata import BRDAutomorphism, torus
from sphdescent.staraction import build_action, dual_matrix_on_V
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
            out += [(name, cc.cone, None) for cc in colored_cones(p.fan)]
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


@pytest.fixture()
def kernel_calls(monkeypatch):
    """Counts the Hermite kernels `cones` computes."""
    calls = []

    def counted(m):
        calls.append(m)
        return kernel_lattice(m)

    monkeypatch.setattr(cones, "kernel_lattice", counted)
    return calls


def test_full_rank_conversions_compute_no_kernel(kernel_calls):
    # a pointed cone of full dimension: the generators and the facets both
    # have full rank, so both kernels are {0}
    full = [(dim, gens) for dim, gens in CRITERION_7
            if not cone_from_generators(dim, gens).equations]
    assert len(full) > 50
    kernel_calls.clear()
    for dim, gens in full:
        cone_from_generators(dim, gens)
    assert kernel_calls == []


def test_lineality_conversions_compute_one_lineality_kernel(kernel_calls):
    # a cone of full dimension with a lineality and a facet: the generators
    # have full rank, so the one kernel is the lineality's, taken of the
    # facets (the whole space, with no facet, needs none)
    drawn = [(dim, gens + [tuple(-x for x in gens[0])])
             for dim, gens in CRITERION_7]
    lineal = [(dim, gens) for dim, gens in drawn
              for cone in [cone_from_generators(dim, gens)]
              if cone.lineality and cone.inequalities and not cone.equations]
    assert len(lineal) > 50
    for dim, gens in lineal:
        kernel_calls.clear()
        got = cone_from_generators(dim, gens)
        assert len(kernel_calls) == 1
        assert kernel_calls[0].entries == got.inequalities
        assert got == oracle.cone_from_generators(dim, gens)


@pytest.mark.parametrize("dim,gens", [
    (2, [(1, 0), (-1, 0), (0, 1)]),  # a half-plane: lineality
    (3, [(1, 1, 0), (1, 0, 0)]),  # a lower-dimensional span
    (3, [(1, 2, 3), (-1, -2, -3), (0, 1, 1)]),  # both
    (4, [(1, 0, 0, 0), (-1, 0, 0, 0), (0, 1, 0, 0), (0, -1, 0, 0)]),
    *[(dim, gens[:dim - 1]) for dim, gens in CRITERION_7[:8]],
    *[(dim, gens + [tuple(-x for x in gens[0])]) for dim, gens in CRITERION_7[:8]],
])
def test_rank_deficient_conversions_take_the_kernel(kernel_calls, dim, gens):
    got = cone_from_generators(dim, gens)
    assert got.lineality or got.equations
    assert got == oracle.cone_from_generators(dim, gens)
    # only the whole space, with no rows to take a kernel of, needs none
    assert kernel_calls or not (got.inequalities or got.equations)


@pytest.mark.parametrize("name,cone,problem", CORPUS)
def test_corpus_cones_match_active_set_engine(name, cone, problem):
    dim = cone.ambient_dim
    assert oracle.cone_from_generators(dim, cone.generators()) == cone, name
    assert oracle.cone_from_inequalities(
        dim, cone.inequalities, cone.equations) == cone, name


def _assert_faces_match(cone):
    got = faces(ColoredCone(cone, frozenset()))
    assert {got.rays_of(fc.mask) for fc in got.cones} == oracle.face_ray_sets(cone)
    # each face's relative interior, read off the parent's facets, holds the
    # same sums of the parent's rays as the oracle's face converted again:
    # a sum of rays is interior to the least face that holds them all
    rng = random.Random(str(cone.rays))
    dim = cone.ambient_dim
    points = []
    for _ in range(12):
        pick = rng.sample(cone.rays, rng.randint(0, len(cone.rays)))
        points.append(tuple(sum(r[j] for r in pick) for j in range(dim)))
    for fc, parent in zip(got.cones, got.parents):
        want = oracle.cone_from_generators(dim, got.rays_of(fc.mask))
        relint = _relint(parent, fc.mask)
        for p in points:
            assert _relint_contains(relint, p) == oracle._relint_contains(want, p)


@pytest.mark.parametrize("dim,gens", POINTED)
def test_faces_match_active_set_engine(dim, gens):
    _assert_faces_match(cone_from_generators(dim, gens))


@pytest.mark.parametrize("name,cone,problem", CORPUS)
def test_corpus_faces_match_active_set_engine(name, cone, problem):
    if cone.is_strictly_convex:
        _assert_faces_match(cone)


def _assert_images_match(cone, m):
    """A unimodular map on V sends a strictly convex cone's extreme rays to
    its image's, which the stability check reads off, and the invariance
    check's two containments say whether it fixes the cone."""
    moved = oracle.image(cone, m)
    if cone.is_strictly_convex:
        assert moved.rays == tuple(sorted(m.apply(r) for r in cone.rays))
    dim = cone.ambient_dim
    inv = SphericalInvariants(torus(dim), Lattice.full(dim), cone,
                              frozenset(), frozenset())
    # the automorphism of X whose inverse transpose is m
    element = BRDAutomorphism(m.inverse_unimodular().transpose(), ())
    verdict = preserves_invariants(build_action(torus(dim), []), element, inv)
    kept = moved == cone
    assert verdict.problems == (() if kept else ("moves the valuation cone",))
    return kept


@pytest.mark.parametrize("dim,gens", CRITERION_7 + GRID)
def test_images_match_active_set_engine(dim, gens):
    rng = random.Random(str(gens))
    cone = cone_from_generators(dim, gens)
    for m in (_signed_permutation(rng, dim), _random_unimodular(rng, dim)):
        _assert_images_match(cone, m)
    if dim <= 4:
        # closed under a signed involution s, so fixed by it
        s = _signed_involution(rng, dim)
        sym = cone_from_generators(dim, gens + [s.apply(g) for g in gens])
        assert _assert_images_match(sym, s)


def _signed_involution(rng, dim):
    rows = [[0] * dim for _ in range(dim)]
    perm = list(range(dim))
    rng.shuffle(perm)
    for i in range(0, dim - 1, 2):
        a, b = perm[i], perm[i + 1]
        rows[a][b] = rows[b][a] = rng.choice((1, -1))
    for i in perm[dim - dim % 2:]:
        rows[i][i] = rng.choice((1, -1))
    return IntMatrix.from_rows(rows)


@pytest.mark.parametrize("name,cone,problem", CORPUS)
def test_corpus_images_match_active_set_engine(name, cone, problem):
    rng = random.Random(name)
    maps = [_random_unimodular(rng, cone.ambient_dim)]
    if problem is not None and problem.action is not None:
        maps += [dual_matrix_on_V(g, problem.invariants.weight_lattice)
                 for g in elements(problem.action)]
    for m in maps:
        _assert_images_match(cone, m)


def _fan_cases():
    neg = cone_from_generators(2, [(-1, 0), (0, -1)])
    pos = cone_from_generators(2, [(1, 0), (0, 1)])
    base = ColoredCone(neg, frozenset())
    left = ColoredCone(cone_from_generators(2, [(-1, 0), (-1, -1)]), frozenset())
    right = ColoredCone(cone_from_generators(2, [(-1, -1), (0, -1)]), frozenset())
    recolored = ColoredCone(neg, frozenset([ColorRecord((-1, 0), {0})]))
    base_faces = colored_cones(faces(base))
    cases = [
        ("wrong side", colored_cones(faces(ColoredCone(pos, frozenset()))), neg),
        ("missing face",
         [f for f in base_faces if f.cone.rays != ((-1, 0),)], neg),
        ("duplicated cone", base_faces + [recolored], neg),
        ("two maximal cones",
         colored_cones(faces(left)) + colored_cones(faces(right)), neg),
        ("overlapping maximal cones",
         base_faces + colored_cones(faces(left)), neg),
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
        fan = colored_cones(faces(ColoredCone(a, frozenset())))
        fan += colored_cones(faces(ColoredCone(b, frozenset())))
        if rng.random() < 0.3:
            fan.pop(rng.randrange(len(fan)))
        cases.append((f"random {len(cases)}", fan, v))
    # cones that reach past the valuation cone, so that the sum of a cone's
    # rays often misses it and the meets go to the feasibility test
    data = parse_file(DATA / "fan_ray_sums_outside.json")
    cases.append(("ray sums outside", colored_cones(data.fan),
                  data.invariants.valuation_cone))
    while len(cases) < 40:
        dim = rng.choice((2, 3))
        a, b, v = (cone_from_generators(
            dim, [tuple(rng.randint(-1, 3) for _ in range(dim))
                  for _ in range(rng.randint(1, dim + 1))]) for _ in range(3))
        if not (a.rays and b.rays and v.rays and a.is_strictly_convex
                and b.is_strictly_convex):
            continue
        fan = colored_cones(faces(ColoredCone(a, frozenset())))
        fan += colored_cones(faces(ColoredCone(b, frozenset())))
        cases.append((f"reaching past {len(cases)}", fan, v))
    # the 2-faces through (-1,0,0) are covered by the orthant, and miss
    # that ray with it: the problems name all three cones
    orthant = cone_from_generators(3, [(-1, 0, 0), (0, -1, 0), (0, 0, -1)])
    cases.append(("covered cones share a missing face",
                  [f for f in colored_cones(faces(ColoredCone(orthant, frozenset())))
                   if f.cone.rays != ((-1, 0, 0),)], orthant))
    three = [ColoredCone(cone_from_generators(2, gens), frozenset()) for gens in
             ([(1, 0), (1, 2)], [(2, 1), (1, 3)], [(1, 1), (0, 1)])]
    cases.append(("three overlapping maximal cones",
                  [f for cc in three for f in colored_cones(faces(cc))],
                  cone_from_generators(2, [(1, 0), (0, 1)])))
    # one mask with two colorings: neither cone covers the other
    red, blue = (ColoredCone(neg, frozenset([ColorRecord(rho, sigma)]))
                 for rho, sigma in (((-1, 0), {0}), ((0, -1), {1})))
    cases.append(("one mask, two colorings",
                  colored_cones(faces(red)) + colored_cones(faces(blue)), neg))
    return cases


@pytest.mark.parametrize("label,cones,v_cone", _fan_cases())
def test_fan_verdicts_match_active_set_engine(label, cones, v_cone):
    fan, want = ColoredFan.build(cones), oracle.fan(cones)
    assert colored_cones(fan) == want, label
    assert is_valid_fan(fan, v_cone) == oracle.is_valid_fan(want, v_cone), label
    assert is_wonderful(fan, v_cone) == oracle.is_wonderful(want, v_cone), label


def test_face_fan_verdicts_match_active_set_engine():
    for dim, gens in CRITERION_7[:16]:
        if dim == 5:
            continue  # the oracle's pairwise checks take seconds a fan
        cone = cone_from_generators(dim, gens)
        assert is_valid_fan(wonderful_fan(cone), cone) == \
            oracle.is_valid_fan(oracle.wonderful_fan(cone), cone)


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
    assert cone.is_strictly_convex and cone.equations == ()
    assert all(sum(a * b for a, b in zip(c, g)) >= 0
               for c in cone.inequalities for g in gens)
    directions = {oracle._primitive(g) for g in gens if any(g)}
    assert set(cone.rays) <= directions
    for c in cone.inequalities:
        tight = [r for r in cone.rays if sum(a * b for a, b in zip(c, r)) == 0]
        # the tight rays span a hyperplane: dim - 1 independent rays
        assert kernel_lattice(IntMatrix.from_rows(tight, cols=dim)).rank == 1
    assert len(cone.rays) > dim and len(cone.inequalities) > dim
