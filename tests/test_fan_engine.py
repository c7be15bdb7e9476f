"""Differential tests: the fan layer on ray masks against the
`RationalCone`-based fan layer it replaced (`active_set_oracle`), which
converts every face and every image again and compares whole canonical
cones.

`wonderful_fan` and `ColoredFan.build` must list the same cones in the same
order, `is_valid_fan` must give an equal `FanVerdict` (every flag and every
problem string), `is_wonderful` the same answer, and `is_gamma_stable` an
equal `StabilityVerdict` (flag, generator and violating cone), or both raise
`LatticeMoved` for the same generator.  Inputs: seeded face fans in dims
2-6 under signed permutations and finite-order unimodular maps, colored
fans, the fans and valuation cones of the shipped corpus, and the fan files
under `tests/data`.  A last test counts Hermite normal forms: once the
valuation cone is built, the mask layer needs none.
"""
import random
import sys
from pathlib import Path

import pytest

import active_set_oracle as oracle
from sphdescent import intlinalg
from sphdescent.cli import corpus_names, corpus_root
from sphdescent.cones import (
    ColoredCone,
    ColoredFan,
    ColorRecord,
    colored_cone,
    cone_from_generators,
    faces,
    is_gamma_stable,
    is_valid_fan,
    is_wonderful,
    wonderful_fan,
)
from sphdescent.intlinalg import IntMatrix, Lattice
from sphdescent.problem import parse_file
from sphdescent.rootdata import torus
from sphdescent.staraction import LatticeMoved, build_action
from test_acceptance import _random_unimodular, _signed_permutation

DATA = Path(__file__).parent / "data"


def colored_cones(fan):
    """A fan's cones in full canonical form, in the fan's order."""
    return [fan.colored_cone(k) for k in range(len(fan))]


def _stability(check, fan, action, lattice):
    try:
        return check(fan, action, lattice)
    except LatticeMoved as e:
        return ("lattice moved", e.label)


def assert_fans_agree(fan, want, v_cone, actions=()):
    """`fan` against the oracle's list `want`, on every check."""
    assert colored_cones(fan) == want
    assert is_valid_fan(fan, v_cone) == oracle.is_valid_fan(want, v_cone)
    assert is_wonderful(fan, v_cone) == oracle.is_wonderful(want, v_cone)
    outcomes = []
    for action, lattice in actions:
        got = _stability(is_gamma_stable, fan, action, lattice)
        assert got == _stability(oracle.is_gamma_stable, want, action, lattice)
        outcomes.append(getattr(got, "stable", None))
    return outcomes


# -- face fans under signed permutations and unimodular maps -----------------

def _pointed_cone(rng, dim, k):
    while True:
        cone = cone_from_generators(
            dim, [tuple(rng.randint(-3, 3) for _ in range(dim)) for _ in range(k)])
        if cone.is_strictly_convex and cone.rays:
            return cone


def _orbit_cone(cone, dual):
    """The cone spanned by the orbit of the rays under `dual` on V, which
    the action of `dual`'s inverse transpose on X therefore fixes."""
    gens, new = set(cone.rays), list(cone.rays)
    while new:
        new = [dual.apply(g) for g in new if dual.apply(g) not in gens]
        gens.update(new)
    return cone_from_generators(cone.ambient_dim, sorted(gens))


# generators drawn per dimension: the oracle runs the simplex on every pair
# of faces and converts every face of every face again (3 s for the 32
# faces of a simplicial cone in dim 5, 40 s for the 64 in dim 6), so dims 5
# and 6 stay small
FACE_FAN_SIZES = {2: (2, 5), 3: (3, 6), 4: (4, 6), 5: (4, 5), 6: (3, 3)}


def _face_fan_cases():
    cases = []
    for dim, (low, high) in FACE_FAN_SIZES.items():
        rng = random.Random(f"face-fans-{dim}")
        for trial in range(6 if dim < 5 else 4):
            s = _signed_permutation(rng, dim)
            u = _random_unimodular(rng, dim)
            if trial % 2 == 0:
                cone = _pointed_cone(rng, dim, rng.randint(low, high))
            else:
                # a permutation p keeps the positive orthant, so the orbit of
                # positive rays under p spans a pointed cone that p fixes,
                # and u^-T moves it to one that u p u^-1 fixes: stable
                s = IntMatrix.from_rows([[abs(x) for x in row] for row in s.entries])
                if dim > 4:
                    # one transposition: an orbit of at most 4 rays
                    i, j = rng.sample(range(dim), 2)
                    s = IntMatrix.from_rows([[int(k == {i: j, j: i}.get(r, r))
                                              for k in range(dim)]
                                             for r in range(dim)])
                rays = [tuple(rng.randint(1, 3) for _ in range(dim))
                        for _ in range(rng.randint(1, 2))]
                cone = _orbit_cone(cone_from_generators(dim, rays), s)
                if trial % 4 == 3:
                    dual_u = u.inverse_unimodular().transpose()
                    cone = cone_from_generators(
                        dim, [dual_u.apply(r) for r in cone.rays])
            # u s u^-1 has the finite order of s but is no signed permutation
            cases.append((f"dim {dim} #{trial}", cone,
                          [s, u @ s @ u.inverse_unimodular()]))
    return cases


@pytest.mark.parametrize("label,cone,maps", _face_fan_cases())
def test_face_fans_match_the_oracle(label, cone, maps):
    dim = cone.ambient_dim
    actions = [(build_action(torus(dim), [m], names=("g",)), Lattice.full(dim))
               for m in maps]
    # two generators: the first that moves a cone is named; -1 moves every
    # pointed cone
    minus = IntMatrix.from_rows([[-int(i == j) for j in range(dim)]
                                 for i in range(dim)])
    actions.append((build_action(torus(dim), [maps[1], minus],
                                 names=("m", "minus")), Lattice.full(dim)))
    assert_fans_agree(wonderful_fan(cone), oracle.wonderful_fan(cone), cone,
                      actions)


def test_face_fan_cases_reach_both_stability_answers():
    seen = set()
    for _, cone, maps in _face_fan_cases():
        fan = wonderful_fan(cone)
        for m in maps:
            action = build_action(torus(cone.ambient_dim), [m], names=("g",))
            seen.add(is_gamma_stable(fan, action,
                                     Lattice.full(cone.ambient_dim)).stable)
    assert seen == {True, False}


# -- colored fans --------------------------------------------------------------

def _colored_fan_cases():
    swap2 = IntMatrix.from_rows([[0, 1], [1, 0]])
    cycle3 = IntMatrix.from_rows([[0, 0, 1], [1, 0, 0], [0, 1, 0]])
    rng = random.Random(7070)
    cases = []
    while len(cases) < 16:
        dim = rng.choice((2, 3))
        m = swap2 if dim == 2 else cycle3
        v = cone_from_generators(dim, [tuple(int(i == j) for j in range(dim))
                                       for i in range(dim)])
        pieces = []
        for _ in range(rng.randint(1, 2)):
            rays = [tuple(rng.randint(0, 2) for _ in range(dim))
                    for _ in range(rng.randint(1, dim))]
            rays = [r for r in rays if any(r)]
            if not rays:
                continue
            # colors on rays and inside, and their images under the map now
            # and then, so that stability can go either way
            colors = {ColorRecord(rng.choice(rays), set())}
            if rng.random() < 0.5:
                colors.add(ColorRecord(tuple(map(sum, zip(*rays))), set()))
            if rng.random() < 0.5:
                colors |= {ColorRecord(m.apply(c.rho), c.sigma) for c in colors}
            pieces.append(colored_cone(dim, rays, colors))
        if not pieces:
            continue
        cones = [cc for piece in pieces for cc in colored_cones(faces(piece))]
        if rng.random() < 0.3:
            cones.pop(rng.randrange(len(cones)))
        cases.append((f"colored {len(cases)}", cones, v, m))
    return cases


@pytest.mark.parametrize("label,cones,v_cone,m", _colored_fan_cases())
def test_colored_fans_match_the_oracle(label, cones, v_cone, m):
    dim = v_cone.ambient_dim
    brd = torus(dim)
    actions = [(build_action(brd, [m], names=("g",)), Lattice.full(dim)),
               (build_action(brd, []), Lattice.full(dim))]
    assert_fans_agree(ColoredFan.build(cones), oracle.fan(cones), v_cone,
                      actions)


def test_colored_face_fans_match_the_oracle():
    rec = ColorRecord((1, 0), {0})
    for cc in (colored_cone(2, [(0, 1)], [rec]),
               colored_cone(2, [], [rec, ColorRecord((0, 1), set())]),
               colored_cone(3, [(0, 1, 0), (0, 0, 1)],
                            [ColorRecord((1, 1, 1), set()),
                             ColorRecord((1, 0, 0), set())])):
        got = faces(cc)
        assert colored_cones(got) == oracle.fan(oracle.faces(cc))


# -- the corpus and the fan files under tests/data ------------------------------

def _problem_cases():
    paths = [corpus_root() / name for name in corpus_names()]
    paths += [DATA / "fan_ray_sums_outside.json", DATA / "fan_maximal_cones_only.json"]
    cases = []
    for path in paths:
        p = parse_file(path)
        if p.invariants is not None:
            cases.append(pytest.param(p, id=path.name))
    return cases


@pytest.mark.parametrize("problem", _problem_cases())
def test_problem_fans_match_the_oracle(problem):
    inv = problem.invariants
    actions = [] if problem.action is None else \
        [(problem.action, inv.weight_lattice)]
    v = inv.valuation_cone
    if problem.fan is not None:
        cones = colored_cones(problem.fan)
        assert_fans_agree(problem.fan, oracle.fan(cones), v, actions)
    if v.is_strictly_convex:
        assert_fans_agree(wonderful_fan(v), oracle.wonderful_fan(v), v, actions)


def test_maximal_cones_only_file():
    p = parse_file(DATA / "fan_maximal_cones_only.json")
    fan, v = p.fan, p.invariants.valuation_cone
    assert len(fan) == 2
    verdict = is_valid_fan(fan, v)
    assert verdict.interior_ok and verdict.separation_ok
    assert not verdict.closure_ok and len(verdict.problems) == 6
    sv = is_gamma_stable(fan, p.action, p.invariants.weight_lattice)
    # the swap maps each maximal cone's rays onto the other's: only the
    # colors tell the image apart from a fan cone
    assert not sv.stable and sv.violating_generator == "s"
    assert sv.violating_cone.cone.rays == ((0, 1), (1, 1))
    assert sv.violating_cone.colors == frozenset()


# -- no Hermite normal form on the mask layer -----------------------------------

@pytest.fixture()
def hnf_calls(monkeypatch):
    """Counts calls of intlinalg.hnf and kernel_lattice from any module."""
    calls = []
    modules = [m for k, m in sys.modules.items()
               if (k == "sphdescent" or k.startswith("sphdescent.")) and m]
    for attr in ("hnf", "kernel_lattice"):
        original = getattr(intlinalg, attr)

        def counted(*args, _original=original, _attr=attr):
            calls.append(_attr)
            return _original(*args)

        for mod in modules:
            if getattr(mod, attr, None) is original:
                monkeypatch.setattr(mod, attr, counted)
    return calls


def test_mask_layer_computes_no_hermite_form(hnf_calls):
    # the orbit of two positive rays under the cyclic shift: a pointed cone
    # the shift fixes, on V as on X, since a permutation matrix is its own
    # inverse transpose
    shift = IntMatrix.from_rows([[int(j == (i + 1) % 5) for j in range(5)]
                                 for i in range(5)])
    cone = _orbit_cone(cone_from_generators(5, [(1, 2, 0, 0, 1), (3, 1, 1, 0, 0)]),
                       shift)
    full = Lattice.full(5)
    action = build_action(torus(5), [shift], names=("s",))
    assert hnf_calls  # the counter sees the conversions and the closure
    hnf_calls.clear()
    fan = wonderful_fan(cone)
    assert len(fan) > 20
    assert is_valid_fan(fan, cone).ok
    assert is_gamma_stable(fan, action, full).stable
    assert hnf_calls == []
