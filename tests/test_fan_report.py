"""Differential test: check-fan's report on the face fan of the valuation
cone, which is decided from V's rays, against the face-fan path through the
library engines, which enumerates every face: `wonderful_fan`, then
`is_valid_fan`, `is_wonderful` and `is_gamma_stable`.

The reports must agree on `fan_valid`, `wonderful`, `stable`,
`violating_generator` and `problems`.  Where the engines name the first
face moved off the fan, the report names the least ray of V that the
violating generator moves off V's rays.  Inputs: every corpus file with
invariants, `tests/data/weight_lattice_rank_zero.json`, the draws of
acceptance criterion 7 with their signed permutations, a valuation cone
with lineality, an action that moves the weight lattice, and files in the
`spin8_trialitary` pattern on A2-A10.
"""
import random
from pathlib import Path

import pytest

from sphdescent import cones as cone_module
from sphdescent.checker import WonderfulReport, wonderful_stability_report
from sphdescent.cli import corpus_names, corpus_root
from sphdescent.cones import (
    NotStrictlyConvex,
    cone_from_generators,
    is_gamma_stable,
    is_valid_fan,
    is_wonderful,
    wonderful_fan,
)
from sphdescent.intlinalg import IntMatrix, Lattice
from sphdescent.invariants import SphericalInvariants
from sphdescent.problem import parse_dict, parse_file
from sphdescent.rootdata import torus
from sphdescent.staraction import build_action, dual_matrix_on_V
from test_acceptance import _random_strictly_convex_cone, _signed_permutation
from test_cli import spin8_pattern_on_a

DATA = Path(__file__).parent / "data"


def face_fan_report(invariants, action):
    """The report from the face fan with every face enumerated."""
    vcone = invariants.valuation_cone
    try:
        fan = wonderful_fan(vcone)
    except NotStrictlyConvex as e:
        return WonderfulReport(False, None, None, None, (str(e),), None)
    validity = is_valid_fan(fan, vcone)
    problems, stable, generator, rays = validity.problems, None, None, None
    if action is not None:
        sv = is_gamma_stable(fan, action, invariants.weight_lattice)
        stable, generator = sv.stable, sv.violating_generator
        if sv.violating_cone is not None:
            rays = fan.rays_of(sv.violating_cone.mask)
        elif not stable:
            problems += ("moves the weight lattice",)
    return WonderfulReport(validity.ok, is_wonderful(fan, vcone), stable,
                           generator, problems, rays)


def _torus_case(label, lattice_rows, cone_gens, maps, names):
    t = torus(len(cone_gens[0]))
    inv = SphericalInvariants(t, Lattice.from_rows(t.rank, lattice_rows),
                              cone_from_generators(t.rank, cone_gens),
                              frozenset(), frozenset())
    return label, inv, build_action(t, [IntMatrix.from_rows(m) for m in maps],
                                    names=names)


def _criterion_7_cases():
    """The cones and maps of acceptance criterion 7, from its seed."""
    rng = random.Random(20260825)
    cases = []
    for trial in range(60):
        dim = 2 + trial % 4
        cone = _random_strictly_convex_cone(rng, dim)
        m = IntMatrix.identity(dim) if trial % 5 == 0 \
            else _signed_permutation(rng, dim)
        t = torus(dim)
        cases.append((f"criterion 7 #{trial}",
                      SphericalInvariants(t, Lattice.full(dim), cone,
                                          frozenset(), frozenset()),
                      build_action(t, [m], names=("g",))))
    return cases


def _cases():
    cases = []
    for name in corpus_names():
        p = parse_file(corpus_root() / name)
        if p.invariants is not None:
            cases.append((name, p.invariants, p.action))
    p = parse_file(DATA / "weight_lattice_rank_zero.json")
    cases.append(("weight_lattice_rank_zero.json", p.invariants, p.action))
    cases += _criterion_7_cases()
    cases.append(_torus_case("lineality", [(1, 0), (0, 1)],
                             [(1, 0), (-1, 0), (0, 1)],
                             [[[0, -1], [1, 0]]], ("r",)))
    # f keeps the lattice and moves the cone, s moves the lattice
    cases.append(_torus_case("lattice moved", [(2, 0), (0, 1)],
                             [(1, 0), (1, 1)],
                             [[[-1, 0], [0, 1]], [[0, 1], [1, 0]]], ("f", "s")))
    for n in range(2, 11):
        p = parse_dict(spin8_pattern_on_a(n))
        cases.append((f"A{n} spin8 pattern", p.invariants, p.action))
    return cases


CASES = _cases()


def _outcome(r):
    return r.fan_valid, r.wonderful, r.stable, r.violating_generator, r.problems


@pytest.mark.parametrize("label,invariants,action", CASES,
                         ids=[c[0] for c in CASES])
def test_report_matches_the_face_fan(label, invariants, action):
    got = wonderful_stability_report(invariants, action)
    want = face_fan_report(invariants, action)
    assert _outcome(got) == _outcome(want)
    assert (got.violating_rays is None) == (want.violating_rays is None)
    if got.violating_rays is not None:
        # the least ray of V that the violating generator moves off V's rays
        [ray] = got.violating_rays
        vrays = invariants.valuation_cone.rays
        names = action.generator_names
        gen = action.generators[names.index(got.violating_generator)]
        dual = dual_matrix_on_V(gen, invariants.weight_lattice)
        assert ray in vrays and dual.apply(ray) not in vrays
        assert all(dual.apply(r) in vrays for r in vrays[:vrays.index(ray)])


def test_cases_reach_every_answer():
    answers = {(r.fan_valid, r.stable, r.violating_rays is None)
               for r in (face_fan_report(inv, a) for _, inv, a in CASES)}
    # lineality; stable; a moved face; a moved weight lattice
    assert answers == {(False, None, True), (True, True, True),
                       (True, False, False), (True, False, True)}


def test_the_witness_is_a_ray_where_the_engines_name_a_face():
    # f fixes (1, 0) and moves (1, 1) off V: the first face of V in
    # canonical order that f moves is V itself, the least moved ray is (1, 1)
    _, inv, f = _torus_case("flip", [(1, 0), (0, 1)], [(1, 0), (1, 1)],
                            [[[1, 0], [0, -1]]], ("f",))
    assert face_fan_report(inv, f).violating_rays == ((1, 0), (1, 1))
    assert wonderful_stability_report(inv, f).violating_rays == ((1, 1),)


def test_the_face_fan_report_enumerates_no_face(monkeypatch):
    def refuse(*args):
        raise AssertionError("a face was enumerated")

    monkeypatch.setattr(cone_module, "_face_masks", refuse)
    p = parse_dict(spin8_pattern_on_a(10))
    r = wonderful_stability_report(p.invariants, p.action)
    assert r.fan_valid and r.wonderful and r.stable
