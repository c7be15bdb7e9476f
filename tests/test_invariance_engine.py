"""Differential tests: the per-element transport to V and the generator-level
invariance decision against the HNF-checked transport and the closure-wide
loops they replaced (`invariance_oracle.py`).

Inputs: every corpus file and the seeded re-presentations of acceptance
criterion 8, with every closure element of each action on the file's weight
lattice and on the lattice of its horospherical characters; sublattices that
an action moves; seeded sublattices, saturated or not, under the D4
diagram automorphisms and signed permutations of Z^3; the generators of
seeded actions, with the inverses build_action read off their closure, on
full, kept and moved lattices; and seeded
horospherical data (I, M = L/d) on types A-G up to rank 6 in both
isogenies, under actions generated by lifted diagram automorphisms, and
on the sum of two copies of each under one generator that swaps them.
"""
import json
import random
from fractions import Fraction

import pytest

import invariance_oracle as oracle
from closure_oracle import elements
from sphdescent.checker import invariance_entries
from sphdescent.cli import corpus_names, corpus_root
from sphdescent.intlinalg import IntMatrix, Lattice
from sphdescent.invariants import HorosphericalDatum, RationalLattice, preserves_invariants
from sphdescent.problem import parse_dict, parse_text
from sphdescent.rootdata import build_root_datum, direct_sum, torus
from sphdescent.staraction import build_action, dual_matrix_on_V
from test_acceptance import _restate, _signed_permutation
from test_interned_data import cartan_preserving


def _problems():
    """Each corpus file with an action, then its re-presentations as
    criterion 8 draws them."""
    rng = random.Random(88)
    out = []
    for name in corpus_names():
        text = (corpus_root() / name).read_text("utf-8")
        out.append((name, parse_text(text)))
        data = json.loads(text)
        out += [(f"{name} r{i}", parse_dict(_restate(data, rng)))
                for i in range(3)]
    return [(name, p) for name, p in out if p.action is not None]


PROBLEMS = _problems()
IDS = [name for name, _ in PROBLEMS]


def _lattices(problem):
    out = []
    if problem.invariants is not None:
        out.append(problem.invariants.weight_lattice)
    if problem.horospherical is not None:
        out.append(problem.horospherical.characters.lattice)
    return out


def _check_transport(action, lattice):
    """Same result as the oracle on every closure element; True if one of
    them moves the lattice."""
    moved = False
    for el in elements(action):
        dual = dual_matrix_on_V(el, lattice)
        assert dual == oracle.dual_matrix_on_V(el, lattice)
        moved = moved or dual is None
    return moved


@pytest.mark.parametrize("name,problem", PROBLEMS, ids=IDS)
def test_transport_matches_hnf_checked_oracle(name, problem):
    for lattice in _lattices(problem):
        _check_transport(problem.action, lattice)


@pytest.mark.parametrize("name,problem", PROBLEMS, ids=IDS)
def test_invariance_decision_matches_closure_oracle(name, problem):
    inp = problem.invariance_input
    expected = (oracle.preserves_horospherical(problem.action, inp)
                if isinstance(inp, HorosphericalDatum)
                else oracle.closure_preserves(problem.action, inp))
    assert invariance_entries(problem.action, inp)[0] == expected


def test_corpus_exercises_both_outcomes():
    # no corpus action moves its lattices; the tests below cover that case
    outcomes = [invariance_entries(p.action, p.invariance_input)[0]
                for _, p in PROBLEMS]
    assert True in outcomes and False in outcomes


def test_transport_on_moved_sublattices():
    d4 = build_root_datum("D", 4)
    c = d4.cartan_matrix.entries
    alpha1 = tuple(c[i][0] for i in range(4))
    line = Lattice.from_rows(4, [alpha1])
    for gens in ([(2, 1, 3, 0)], [(2, 1, 3, 0), (0, 1, 3, 2)]):
        assert _check_transport(build_action(d4, gens), line)
    rotation = build_action(torus(2), [IntMatrix.from_rows([[0, -1], [1, 0]])],
                            names=("r",))
    doubled = Lattice.from_rows(2, [(2, 0), (0, 1)])
    assert _check_transport(rotation, doubled)


def _random_lattices(rng, dim, count):
    out = [Lattice.full(dim), Lattice.from_rows(dim, [(2,) * dim]),
           Lattice.from_rows(dim, [tuple(2 * int(i == j) for j in range(dim))
                                   for i in range(dim)])]
    while len(out) < count:
        rows = [tuple(rng.randint(-2, 2) for _ in range(dim))
                for _ in range(rng.randint(1, dim))]
        out.append(Lattice.from_rows(dim, rows))
    return out


def test_transport_on_seeded_sublattices():
    rng = random.Random(5)
    d4 = build_root_datum("D", 4)
    s3 = build_action(d4, [(2, 1, 3, 0), (0, 1, 3, 2)])
    c = d4.cartan_matrix.entries
    roots = Lattice.from_rows(4, [tuple(c[i][j] for i in range(4))
                                  for j in range(4)])
    moved = [_check_transport(s3, lattice)
             for lattice in [roots] + _random_lattices(rng, 4, 40)]
    for _ in range(10):
        action = build_action(torus(3), [_signed_permutation(rng, 3)])
        moved += [_check_transport(action, lattice)
                  for lattice in _random_lattices(rng, 3, 15)]
    assert moved.count(False) >= 30 and moved.count(True) >= 30


def test_generator_transport_matches_the_oracle():
    # build_action's generators carry the inverse read off the closure, and
    # the transport restricts it with no elimination: compared on Z^n, on
    # proper sublattices that a generator keeps, and on ones it moves
    rng = random.Random(30)
    actions = [build_action(torus(dim), [_signed_permutation(rng, dim)])
               for dim in range(1, 7) for _ in range(5)]
    for letter, rank in (("A", 3), ("D", 4), ("E", 6)):
        for isogeny in ("simply_connected", "adjoint"):
            brd = build_root_datum(letter, rank, isogeny)
            actions.append(build_action(brd, cartan_preserving(brd.cartan_matrix.entries)))
    seen = set()
    for action in actions:
        for lattice in _random_lattices(rng, action.brd.rank, 12):
            for g in action.generators:
                dual = dual_matrix_on_V(g, lattice)
                assert dual == oracle.dual_matrix_on_V(g, lattice)
                seen.add("moved" if dual is None else "full" if lattice.is_full()
                         else "kept")
    assert seen == {"full", "kept", "moved"}


HORO_TYPES = ([("A", n) for n in range(1, 7)] + [("B", n) for n in range(2, 7)]
              + [("C", n) for n in range(2, 7)] + [("D", n) for n in range(3, 7)]
              + [("E", 6), ("F", 4), ("G", 2)])
HORO_DATA = [(t, n, iso) for t, n in HORO_TYPES for iso in ("simply_connected", "adjoint")]


def _horospherical_draws(letter, rank, isogeny, count=10):
    """Seeded (action, datum, d) triples on one root datum.  The action is
    generated by lifted diagram automorphisms; I is random or a union of
    orbits of the diagram action; M = L/d with d in 1..4, and L is spanned
    by random rows or by their sums over the action's image, which it keeps."""
    rng = random.Random(f"{letter}{rank}{isogeny}")
    brd = build_root_datum(letter, rank, isogeny)
    autos = [p for p in cartan_preserving(brd.cartan_matrix.entries) if p != tuple(range(rank))]
    out = []
    for k in range(count):
        action = build_action(brd, rng.sample(autos, rng.randint(min(1, len(autos)), len(autos))))
        group = elements(action)
        subset = set(rng.sample(range(rank), rng.randint(0, rank)))
        if k % 2:
            subset = {g.s_perm[i] for i in subset for g in group}
        rows = [tuple(rng.randint(-3, 3) for _ in range(rank)) for _ in range(rng.randint(1, rank))]
        if k % 4 < 2:
            rows = [tuple(map(sum, zip(*(g.matrix.apply(v) for g in group)))) for v in rows]
        d = rng.randint(1, 4)
        characters = RationalLattice.from_generators(
            rank, [tuple(Fraction(x, d) for x in r) for r in rows])
        out.append((action, HorosphericalDatum(frozenset(subset), characters), d))
    return out


@pytest.mark.parametrize("letter,rank,isogeny", HORO_DATA)
def test_horospherical_decision_matches_closure_oracle(letter, rank, isogeny):
    for action, datum, _ in _horospherical_draws(letter, rank, isogeny):
        assert (invariance_entries(action, datum)[0]
                == oracle.preserves_horospherical(action, datum)), datum


def test_horospherical_draws_reach_both_answers_with_denominators():
    # under nontrivial actions and with M = L/d, d > 1 in canonical form:
    # both answers, and M moved with I kept, I moved with M kept, and both
    seen = set()
    for data in HORO_DATA:
        for action, datum, _ in _horospherical_draws(*data):
            ok, entries = invariance_entries(action, datum)
            failed = " ".join(e.detail for e in entries if not e.ok)
            if action.order > 1 and datum.characters.denominator > 1:
                seen.add((ok, "simple-root subset" in failed, "character group" in failed))
    assert seen == {(True, False, False), (False, False, True), (False, True, False),
                    (False, True, True)}


SUBSET_MOVED, CHARACTERS_MOVED = "moves the simple-root subset", "moves the character group"


def _swap_cases(letter, rank, isogeny):
    """An action on the sum of two copies of one root datum, by the generator
    that swaps the copies after a diagram automorphism of each, and seeded
    (case, datum) pairs: I and M kept, I moved, M moved, and M = L/d with
    d > 1.  A union of orbits and sums over the image are kept; a nonempty
    I or a nonzero vector inside the first copy is moved to the second."""
    rng = random.Random(f"swap {letter}{rank}{isogeny}")
    brd = build_root_datum(letter, rank, isogeny)
    eps = rng.choice(cartan_preserving(brd.cartan_matrix.entries))
    action = build_action(direct_sum(brd, brd), [
        tuple(rank + e for e in eps) + eps], names=("s",))
    group = elements(action)

    def orbit_union(subset):
        return frozenset(g.s_perm[i] for i in subset for g in group)

    def rows(count, summed):
        out = [tuple(rng.randint(-3, 3) for _ in range(rank)) + (0,) * rank
               for _ in range(count)]
        if summed:
            out = [tuple(map(sum, zip(*(g.matrix.apply(v) for g in group)))) for v in out]
        return out

    def datum(subset, gens, d=1):
        return HorosphericalDatum(subset, RationalLattice.from_generators(
            2 * rank, [tuple(Fraction(x, d) for x in r) for r in gens]))

    kept_subset = orbit_union(rng.sample(range(rank), rng.randint(0, rank)))
    kept_rows = rows(rng.randint(1, rank), True)
    moved_row = rows(1, False)
    while not any(moved_row[0]):
        moved_row = rows(1, False)
    return action, [
        ("kept", datum(kept_subset, kept_rows)),
        ("I moved", datum(frozenset(rng.sample(range(rank), rng.randint(1, rank))),
                          kept_rows)),
        ("M moved", datum(kept_subset, moved_row)),
        ("M = L/d", datum(frozenset(rng.sample(range(2 * rank), rng.randint(0, rank))),
                          rows(rng.randint(1, rank), rng.random() < 0.5),
                          rng.randint(2, 4))),
    ]


@pytest.mark.parametrize("letter,rank,isogeny", HORO_DATA)
def test_horospherical_preservation_matches_closure_oracle(letter, rank, isogeny):
    # one generator, so the closure-wide oracle decides it alone; each
    # problem is the oracle's answer on I, or on M, with the other part empty
    action, cases = _swap_cases(letter, rank, isogeny)
    zero = RationalLattice.from_generators(2 * rank, [])
    expected = {"kept": (), "I moved": (SUBSET_MOVED,), "M moved": (CHARACTERS_MOVED,)}
    for case, datum in cases:
        verdict = preserves_invariants(action, action.generators[0], datum)
        assert verdict.ok == oracle.preserves_horospherical(action, datum), case
        assert verdict.problems == tuple(p for p, part in (
            (SUBSET_MOVED, HorosphericalDatum(datum.simple_subset, zero)),
            (CHARACTERS_MOVED, HorosphericalDatum(frozenset(), datum.characters)))
            if not oracle.preserves_horospherical(action, part)), case
        assert verdict.problems == expected.get(case, verdict.problems), case
    assert cases[-1][1].characters.denominator > 1
