"""Differential tests: the per-element transport to V and the generator-level
invariance decision against the HNF-checked transport and the closure-wide
loops they replaced (`invariance_oracle.py`).

Inputs: every corpus file and the seeded re-presentations of acceptance
criterion 8, with every closure element of each action on the file's weight
lattice and on the lattice of its horospherical characters; sublattices that
an action moves; and seeded sublattices, saturated or not, under the D4
diagram automorphisms and signed permutations of Z^3.
"""
import json
import random

import pytest

import invariance_oracle as oracle
from closure_oracle import elements
from sphdescent.checker import invariance_entries
from sphdescent.cli import corpus_names, corpus_root
from sphdescent.intlinalg import IntMatrix, Lattice
from sphdescent.invariants import HorosphericalDatum
from sphdescent.problem import parse_dict, parse_text
from sphdescent.rootdata import build_root_datum, torus
from sphdescent.staraction import build_action, dual_matrix_on_V
from test_acceptance import _restate, _signed_permutation


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
