"""Interned root data and what they keep, warm against cold.

`build_root_datum` returns one shared datum per simply connected or adjoint
type.  A datum keeps the lift of each Cartan-preserving permutation it was
asked for, and one with no torus block the order of each generator set
`build_action` closed.  Every datum here is compared with one built after
`cache_clear()`, every stored lift with one lifted on that fresh datum, and
every action read off stored orders with one closed on a fresh datum.
Caps, errors and CLI output must not depend on what the process built
before.
"""
import pickle
import re
from dataclasses import replace

import pytest

from sphdescent import rootdata
from sphdescent.cli import main
from sphdescent.intlinalg import IntMatrix
from sphdescent.rootdata import (CapExceeded, build_root_datum, direct_sum,
                                 lift_s_permutation, torus)
from sphdescent.staraction import ClosureCapExceeded, build_action
from sphdescent.weyl import roots_and_coroots

TYPES = ([("A", n) for n in range(1, 10)] + [("B", n) for n in range(2, 10)]
         + [("C", n) for n in range(2, 10)] + [("D", n) for n in range(3, 10)]
         + [("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2)])


def diagram_automorphism_count(letter, rank):
    """Order of the automorphism group of the Dynkin diagram."""
    if letter == "D":
        return 6 if rank == 4 else 2
    return 2 if (letter, rank) == ("E", 6) or (letter == "A" and rank > 1) else 1


def cartan_preserving(cartan):
    """Every permutation p with cartan[p[i]][p[j]] == cartan[i][j], by
    extending only the partial permutations that keep the placed entries."""
    k, found = len(cartan), []

    def extend(p):
        i = len(p)
        if i == k:
            found.append(tuple(p))
            return
        for x in set(range(k)) - set(p):
            if cartan[x][x] == cartan[i][i] and all(
                    cartan[p[j]][x] == cartan[j][i] and cartan[x][p[j]] == cartan[i][j]
                    for j in range(i)):
                extend(p + [x])
    extend([])
    return sorted(found)


def non_lifting(brd, autos):
    """The cyclic shift or the reversal of S, whichever first fails to
    preserve the Cartan matrix; None when both preserve it."""
    k = len(brd.simple_roots)
    shift, reverse = tuple(range(1, k)) + (0,), tuple(range(k))[::-1]
    return next((p for p in (shift, reverse) if p not in autos), None)


def lift_error(brd, perm):
    with pytest.raises(ValueError) as info:
        build_action(brd, [perm])
    return str(info.value)


def pinned(cap):
    return "^" + re.escape(
        f"closure exceeds {cap} elements; the action must factor through a "
        "finite group (for a torus factor, pick generators of finite order)") + "$"


def permutation_matrix(perm):
    """e_j -> e_perm[j]: a diagram automorphism in the simply connected basis."""
    n = len(perm)
    return IntMatrix(n, n, tuple(tuple(int(i == perm[j]) for j in range(n))
                                 for i in range(n)))


KEPT = ("_lifts", "_orders")


def test_each_test_starts_from_an_empty_cache():
    assert rootdata._interned_datum.cache_info().currsize == 0


def test_the_cache_holds_the_documented_bound():
    assert rootdata._interned_datum.cache_info().maxsize == 128


@pytest.mark.parametrize("isogeny", ["simply_connected", "adjoint"])
@pytest.mark.parametrize("letter,rank", TYPES)
def test_warm_data_and_lifts_equal_cold_ones(letter, rank, isogeny):
    warm = build_root_datum(letter, rank, isogeny)
    assert build_root_datum(letter, rank, isogeny) is warm
    autos = cartan_preserving(warm.cartan_matrix.entries)
    assert len(autos) == diagram_automorphism_count(letter, rank)
    stored = {p: lift_s_permutation(warm, p) for p in autos}
    assert all(lift_s_permutation(warm, p) is stored[p] for p in autos)
    assert all(build_action(warm, [p]).generators[0] is stored[p] for p in autos)
    bad = non_lifting(warm, autos)
    errors = [lift_error(warm, bad), lift_error(warm, bad)] if bad else []
    assert len(set(errors)) == (1 if bad else 0)
    sets = roots_and_coroots(warm)

    rootdata._interned_datum.cache_clear()
    roots_and_coroots.cache_clear()
    cold = build_root_datum(letter, rank, isogeny)
    assert cold is not warm and cold == warm and hash(cold) == hash(warm)
    if isogeny == "simply_connected":
        # equality compares all six fields, not only the simple system: the
        # identity basis gives a custom lattice this one's, under another label
        identity = [[int(i == j) for j in range(rank)] for i in range(rank)]
        custom = build_root_datum(letter, rank, "custom_lattice", identity)
        assert (custom.simple_roots, custom.simple_coroots) == (
            warm.simple_roots, warm.simple_coroots)
        assert custom != warm and replace(custom, isogeny=isogeny) == warm
    assert roots_and_coroots(cold) == sets
    assert cold.cartan_matrix == warm.cartan_matrix
    if bad:
        assert lift_error(cold, bad) == errors[0]
    for p, lift in stored.items():
        # each lift is the first one asked of its datum
        rootdata._interned_datum.cache_clear()
        fresh = lift_s_permutation(build_root_datum(letter, rank, isogeny), p)
        assert lift.s_perm == p and fresh == lift, p


def test_a_stored_none_lift_gives_the_same_error():
    # Q + Z omega1 in D4: the swap of alpha1 and alpha3 preserves the Cartan
    # matrix but not the lattice, so its answer, None, is kept on the datum
    basis = [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 1], [0, 0, 0, 2]]
    brd = build_root_datum("D", 4, "custom_lattice", basis)
    again = build_root_datum("D", 4, "custom_lattice", basis)
    assert again == brd and again is not brd  # custom lattices are not interned
    perm = (2, 1, 0, 3)
    message = lift_error(brd, perm)
    assert message == f"simple root permutation {perm} does not lift to the datum"
    assert brd._lifts == {perm: None}
    assert lift_error(brd, perm) == message


def test_a_float_rank_misses_the_cache():
    build_root_datum("A", 2)
    with pytest.raises(TypeError):
        build_root_datum("A", 2.0)
    assert rootdata._interned_datum.cache_info().currsize == 1


def test_a_small_cap_is_refused_on_an_interned_datum(monkeypatch):
    assert len(roots_and_coroots(build_root_datum("E", 8))[0]) == 240
    monkeypatch.setattr(rootdata, "ROOT_TABLE_CAP", 1919)
    with pytest.raises(CapExceeded, match="^root datum E8: root table of 1920 entries "
                                          "exceeds cap 1919$"):
        build_root_datum("E", 8)


def test_a_datum_with_its_lifts_still_pickles():
    brd = build_root_datum("D", 4)
    lift = lift_s_permutation(brd, (2, 1, 0, 3))
    copy = pickle.loads(pickle.dumps(brd))
    assert copy == brd and copy.cartan_matrix == brd.cartan_matrix
    assert lift_s_permutation(copy, (2, 1, 0, 3)) == lift


def test_equal_data_built_apart_hash_alike():
    # the hash is computed once a datum; equal data built apart, interned or
    # not, still hash alike and find each other's cache entries
    basis = [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 1], [0, 0, 0, 2]]
    warm = build_root_datum("E", 8)
    hash(warm)  # cached before its equal twin is built
    rootdata._interned_datum.cache_clear()
    pairs = [(warm, build_root_datum("E", 8)),
             (build_root_datum("D", 4, "custom_lattice", basis),
              build_root_datum("D", 4, "custom_lattice", basis)),
             (direct_sum(build_root_datum("A", 2), torus(1)),
              direct_sum(build_root_datum("A", 2), torus(1))),
             (torus(3), torus(3))]
    for a, b in pairs:
        assert a is not b and a == b and hash(a) == hash(b)
        hits = roots_and_coroots.cache_info().hits
        assert roots_and_coroots(a) is roots_and_coroots(b)
        assert roots_and_coroots.cache_info().hits == hits + 1
    # interning is unchanged: the second build is the shared datum
    assert build_root_datum("E", 8) is pairs[0][1]
    assert rootdata._interned_datum.cache_info().currsize == 2


def test_a_pickle_carries_no_hash():
    # string hashes differ between processes, so a pickled datum hashes anew
    brd = torus(2)
    cold = pickle.dumps(brd)
    hash(brd)
    assert pickle.dumps(brd) == cold
    assert hash(pickle.loads(cold)) == hash(brd)


def test_closure_caps_after_an_uncapped_parse(capsys):
    assert main(["verdict", "--corpus", "spin8_trialitary"]) == 0
    uncapped = capsys.readouterr().out
    assert main(["verdict", "--corpus", "spin8_trialitary", "--cap", "2"]) == 64
    assert capsys.readouterr() == (
        "", "error: spin8_trialitary.json: closure exceeds 2 elements; the action must "
        "factor through a finite group (for a torus factor, pick generators of finite "
        "order)\n")
    assert main(["verdict", "--corpus", "spin8_trialitary", "--cap", "3"]) == 0
    assert capsys.readouterr() == (uncapped, "")


@pytest.mark.parametrize("isogeny", ["simply_connected", "adjoint"])
@pytest.mark.parametrize("letter,rank", [t for t in TYPES if t[1] <= 8])
def test_warm_actions_equal_cold_ones(letter, rank, isogeny):
    # the full diagram group and each single Cartan-preserving permutation
    warm = build_root_datum(letter, rank, isogeny)
    autos = cartan_preserving(warm.cartan_matrix.entries)
    sets = [autos] + [[p] for p in autos]
    closed = [build_action(warm, gens) for gens in sets]
    assert set(warm._orders) == {frozenset(gens) for gens in sets}
    for gens, first in zip(sets, closed):
        action = build_action(warm, gens)  # read off the stored order
        assert action == first
        order = action.order
        # the cap boundary holds with the order already stored
        assert build_action(warm, gens, cap=order).order == order
        if order > 1:
            with pytest.raises(ClosureCapExceeded, match=pinned(order - 1)):
                build_action(warm, gens, cap=order - 1)

        # each set closed on a datum that has kept nothing yet
        rootdata._interned_datum.cache_clear()
        cold_datum = build_root_datum(letter, rank, isogeny)
        assert not set(KEPT) & set(vars(cold_datum))
        cold = build_action(cold_datum, gens)
        assert cold.order == order
        assert ([g.matrix for g in cold.generators]
                == [g.matrix for g in action.generators])
        assert ([g.inverse_matrix for g in cold.generators]
                == [g.inverse_matrix for g in action.generators])


def test_data_with_a_torus_block_keep_no_orders():
    three = torus(3)
    cycle = build_action(three, [permutation_matrix((1, 2, 0))])
    mixed = direct_sum(build_root_datum("A", 2), torus(1))
    flip = build_action(mixed, [(1, 0)])
    assert (cycle.order, flip.order) == (3, 2)
    for brd in (three, mixed):
        assert "_orders" not in vars(brd), brd.components
    # there every automorphism has the s_perm (), whatever its order
    assert build_action(three, [permutation_matrix((1, 0, 2))]).order == 2
    # a datum with no torus block keeps them
    a2 = build_root_datum("A", 2)
    build_action(a2, [(1, 0)])
    assert a2._orders == {frozenset({(1, 0)}): 2}


@pytest.mark.parametrize("perm,error", [
    ((1.0, 0.0), None),  # integral entries are read as ints
    ((0.5, 1), "^entry 0.5 is not an integer$"),
    ((1.5, 0.5), "^entry 1.5 is not an integer$"),
])
def test_a_stored_lift_accepts_and_refuses_what_a_fresh_one_does(perm, error):
    warm = build_root_datum("A", 2)
    stored = lift_s_permutation(warm, (1, 0))
    rootdata._interned_datum.cache_clear()
    cold = build_root_datum("A", 2)
    assert cold is not warm and not cold._lifts
    for brd in (warm, cold):
        if error is None:
            assert lift_s_permutation(brd, perm) == stored
            assert brd._lifts == {(1, 0): stored}
        else:
            with pytest.raises(ValueError, match=error):
                lift_s_permutation(brd, perm)
    assert lift_s_permutation(warm, (1, 0)) is stored


def test_a_datum_with_stored_orders_still_pickles():
    brd = build_root_datum("D", 4)
    gens = [(2, 1, 0, 3), (3, 1, 2, 0)]
    action = build_action(brd, gens)
    assert action.order == 6 and brd._orders == {frozenset(gens): 6}
    copy = pickle.loads(pickle.dumps(brd))
    assert copy == brd and hash(copy) == hash(brd) and copy._orders == brd._orders
    again = build_action(copy, gens)
    assert again.order == 6
    assert [g.inverse_matrix for g in again.generators] == [
        g.inverse_matrix for g in action.generators]
    with pytest.raises(ClosureCapExceeded, match=pinned(5)):
        build_action(copy, gens, cap=5)


@pytest.mark.parametrize("command", ["verdict", "check-fan", "check-invariants"])
def test_a_warm_corpus_run_prints_what_a_cold_one_prints(capsys, command):
    runs = []
    for _ in range(2):
        code = main([command, "--corpus", "--json"])
        runs.append((code, *capsys.readouterr()))
    assert runs[0] == runs[1] and runs[0][1]
