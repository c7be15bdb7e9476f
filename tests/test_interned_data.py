"""Interned root data and stored diagram lifts, warm against cold.

`build_root_datum` returns one shared datum per simply connected or adjoint
type, and a datum keeps the lift of each Cartan-preserving permutation it
was asked for.  Every datum here is compared with one built after
`cache_clear()`, and every stored lift with one lifted on that fresh datum.
Caps, errors and CLI output must not depend on what the process built
before.
"""
import pickle
from dataclasses import replace

import pytest

from sphdescent import rootdata
from sphdescent.cli import main
from sphdescent.rootdata import (CapExceeded, build_root_datum, direct_sum,
                                 lift_s_permutation, torus)
from sphdescent.staraction import build_action
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


@pytest.mark.parametrize("command", ["verdict", "check-fan"])
def test_a_warm_corpus_run_prints_what_a_cold_one_prints(capsys, command):
    runs = []
    for _ in range(2):
        code = main([command, "--corpus", "--json"])
        runs.append((code, *capsys.readouterr()))
    assert runs[0] == runs[1] and runs[0][1]
