"""Differential tests: the order that `build_action` finds by closing the
generators' permutations of the basis orbit against the size of the matrix
closure it replaced (`closure_oracle.py`), and its cap.

Inputs: the action of every corpus file, of its seeded re-presentations
(acceptance criterion 8) and of every file under tests/data; every subgroup of
the Dynkin diagram's automorphisms for the types A-G of rank at most 8, in
the simply connected and adjoint bases; seeded groups of signed
permutations of Z^n, n <= 6, in the standard basis and conjugated into one
where the basis orbit O has about rank·|G| vectors.  For each, cap = order
passes and cap = order - 1 raises the pinned message.  Infinite groups, among them one
generated by two involutions, end in that message too.
"""
import json
import random
import re
from itertools import combinations
from pathlib import Path

import pytest

from closure_oracle import closure
from sphdescent.cli import corpus_names, corpus_root, main
from sphdescent.intlinalg import IntMatrix
from sphdescent.problem import _parse_action, _parse_root_datum
from sphdescent.rootdata import as_brd_automorphism, build_root_datum, lift_s_permutation, torus
from sphdescent.staraction import ClosureCapExceeded, build_action
from test_acceptance import _restate, _signed_permutation

DATA = Path(__file__).parent / "data"


def pinned(cap):
    return re.escape(
        f"closure exceeds {cap} elements; the action must factor through a "
        "finite group (for a torus factor, pick generators of finite order)")


def assert_order_is_closure_size(brd, gens, cap=10 ** 4):
    """build_action's order is the oracle's closure size, and both raise the
    same message when the group has more than `cap` elements."""
    try:
        order = len(closure(brd, gens, cap))
    except ClosureCapExceeded:
        with pytest.raises(ClosureCapExceeded, match=f"^{pinned(cap)}$"):
            build_action(brd, gens, cap=cap)
        return None
    assert build_action(brd, gens, cap=order).order == order
    if order == 1:
        with pytest.raises(ValueError, match="^cap must be a positive integer"):
            build_action(brd, gens, cap=0)
    else:
        with pytest.raises(ClosureCapExceeded, match=f"^{pinned(order - 1)}$"):
            build_action(brd, gens, cap=order - 1)
    return order


def _files():
    rng = random.Random(23)
    out = []
    for path in [corpus_root() / n for n in corpus_names()] + sorted(DATA.glob("*.json")):
        data = json.loads(path.read_text("utf-8"))
        if data.get("action") is None:
            continue
        out.append((path.name, data))
        if path.parent != DATA:
            out += [(f"{path.name} r{i}", _restate(data, rng)) for i in range(3)]
    return out


FILES = _files()


@pytest.mark.parametrize("name,data", FILES, ids=[n for n, _ in FILES])
def test_file_action_order_matches_closure(name, data):
    brd = _parse_root_datum(data["root_datum"])
    action = _parse_action(data["action"], brd)
    assert assert_order_is_closure_size(brd, action.generators) == action.order


def diagram_symmetries(brd):
    """Every permutation of the simple roots that keeps the Cartan matrix."""
    c = brd.cartan_matrix.entries
    out = []

    def extend(perm):
        i = len(perm)
        if i == len(c):
            out.append(tuple(perm))
        for p in range(len(c)) if i < len(c) else ():
            if p not in perm and c[p][p] == c[i][i] and all(
                    c[p][q] == c[i][j] and c[q][p] == c[j][i] for j, q in enumerate(perm)):
                extend(perm + [p])
    extend([])
    return out


TYPES = ([("A", n) for n in range(1, 9)] + [(t, n) for t in "BC" for n in range(2, 9)]
         + [("D", n) for n in range(3, 9)] + [("E", n) for n in (6, 7, 8)]
         + [("F", 4), ("G", 2)])


@pytest.mark.parametrize("isogeny", ["simply_connected", "adjoint"])
@pytest.mark.parametrize("letter,rank", TYPES, ids=[f"{t}{n}" for t, n in TYPES])
def test_dynkin_subgroup_orders_match_closure(letter, rank, isogeny):
    # Aut(Dynkin) is S3 for D4, of order 2 for A_n (n >= 2), D_n (n >= 5)
    # and E6, else trivial; each of its subgroups has at most two generators
    brd = build_root_datum(letter, rank, isogeny)
    autos = [lift_s_permutation(brd, p) for p in diagram_symmetries(brd)]
    assert None not in autos
    swap = letter in "AD" and rank > 1 or (letter, rank) == ("E", 6)
    assert len(autos) == (6 if (letter, rank) == ("D", 4) else 2 if swap else 1)
    orders = {assert_order_is_closure_size(brd, gens)
              for k in range(3) for gens in combinations(autos, k)}
    assert orders == ({1, 2, 3, 6} if len(autos) == 6 else {1, len(autos)})


@pytest.mark.parametrize("rank", range(1, 7))
def test_signed_permutation_orders_match_closure(rank):
    rng = random.Random(100 + rank)
    t = torus(rank)
    orders = []
    for draw in range(9):
        gens = [as_brd_automorphism(t, _signed_permutation(rng, rank))
                for _ in range(1 + draw % 3)]
        orders.append(assert_order_is_closure_size(t, gens, cap=2000))
    # in rank 6 three draws close below the cap, the single generators; the
    # others raise its message
    assert sum(o is not None for o in orders) >= 3


def _mixing(rng, n):
    """A unimodular L·U with entries 1-3 off the diagonal of L and U: in a
    basis of its columns the standard basis vectors have almost free orbits
    under signed permutations, so |O| reaches rank·|G|."""
    lower = [[rng.randint(1, 3) if j < i else int(i == j) for j in range(n)]
             for i in range(n)]
    upper = [[rng.randint(1, 3) if j > i else int(i == j) for j in range(n)]
             for i in range(n)]
    return IntMatrix.from_rows(lower) @ IntMatrix.from_rows(upper)


def basis_orbit_size(brd, gens, cap):
    """|O| read off the oracle's closure: the columns of all its elements."""
    return len({c for el in closure(brd, gens, cap) for c in zip(*el.matrix.entries)})


@pytest.mark.parametrize("rank", range(2, 7))
def test_conjugated_signed_permutation_orders_match_closure(rank):
    # the signed permutations above in another basis of X, where the basis
    # orbit O is far larger than the rank
    rng = random.Random(300 + rank)
    t = torus(rank)
    free = 0
    for draw in range(9):
        v = _mixing(rng, rank)
        u = v.inverse_unimodular()
        gens = [as_brd_automorphism(t, u @ _signed_permutation(rng, rank) @ v)
                for _ in range(1 + draw % 3)]
        order = assert_order_is_closure_size(t, gens, cap=2000)
        if order is not None and order >= 24:
            free += basis_orbit_size(t, gens, order) == rank * order
    assert free >= (rank > 2)


def test_conjugated_hyperoctahedral_group_of_rank_5():
    # all 3,840 signed permutations of Z^5, generated by a 5-cycle, a
    # transposition and a sign, in a basis where |O| is 10,560 (5·3,840 at
    # most)
    t = torus(5)
    rows = [[[int(j == (i + 1) % 5) for j in range(5)] for i in range(5)],
            [[int(j == (1, 0, 2, 3, 4)[i]) for j in range(5)] for i in range(5)],
            [[(-1 if i == 0 else 1) * int(i == j) for j in range(5)] for i in range(5)]]
    v = _mixing(random.Random(5), 5)
    u = v.inverse_unimodular()
    gens = [as_brd_automorphism(t, u @ IntMatrix.from_rows(r) @ v) for r in rows]
    assert assert_order_is_closure_size(t, gens, cap=3840) == 3840
    assert basis_orbit_size(t, gens, 3840) > 2 * 3840
    assert_order_is_closure_size(t, gens, cap=100)


# two involutions whose product is the shear [[1, -1], [0, 1]]: the group is
# infinite dihedral, and only the bound on the basis orbit catches it
DIHEDRAL = ([[-1, 0], [0, 1]], [[-1, 1], [0, 1]])


def test_infinite_dihedral_hits_cap():
    gens = [as_brd_automorphism(torus(2), IntMatrix.from_rows(m)) for m in DIHEDRAL]
    for g in gens:
        assert g.matrix != IntMatrix.identity(2) == g.matrix @ g.matrix
    with pytest.raises(ClosureCapExceeded, match="finite"):
        build_action(torus(2), gens, cap=3)
    assert_order_is_closure_size(torus(2), gens, cap=3)


@pytest.mark.parametrize("gens", [DIHEDRAL, ([[1, 1], [0, 1]],)],
                         ids=["infinite dihedral", "shear"])
def test_infinite_action_file_exits_64(capsys, tmp_path, gens):
    path = tmp_path / "infinite.json"
    path.write_text(json.dumps({
        "schema": 1, "root_datum": {"type": "torus", "rank": 2},
        "action": {"generators": [{"name": f"g{i}", "matrix_on_X": m}
                                  for i, m in enumerate(gens)]},
        "horospherical": {"I": [], "M": {"generators": [[1, 0], [0, 1]]}}}))
    code = main(["verdict", str(path), "--cap", "3"])
    out, err = capsys.readouterr()
    assert code == 64 and out == ""
    assert "infinite.json: closure exceeds 3 elements" in err
    assert "Traceback" not in err
