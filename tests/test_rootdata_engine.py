"""Differential tests of the integer root-data engine and the lazy Weyl search.

The integer builder (simple system from the Cartan matrix, roots and
coroots as Weyl orbits) is compared with the classical epsilon/Fraction
builder kept in `epsilon_rootdata_oracle`,
and `are_weyl_conjugate` with a scan over the whole Weyl group.  The
diagram-automorphism layer (lifts by one fraction-free elimination, the
automorphism test on S) is compared with the per-row `Fraction` lift and
the test on every root kept in the same module.  `weyl_orbit`, which
descends to the dominant chamber, is compared with the breadth-first search
kept in `bfs_orbit_oracle`.
"""
import json
import random
from fractions import Fraction
from itertools import permutations

import pytest

import bfs_orbit_oracle
import epsilon_rootdata_oracle as oracle
from sphdescent import intlinalg, rootdata, weyl
from sphdescent.cli import main
from sphdescent.intlinalg import IntMatrix, vec_dot, vec_neg
from sphdescent.problem import parse_dict
from sphdescent.rootdata import (
    CapExceeded,
    as_brd_automorphism,
    build_root_datum,
    direct_sum,
    lift_s_permutation,
    torus,
    weyl_group,
)
from sphdescent.staraction import build_action
from sphdescent.weyl import are_weyl_conjugate, root_subset, roots_and_coroots, weyl_orbit

TYPES = ([("A", n) for n in range(1, 13)] + [("B", n) for n in range(2, 10)]
         + [("C", n) for n in range(2, 10)] + [("D", n) for n in range(3, 10)]
         + [("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2)])
# |W| <= 1920
SMALL_W = ([("A", n) for n in range(1, 6)] + [("B", n) for n in range(2, 5)]
           + [("C", n) for n in range(2, 5)] + [("D", 4), ("D", 5), ("F", 4), ("G", 2)])


def assert_same_tables(new, old):
    assert new.components == old.components and new.rank == old.rank
    assert roots_and_coroots(new) == (frozenset(old.roots), frozenset(old.coroots))
    assert new.simple_roots == old.simple_roots
    assert new.simple_coroots == old.simple_coroots
    assert new.cartan_matrix.entries == old.cartan_matrix
    assert new.torus_coords == old.torus_coords


@pytest.mark.parametrize("isogeny", ["simply_connected", "adjoint"])
@pytest.mark.parametrize("letter,rank", TYPES)
def test_tables_match_the_epsilon_builder(letter, rank, isogeny):
    assert_same_tables(build_root_datum(letter, rank, isogeny),
                       oracle.build(letter, rank, isogeny))


CUSTOM = [
    ("A", 1, [[2]]),
    ("A", 1, [[1]]),
    ("A", 3, [[2, 0, 0], [0, 1, 0], [1, 0, 1]]),
    ("D", 4, [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 1], [0, 0, 0, 2]]),
    ("B", 2, [[0, 1], [1, 0]]),
]


@pytest.mark.parametrize("letter,rank,basis", CUSTOM)
def test_custom_lattices_match_the_epsilon_builder(letter, rank, basis):
    assert_same_tables(build_root_datum(letter, rank, "custom_lattice", basis),
                       oracle.build(letter, rank, "custom_lattice", basis))


def test_custom_lattice_without_the_roots_is_refused_by_both():
    for build in (build_root_datum, oracle.build):
        with pytest.raises(ValueError, match="does not contain the root lattice"):
            build("A", 1, "custom_lattice", [[3]])


def _both(spec, isogeny="adjoint"):
    """(new, oracle) datum for a torus rank or a (letter, rank) of the isogeny."""
    if isinstance(spec, int):
        return torus(spec), oracle.torus(spec)
    return build_root_datum(*spec, isogeny), oracle.build(*spec, isogeny)


def _sum(left, right):
    """(new, oracle) direct sum of two (new, oracle) pairs."""
    return direct_sum(left[0], right[0]), oracle.direct_sum(left[1], right[1])


def test_torus_and_direct_sums_match_the_epsilon_builder():
    assert_same_tables(torus(3), oracle.torus(3))
    assert_same_tables(torus(0), oracle.torus(0))
    for left, right in [(("A", 2), 1), (("B", 2), ("G", 2)), (0, ("A", 1)),
                        (("C", 3), ("D", 4))]:
        assert_same_tables(*_sum(_both(left), _both(right)))


def test_no_fraction_arithmetic_in_the_standard_builds(monkeypatch):
    # also custom lattices, diagram lifts, the automorphism test and closures
    def forbidden(*args, **kwargs):
        raise AssertionError("exact rational arithmetic during a build")
    for module in (rootdata, intlinalg):
        assert not hasattr(module, "solve_exact")
    assert not hasattr(rootdata, "Fraction")  # rootdata has no rationals at all
    monkeypatch.setattr(intlinalg, "Fraction", forbidden)
    for letter, rank in TYPES:
        # the identity, the reversal, the swap of the last two nodes, and the
        # triality of D4 and involution of E6
        ident = tuple(range(rank))
        perms = {ident, ident[::-1], ident[:-2] + ident[-2:][::-1], (2, 1, 3, 0),
                 (5, 1, 4, 3, 2, 0)}
        for isogeny in ("simply_connected", "adjoint"):
            brd = build_root_datum(letter, rank, isogeny)
            build_action(brd, [p for p in sorted(perms) if len(p) == rank
                               and lift_s_permutation(brd, p) is not None])
    for letter, rank, basis in CUSTOM:
        brd = build_root_datum(letter, rank, "custom_lattice", basis)
        build_action(brd, [p for p in permutations(range(rank))
                           if lift_s_permutation(brd, p) is not None])
    with pytest.raises(ValueError, match="does not contain the root lattice"):
        build_root_datum("A", 1, "custom_lattice", [[3]])


def test_root_datum_equality_ignores_what_a_datum_caches():
    # custom lattices are not interned: a keeps a lift and its root sets, b
    # holds neither
    basis = [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 1], [0, 0, 0, 2]]
    a, b = (build_root_datum("D", 4, "custom_lattice", basis) for _ in range(2))
    lift_s_permutation(a, (0, 1, 3, 2))
    roots_and_coroots(a)
    assert a is not b and a._lifts and not b._lifts
    assert a == b and hash(a) == hash(b)


# -- the root-table cap ---------------------------------------------------------------

def test_root_table_cap_is_checked_before_any_search(monkeypatch):
    def search(brd):
        raise AssertionError("search started")
    monkeypatch.setattr(weyl, "roots_and_coroots", search)
    with pytest.raises(CapExceeded, match="cap 1000000"):
        build_root_datum("A", 10 ** 6)
    with monkeypatch.context() as m:
        m.setattr(rootdata, "ROOT_TABLE_CAP", 1919)
        with pytest.raises(CapExceeded, match="root datum E8: root table of 1920 entries "
                                              "exceeds cap 1919"):
            build_root_datum("E", 8)
    with pytest.raises(CapExceeded, match="root datum B100"):
        parse_dict({"schema": 1, "root_datum": {"type": "B", "rank": 100}})


def test_root_table_cap_boundary(monkeypatch):
    monkeypatch.setattr(rootdata, "ROOT_TABLE_CAP", 1920)
    assert len(roots_and_coroots(build_root_datum("E", 8))[0]) == 240


def test_cli_exits_64_on_an_oversized_root_datum(tmp_path, capsys):
    path = tmp_path / "big.json"
    path.write_text('{"schema": 1, "root_datum": {"type": "A", "rank": 5000}}')
    assert main(["verdict", str(path)]) == 64
    err = capsys.readouterr().err
    assert f"error: {path}: root datum A5000" in err and "exceeds cap 1000000" in err
    # every cap hit while parsing a file names the file
    assert main(["verdict", "--corpus", "spin8_trialitary", "--cap", "2"]) == 64
    assert "error: spin8_trialitary.json: " in capsys.readouterr().err
    assert main(["weyl-orbit", "D", "300", "1" + ",0" * 299]) == 64
    assert "root datum D300" in capsys.readouterr().err


def test_cli_exits_64_on_an_oversized_torus(tmp_path, capsys, monkeypatch):
    # a torus has no roots, but each action closure builds a matrix on X of
    # rank * rank entries: it is refused before the datum is made
    n = 1001
    path = tmp_path / "torus.json"
    path.write_text(json.dumps({
        "schema": 1, "root_datum": {"type": "torus", "rank": n},
        "action": {"generators": []},
        "horospherical": {"I": [], "M": {"generators": [[1] + [0] * (n - 1)]}}}))

    def torus(rank):
        raise AssertionError("torus built")
    with monkeypatch.context() as m:
        m.setattr(rootdata, "torus", torus)
        assert main(["verdict", str(path)]) == 64
    assert capsys.readouterr().err == (
        f"error: {path}: root datum torus1001: matrix on X of 1002001 entries "
        "exceeds cap 1000000\n")
    assert build_root_datum("torus", n - 1).rank == n - 1
    monkeypatch.setattr(rootdata, "ROOT_TABLE_CAP", 9)
    assert build_root_datum("torus", 3).rank == 3
    monkeypatch.setattr(rootdata, "ROOT_TABLE_CAP", 8)
    with pytest.raises(CapExceeded, match="root datum torus3: matrix on X of 9 entries"):
        build_root_datum("torus", 3)


# -- Weyl group and conjugacy -----------------------------------------------------------

@pytest.mark.parametrize("letter,rank", [("A", 3), ("B", 3), ("D", 4), ("G", 2), ("F", 4)])
def test_weyl_group_matches_full_products(letter, rank):
    assert ([(w.matrix, w.word) for w in weyl_group(build_root_datum(letter, rank))]
            == oracle.weyl_group_by_products(oracle.build(letter, rank)))


def neg(v):
    return tuple(-x for x in v)


def _conjugacy_inputs(eps, rng):
    group = oracle.weyl_group_by_products(eps)
    pairs = []
    for size in (1, 2, 3):
        a = rng.sample(eps.roots, min(size, len(eps.roots)))
        m, _ = rng.choice(group)
        pairs.append((a, [m.apply(r) for r in a]))             # conjugate
        pairs.append((a, rng.sample(eps.roots, len(a))))       # usually not
    lengths = {}
    for beta in eps.roots:
        lengths.setdefault(vec_dot(eps.to_epsilon(beta), eps.to_epsilon(beta)), beta)
    if len(lengths) == 2:                                       # long / short
        long_root, short_root = (lengths[k] for k in sorted(lengths, reverse=True))
        pairs.append(([long_root], [short_root]))
        pairs.append(([long_root, neg(long_root)], [short_root, neg(short_root)]))
    return group, pairs


@pytest.mark.parametrize("isogeny", ["simply_connected", "adjoint"])
@pytest.mark.parametrize("letter,rank", SMALL_W)
def test_conjugacy_matches_a_full_scan(letter, rank, isogeny):
    brd = build_root_datum(letter, rank, isogeny)
    rng = random.Random(f"{letter}{rank}{isogeny}")
    _assert_conjugacy_matches_a_full_scan(
        brd, *_conjugacy_inputs(oracle.build(letter, rank, isogeny), rng))


def _assert_conjugacy_matches_a_full_scan(brd, group, pairs):
    for a, b in pairs:
        want = oracle.conjugate_by_full_scan(group, a, b)
        got = are_weyl_conjugate(brd, root_subset(brd, a), root_subset(brd, b))
        assert (None if got is None else (got.matrix, got.word)) == want, (a, b)


def _custom_and_sum_data():
    """The custom lattices and some direct sums, each with its oracle datum;
    every one has |W| <= 192."""
    for letter, rank, basis in CUSTOM:
        yield (f"{letter}{rank} {basis}", build_root_datum(letter, rank, "custom_lattice", basis),
               oracle.build(letter, rank, "custom_lattice", basis))
    a1 = _both(("A", 1), "simply_connected")
    for name, left, right in [
            ("A2+T1", _both(("A", 2)), _both(1)), ("A1+A1", a1, _both(("A", 1))),
            ("B2+G2", _both(("B", 2), "simply_connected"), _both(("G", 2))),
            ("D4+T1", _both(("D", 4)), _both(1)), ("A1+T1+A1", _sum(a1, _both(1)), a1)]:
        yield name, *_sum(left, right)


def test_conjugacy_matches_a_full_scan_on_custom_lattices_and_sums():
    # the first and the last simple root: conjugate in A3 and D4, never
    # across the summands of a sum
    for name, brd, eps in _custom_and_sum_data():
        group, pairs = _conjugacy_inputs(eps, random.Random(f"conjugacy {name}"))
        last = len(brd.simple_roots) - 1
        pairs.append(([brd.simple_roots[0]], [brd.simple_roots[last]]))
        _assert_conjugacy_matches_a_full_scan(brd, group, pairs)


def test_d4_quadruple_conjugacy_matches_a_full_scan():
    d4, eps = build_root_datum("D", 4), oracle.build("D", 4)
    group = oracle.weyl_group_by_products(eps)
    quads = [root_subset(d4, q) for q in oracle.orthogonal_quadruples(eps)]
    for a in quads:
        for b in quads:
            got = are_weyl_conjugate(d4, a, b)
            assert ((got.matrix, got.word) if got else None) == \
                oracle.conjugate_by_full_scan(group, a.roots, b.roots)


def test_invariant_form_prefilter_answers_without_a_walk(monkeypatch):
    def walk(*args, **kwargs):
        raise AssertionError("searched an orbit")
    monkeypatch.setattr(weyl, "_orbit_search", walk)
    monkeypatch.setattr(weyl, "_simple_reflections", walk)
    b2 = build_root_datum("B", 2)
    long_root, short_root = b2.simple_roots
    assert are_weyl_conjugate(b2, root_subset(b2, [long_root]),
                              root_subset(b2, [short_root])) is None
    # E8: the two pairs differ in the pairing of their members
    e8 = build_root_datum("E", 8)
    a1, a2, a3 = e8.simple_roots[:3]
    assert are_weyl_conjugate(e8, root_subset(e8, [a1, a3]),
                              root_subset(e8, [a1, a2])) is None


@pytest.mark.parametrize("rank,word", [
    (6, (4, 3, 2, 0, 5, 4, 3, 2)),
    (7, (5, 4, 3, 2, 0, 6, 5, 4, 3, 2)),
    (8, (6, 5, 4, 3, 2, 0, 7, 6, 5, 4, 3, 2))])
def test_end_roots_of_e6_to_e8_are_conjugate_within_a_small_cap(rank, word):
    # the words are the first hits of `weyl_elements`, the breadth-first walk
    # of W, recorded from it; |W| runs from 51,840 to 696,729,600
    brd, eps = build_root_datum("E", rank), oracle.build("E", rank)
    first, last = brd.simple_roots[0], brd.simple_roots[-1]
    w = are_weyl_conjugate(brd, root_subset(brd, [first]), root_subset(brd, [last]), cap=5000)
    assert w is not None and w.word == word
    product = IntMatrix.identity(rank)
    for i in w.word:
        product = product @ oracle.reflection(eps, eps.simple_roots[i])
    assert product == w.matrix and w.matrix.apply(first) == last


def test_d5_pair_with_equal_statistics_is_decided_below_the_order_of_w():
    d5, eps = build_root_datum("D", 5), oracle.build("D", 5)
    a, b = ([d5.simple_roots[i] for i in pair] for pair in ((0, 2), (3, 4)))
    assert weyl._form_statistics(d5, a) == weyl._form_statistics(d5, b)
    a, b = root_subset(d5, a), root_subset(d5, b)
    assert are_weyl_conjugate(d5, a, b, cap=1919) is None  # |W(D5)| = 1920
    # the cap bounds the sets held: the orbit of b, by the oracle's W
    size = len({frozenset(m.apply(r) for r in b.roots)
                for m, _ in oracle.weyl_group_by_products(eps)})
    assert size < 1919
    assert are_weyl_conjugate(d5, a, b, cap=size) is None
    with pytest.raises(CapExceeded, match=f"^conjugacy walk exceeded cap {size - 1}$"):
        are_weyl_conjugate(d5, a, b, cap=size - 1)


def test_conjugacy_search_stops_at_the_first_hit():
    # E6 has 51,840 elements; the witness for two simple roots is short
    e6 = build_root_datum("E", 6)
    a1, a3 = e6.simple_roots[0], e6.simple_roots[2]
    w = are_weyl_conjugate(e6, root_subset(e6, [a1]), root_subset(e6, [a3]), cap=100)
    assert w is not None and w.matrix.apply(a1) == a3


def test_orbits_stay_in_integers_for_integral_input():
    d4 = build_root_datum("D", 4)
    assert all(type(x) is int for v in weyl_orbit(d4, (1, 0, 0, 0)) for x in v)
    assert all(type(x) is int for v in weyl_orbit(d4, (Fraction(2), 0, 0, 0)) for x in v)
    half = weyl_orbit(d4, (Fraction(1, 2), 0, 0, 0))
    assert any(isinstance(x, Fraction) and x.denominator == 2 for v in half for x in v)


def _orbit_data():
    """Every datum of the orbit comparison, with a label."""
    for letter, rank in SMALL_W:
        for isogeny in ("simply_connected", "adjoint"):
            yield f"{letter}{rank} {isogeny}", build_root_datum(letter, rank, isogeny)
    for letter, rank, basis in CUSTOM:
        yield f"{letter}{rank} {basis}", build_root_datum(letter, rank, "custom_lattice", basis)
    a1, a2 = build_root_datum("A", 1), build_root_datum("A", 2, "adjoint")
    for name, left, right in [
            ("A2+T1", a2, torus(1)), ("T2+B2", torus(2), build_root_datum("B", 2)),
            ("A1+T1+A1", direct_sum(a1, torus(1)), a1), ("T2", torus(2), torus(0))]:
        yield name, direct_sum(left, right)
    # the compiled walk's empty unpack; A1 in both isogenies, from SMALL_W,
    # gives its one-tuple displays on both paths
    yield "T0", torus(0)


def _orbit_starts(brd, rng):
    """Zero, the unit vectors, and seeded integral and rational vectors."""
    n = brd.rank
    yield (0,) * n
    for i in range(n):
        yield tuple(int(i == j) for j in range(n))
    for _ in range(2):
        yield tuple(rng.randint(-3, 3) for _ in range(n))
    yield tuple(Fraction(rng.randint(-4, 4), rng.choice((1, 2, 3))) for _ in range(n))


def test_orbits_match_the_breadth_first_search():
    compared = 0
    for name, brd in _orbit_data():
        rng = random.Random(f"orbit {name}")
        for v in _orbit_starts(brd, rng):
            want = bfs_orbit_oracle.weyl_orbit(brd, v)
            assert weyl_orbit(brd, v) == want, (name, v)
            # the same orbit from its dominant member and from its last element
            dominant = next(u for u in want
                            if all(vec_dot(u, c) >= 0 for c in brd.simple_coroots))
            assert weyl_orbit(brd, dominant) == want, (name, v)
            assert weyl_orbit(brd, max(want)) == want, (name, v)
            compared += 1
    assert compared > 250


def _walks_the_pairings(brd):
    """Whether `weyl_orbit` walks the pairings alone: the simple coroots are
    the unit vectors of X.  Otherwise it carries the vector too."""
    n = brd.rank
    return brd.simple_coroots == tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def test_orbit_data_reach_both_paths():
    paths = {name: _walks_the_pairings(brd) for name, brd in _orbit_data()}
    assert paths["D4 simply_connected"] and paths["A1 [[1]]"]
    assert paths["T0"] and paths["A1 simply_connected"] and not paths["A1 adjoint"]
    assert not any(paths[name] for name in (
        "B3 adjoint", "A3 [[2, 0, 0], [0, 1, 0], [1, 0, 1]]", "A2+T1", "T2+B2"))


@pytest.mark.parametrize("name,v", [
    ("D4 simply_connected", (0, 1, 0, 0)), ("B3 simply_connected", (1, -2, 1)),
    ("A3 simply_connected", (Fraction(1, 2), 0, -1)),
    ("B3 adjoint", (1, -2, 1)), ("B3 adjoint", (0, Fraction(-2, 3), 1)),
    ("A3 [[2, 0, 0], [0, 1, 0], [1, 0, 1]]", (1, 0, -1)),
    ("A2+T1", (1, 0, 3)), ("A2+T1", (Fraction(1, 2), 0, Fraction(5, 3)))])
def test_orbit_cap_boundary(name, v):
    brd = dict(_orbit_data())[name]
    size = len(bfs_orbit_oracle.weyl_orbit(brd, v))
    with pytest.raises(CapExceeded, match=f"^orbit exceeded cap {size - 1}$"):
        weyl_orbit(brd, v, cap=size - 1)
    orbit = weyl_orbit(brd, v, cap=size)
    assert len(orbit) == size > 1
    kind = int if all(type(x) is int for x in v) else Fraction
    assert all(type(x) is kind for u in orbit for x in u)


# -- diagram automorphisms --------------------------------------------------------------

def _same(got, want):
    return (None if got is None else (got.matrix, got.s_perm)) == want


def _lift_inputs():
    """Every datum of the lift comparison, with a label and its oracle datum."""
    for letter, rank in TYPES:
        if rank <= 6:
            for isogeny in ("simply_connected", "adjoint"):
                yield f"{letter}{rank} {isogeny}", *_both((letter, rank), isogeny)
    for letter, rank, basis in CUSTOM:
        yield (f"{letter}{rank} {basis}", build_root_datum(letter, rank, "custom_lattice", basis),
               oracle.build(letter, rank, "custom_lattice", basis))
    yield "T0", *_both(0)
    yield "T2", *_both(2)
    a1, a2 = _both(("A", 1), "simply_connected"), _both(("A", 2), "simply_connected")
    for name, left, right in [
            ("A2+T1", a2, _both(1)), ("T1+A2", _both(1), a2), ("A1+A1", a1, a1),
            ("A1+A1 adjoint", a1, _both(("A", 1))),
            ("A2+A2", a2, _both(("A", 2))),
            ("B2+G2", _both(("B", 2), "simply_connected"), _both(("G", 2), "simply_connected")),
            ("D4+T1", _both(("D", 4)), _both(1)),
            ("A1+T1+A1", _sum(a1, _both(1)), a1)]:
        yield name, *_sum(left, right)


def test_lifts_match_the_row_by_row_fraction_solve():
    lifted = 0
    for name, brd, eps in _lift_inputs():
        for perm in permutations(range(len(brd.simple_roots))):
            want = oracle.lift_s_permutation_by_rows(eps, perm)
            assert _same(lift_s_permutation(brd, perm), want), (name, perm)
            lifted += want is not None
    assert lifted > 100


def _diagram_automorphisms(brd):
    return oracle.dynkin_automorphisms_by_scan(brd, lift_s_permutation)[0]


def _w_and_diagram_inputs(brd):
    autos = _diagram_automorphisms(brd)
    for w in weyl_group(brd):
        yield w.matrix
        yield IntMatrix.from_rows(map(vec_neg, w.matrix.entries))
        for a in autos:
            yield w.matrix @ a.matrix


def _seeded_inputs(brd, rng, count=150):
    """Signed permutation matrices, elementary matrices I + c E_ij, and
    diagonal matrices of determinant 2."""
    n = brd.rank
    for i in range(n):
        yield IntMatrix.from_rows([[(r == c) * (2 if r == i else 1) for c in range(n)]
                                   for r in range(n)], n)
    for _ in range(count):
        order = rng.sample(range(n), n)
        yield IntMatrix.from_rows([[rng.choice((1, -1)) * (j == order[i]) for j in range(n)]
                                   for i in range(n)], n)
        if n > 1:
            i, j = rng.sample(range(n), 2)
            rows = [[int(r == c) for c in range(n)] for r in range(n)]
            rows[i][j] = rng.choice((1, -1, 2, -2))
            yield IntMatrix.from_rows(rows, n)


AUT_DATA = [
    *(pytest.param(*_both((letter, rank), isogeny), id=f"{letter}{rank}-{isogeny}")
      for letter, rank in [("A", 1), ("A", 2), ("A", 3), ("A", 4), ("B", 2), ("B", 3),
                           ("B", 4), ("C", 3), ("D", 4), ("G", 2), ("F", 4)]
      for isogeny in ("simply_connected", "adjoint")),
    # a central torus: shears that fix every root but move a coroot
    *(pytest.param(*_sum(_both((letter, rank), "simply_connected"), _both(t)),
                   id=f"{letter}{rank}+T{t}")
      for letter, rank, t in [("A", 1, 1), ("A", 2, 1), ("B", 2, 2)])]


@pytest.mark.parametrize("brd,eps", AUT_DATA)
def test_automorphism_test_matches_the_check_on_every_root(brd, eps):
    rng = random.Random(f"aut {brd.components} {brd.isogeny}")
    found = 0
    for m in [*_w_and_diagram_inputs(brd), *_seeded_inputs(brd, rng)]:
        want = oracle.as_brd_automorphism_on_all_roots(eps, m)
        assert _same(as_brd_automorphism(brd, m), want), m
        found += want is not None
    assert found >= len(_diagram_automorphisms(brd))


def test_diagram_lifts_at_rank_twelve():
    ident = tuple(range(12))
    a12 = build_root_datum("A", 12)
    assert lift_s_permutation(a12, ident[::-1]).s_perm == ident[::-1]
    d12 = build_root_datum("D", 12, "adjoint")
    swap = lift_s_permutation(d12, ident[:10] + (11, 10))
    assert oracle.as_brd_automorphism_on_all_roots(
        oracle.build("D", 12, "adjoint"), swap.matrix) == (swap.matrix, swap.s_perm)
