"""Tests for based root data: construction, pairing, Weyl group, automorphisms."""
from fractions import Fraction
from itertools import combinations

import pytest

import epsilon_rootdata_oracle as oracle
from sphdescent.intlinalg import IntMatrix, vec_dot
from sphdescent.rootdata import (
    BRDAutomorphism,
    CapExceeded,
    as_brd_automorphism,
    build_root_datum,
    direct_sum,
    lift_s_permutation,
    torus,
    weyl_elements,
    weyl_group,
)
from sphdescent.weyl import roots_and_coroots


@pytest.fixture(scope="module")
def d4():
    return build_root_datum("D", 4)


@pytest.fixture(scope="module")
def d4_eps():
    return oracle.build("D", 4)


def diagram_automorphisms(brd):
    return oracle.dynkin_automorphisms_by_scan(brd, lift_s_permutation)


def test_d4_counts(d4):
    assert len(roots_and_coroots(d4)[0]) == 24
    assert len(d4.simple_roots) == 4


def test_d4_epsilon_realization(d4, d4_eps):
    eps = {d4_eps.to_epsilon(r) for r in roots_and_coroots(d4)[0]}
    expected = set()
    for i, j in combinations(range(4), 2):
        for si in (1, -1):
            for sj in (1, -1):
                v = [Fraction(0)] * 4
                v[i], v[j] = Fraction(si), Fraction(sj)
                expected.add(tuple(v))
    assert eps == expected


def test_d4_simple_roots_are_the_classical_ones(d4, d4_eps):
    simple_eps = [d4_eps.to_epsilon(a) for a in d4.simple_roots]
    assert simple_eps == [(1, -1, 0, 0), (0, 1, -1, 0), (0, 0, 1, -1), (0, 0, 1, 1)]


def test_pairing_gives_cartan_entries(d4):
    assert vec_dot(d4.simple_roots[0], d4.simple_coroots[1]) == -1
    assert vec_dot(d4.simple_roots[0], d4.simple_coroots[0]) == 2
    assert vec_dot(d4.simple_roots[0], d4.simple_coroots[2]) == 0
    assert d4.cartan_matrix.entries == (
        (2, -1, 0, 0), (-1, 2, -1, -1), (0, -1, 2, 0), (0, -1, 0, 2))


def test_weyl_group_orders():
    assert len(weyl_group(build_root_datum("A", 1))) == 2
    assert len(weyl_group(build_root_datum("A", 2))) == 6
    assert len(weyl_group(build_root_datum("B", 2))) == 8


def test_weyl_group_d4_order_with_orbit_stabilizer_crosscheck(d4):
    w = weyl_group(d4)
    assert len(w) == 192  # 2^3 * 4!
    alpha = d4.simple_roots[0]
    orbit = {tuple(el.matrix.apply(alpha)) for el in w}
    stab = [el for el in w if el.matrix.apply(alpha) == alpha]
    assert len(orbit) * len(stab) == len(w)
    assert len(orbit) == 24


def test_weyl_cap(d4):
    with pytest.raises(CapExceeded):
        weyl_group(d4, cap=10)


@pytest.mark.parametrize("cap", [0, -3])
def test_weyl_cap_below_one_is_refused(d4, cap):
    walk = weyl_elements(d4, cap)
    with pytest.raises(ValueError, match=f"^cap must be a positive integer, got {cap}$"):
        next(walk)  # before the identity is yielded


def test_weyl_words_are_reduced_and_act_correctly(d4, d4_eps):
    w = weyl_group(d4)
    lengths = {}
    for el in w:
        m = IntMatrix.identity(4)
        for i in el.word:
            m = m @ oracle.reflection(d4_eps, d4.simple_roots[i])
        assert m == el.matrix
        lengths.setdefault(el.matrix, len(el.word))
    # breadth-first search gives words of minimal length, so the longest
    # element of D4 has the classical length 12
    assert max(len(el.word) for el in w) == 12


@pytest.mark.parametrize("letter,rank", [("A", 1), ("A", 2), ("B", 2), ("D", 4)])
def test_weyl_elements_preserve_roots_and_pairing(letter, rank):
    brd, eps = build_root_datum(letter, rank), oracle.build(letter, rank)
    roots, coroots = roots_and_coroots(brd)
    for el in weyl_group(brd):
        assert {el.matrix.apply(r) for r in roots} == roots
        inv_t = el.matrix.inverse_unimodular().transpose()
        assert {inv_t.apply(c) for c in coroots} == coroots
        for beta, cov in list(zip(eps.roots, eps.coroots))[:4]:
            assert vec_dot(el.matrix.apply(beta), inv_t.apply(cov)) == 2


def test_reflections_are_involutions(d4, d4_eps):
    for beta in roots_and_coroots(d4)[0]:
        s = oracle.reflection(d4_eps, beta)
        assert s @ s == IntMatrix.identity(4)
        assert s.apply(beta) == tuple(-x for x in beta)


@pytest.mark.parametrize("letter,rank", [("A", 2), ("D", 4)])
def test_simply_laced_root_transitivity(letter, rank):
    brd = build_root_datum(letter, rank)
    w = weyl_group(brd)
    alpha = brd.simple_roots[0]
    orbit = {tuple(el.matrix.apply(alpha)) for el in w}
    assert orbit == roots_and_coroots(brd)[0]


def test_dynkin_automorphism_counts(d4):
    autos, skipped = diagram_automorphisms(d4)
    assert len(autos) == 6 and not skipped
    a2, _ = diagram_automorphisms(build_root_datum("A", 2))
    assert len(a2) == 2
    a1, _ = diagram_automorphisms(build_root_datum("A", 1))
    assert len(a1) == 1
    b2, _ = diagram_automorphisms(build_root_datum("B", 2))
    assert len(b2) == 1  # arrow breaks the node swap


def test_triality_is_an_order_three_automorphism(d4):
    tri = lift_s_permutation(d4, (2, 1, 3, 0))
    sq = tri.matrix @ tri.matrix
    assert sq @ tri.matrix == IntMatrix.identity(4)
    assert sq != IntMatrix.identity(4)
    sq_perm = tuple(tri.s_perm[j] for j in tri.s_perm)
    assert tuple(sq_perm[j] for j in tri.s_perm) == (0, 1, 2, 3) != sq_perm


def test_dynkin_automorphisms_pass_the_full_check(d4, d4_eps):
    autos, _ = diagram_automorphisms(d4)
    for a in autos:
        assert oracle.as_brd_automorphism_on_all_roots(d4_eps, a.matrix) == (a.matrix, a.s_perm)


def test_is_brd_automorphism_rejects(d4):
    assert as_brd_automorphism(d4, IntMatrix.from_rows([[2, 0, 0, 0], [0, 1, 0, 0],
                                                        [0, 0, 1, 0], [0, 0, 0, 1]])) is None
    # -id maps R to R but swaps positive and negative simple roots
    assert as_brd_automorphism(d4, IntMatrix.from_rows(
        [[-1 if i == j else 0 for j in range(4)] for i in range(4)])) is None
    assert as_brd_automorphism(d4, IntMatrix.identity(4)) is not None


def test_weyl_elements_are_usually_not_based_automorphisms(d4):
    # any nontrivial Weyl element moves some simple root off S
    w = weyl_group(d4)
    nontrivial = [el for el in w if el.word]
    assert all(as_brd_automorphism(d4, el.matrix) is None for el in nontrivial[:20])


def test_lift_s_permutation_identity_and_errors(d4):
    ident = lift_s_permutation(d4, (0, 1, 2, 3))
    assert ident is not None and ident.matrix == IntMatrix.identity(4)
    assert lift_s_permutation(d4, (1, 0, 2, 3)) is None  # breaks the Cartan matrix
    with pytest.raises(ValueError):
        lift_s_permutation(d4, (0, 0, 1, 2))


def test_adjoint_isogeny_d4():
    brd = build_root_datum("D", 4, "adjoint")
    assert brd.simple_roots == ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))
    assert len(roots_and_coroots(brd)[0]) == 24
    autos, skipped = diagram_automorphisms(brd)
    assert len(autos) == 6 and not skipped


def test_custom_lattice_between_root_and_weight():
    # index-2 sublattice of the A1 weight lattice = the root lattice
    brd = build_root_datum("A", 1, "custom_lattice", lattice_basis=[[2]])
    assert brd.simple_roots == ((1,),)
    with pytest.raises(ValueError):
        # index-3 lattice does not contain the root alpha = 2*omega
        build_root_datum("A", 1, "custom_lattice", lattice_basis=[[3]])


def test_torus_and_direct_sum():
    t = torus(2)
    assert roots_and_coroots(t) == (frozenset(), frozenset()) and t.rank == 2
    assert len(weyl_group(t)) == 1
    both = direct_sum(build_root_datum("A", 1), t)
    assert both.rank == 3
    assert roots_and_coroots(both)[0] == {(2, 0, 0), (-2, 0, 0)}
    assert both.torus_coords == (1, 2)
    autos, _ = diagram_automorphisms(both)
    assert len(autos) == 1  # identity lift only


def test_invariant_form_is_weyl_invariant(d4, d4_eps):
    def form(v, w):
        return sum(x * y for x, y in zip(d4_eps.to_epsilon(v), d4_eps.to_epsilon(w)))

    v1, v2 = d4.simple_roots[0], d4.simple_roots[1]
    base = form(v1, v2)
    for el in weyl_group(d4)[:25]:
        assert form(el.matrix.apply(v1), el.matrix.apply(v2)) == base
