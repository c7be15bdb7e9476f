"""Tests for Weyl orbits and conjugacy search, on the orthogonal root
quadruples of D4 among others."""
from fractions import Fraction

import pytest

import epsilon_rootdata_oracle as oracle
from sphdescent import weyl
from sphdescent.intlinalg import vec_dot
from sphdescent.rootdata import (BasedRootDatum, CapExceeded, build_root_datum,
                                 lift_s_permutation)
from sphdescent.weyl import are_weyl_conjugate, root_subset, roots_and_coroots, weyl_orbit


@pytest.fixture(scope="module")
def d4():
    return build_root_datum("D", 4)


@pytest.fixture(scope="module")
def d4_eps():
    return oracle.build("D", 4)


def quadruples_by_recount(brd, eps):
    return [root_subset(brd, q) for q in oracle.orthogonal_quadruples(eps)]


def test_orbit_of_first_fundamental_weight(d4, d4_eps):
    orbit = weyl_orbit(d4, (1, 0, 0, 0))
    assert len(orbit) == 8
    eps = {d4_eps.to_epsilon(v) for v in orbit}
    unit = lambda i, s: tuple(Fraction(s) if j == i else Fraction(0) for j in range(4))
    assert eps == {unit(i, s) for i in range(4) for s in (1, -1)}


def test_orbit_of_second_fundamental_weight_is_the_root_set(d4, d4_eps):
    orbit = weyl_orbit(d4, (0, 1, 0, 0))
    assert len(orbit) == 24
    assert orbit == frozenset(d4_eps.roots) == roots_and_coroots(d4)[0]


def test_orbit_of_zero(d4):
    assert weyl_orbit(d4, (0, 0, 0, 0)) == {(0, 0, 0, 0)}


def test_orbit_cap(d4):
    with pytest.raises(CapExceeded):
        weyl_orbit(d4, (1, 0, 0, 0), cap=3)


@pytest.mark.parametrize("cap", [0, -3])
def test_orbit_cap_below_one_is_refused(cap):
    # once a cap hit: "orbit exceeded cap 0"
    with pytest.raises(ValueError, match=f"^cap must be a positive integer, got {cap}$"):
        weyl_orbit(build_root_datum("A", 2), (-1, 1), cap=cap)


def test_orbit_walk_refuses_non_integral_simple_roots_before_compiling(monkeypatch):
    # a hand-built datum that carries mu (its coroot is not e_1): alpha = 1/2
    # written into the walk's source as text would make p0 * 1/2 a float
    def compile(*args, **kwargs):
        raise AssertionError("compiled a walk")
    monkeypatch.setattr(weyl, "compile", compile, raising=False)
    brd = BasedRootDatum((("A", 1),), "custom_lattice", 1, ((Fraction(1, 2),),), ((4,),))
    with pytest.raises(ValueError, match="^the orbit walk needs integral simple roots"):
        weyl_orbit(brd, (3,))
    with pytest.raises(ValueError, match="1/2$"):
        weyl._walker(brd)


def test_regular_e6_orbit_has_one_element_per_weyl_element():
    e6, rho = build_root_datum("E", 6), (1,) * 6
    orbit = weyl_orbit(e6, rho)
    assert len(orbit) == 51_840  # |W(E6)|: rho has trivial stabiliser
    dominant = [u for u in orbit if all(vec_dot(u, c) >= 0 for c in e6.simple_coroots)]
    assert dominant == [rho]
    with pytest.raises(CapExceeded, match="^orbit exceeded cap 51839$"):
        weyl_orbit(e6, rho, cap=51_839)


def test_orbit_accepts_rational_vectors(d4):
    half = (Fraction(1, 2), 0, 0, 0)
    orbit = weyl_orbit(d4, half)
    assert len(orbit) == 8


def test_root_subset_validation(d4):
    with pytest.raises(ValueError):
        root_subset(d4, [(5, 0, 0, 0)])
    assert root_subset(d4, [d4.simple_roots[0]]).roots == {d4.simple_roots[0]}


def test_root_subset_rejects_non_integral_vectors(d4):
    # int() would truncate (5/2, -1, 0, 0) to the simple root (2, -1, 0, 0)
    with pytest.raises(ValueError, match=r"not an integral vector: \(5/2, -1, 0, 0\)"):
        root_subset(d4, [d4.simple_roots[0], (Fraction(5, 2), -1, 0, 0)])
    assert root_subset(d4, [(Fraction(2), -1, 0, 0)]).roots == {(2, -1, 0, 0)}


def test_quadruples_are_weyl_conjugate_with_verified_witness(d4, d4_eps):
    quads = quadruples_by_recount(d4, d4_eps)
    assert len(quads) == 3 and all(len(q.roots) == 8 for q in quads)
    for other in quads[1:]:
        w = are_weyl_conjugate(d4, quads[0], other)
        assert w is not None
        image = {tuple(int(x) for x in w.matrix.apply(r)) for r in quads[0].roots}
        assert image == other.roots


def test_conjugacy_self_witness_is_identity(d4, d4_eps):
    quad = quadruples_by_recount(d4, d4_eps)[0]
    w = are_weyl_conjugate(d4, quad, quad)
    assert w is not None and w.word == ()


def test_triality_preserves_the_split_quadruple(d4, d4_eps):
    # the outer triality automorphism permutes simple roots 1 -> 3 -> 4 -> 1,
    # all of which lie in the split quadruple
    # {±(e1-e2), ±(e1+e2), ±(e3-e4), ±(e3+e4)}, so it maps that set to itself
    tri = lift_s_permutation(d4, (2, 1, 3, 0))
    split = next(q for q in quadruples_by_recount(d4, d4_eps)
                 if all(s in q.roots for s in (d4.simple_roots[0],
                                               d4.simple_roots[2], d4.simple_roots[3])))
    image = root_subset(d4, [tri.matrix.apply(r) for r in split.roots])
    assert image.roots == split.roots
    w = are_weyl_conjugate(d4, split, image)
    assert w is not None and w.word == ()


def test_conjugacy_in_rank_two():
    a2 = build_root_datum("A", 2)
    a1 = a2.simple_roots[0]
    high = tuple(x + y for x, y in zip(a2.simple_roots[0], a2.simple_roots[1]))
    pair = root_subset(a2, [a1, tuple(-x for x in a1)])
    target = root_subset(a2, [high, tuple(-x for x in high)])
    w = are_weyl_conjugate(a2, pair, target)
    assert w is not None
    assert {tuple(w.matrix.apply(r)) for r in pair.roots} == target.roots


def test_non_conjugate_subsets_return_none():
    b2 = build_root_datum("B", 2)
    long_root, short_root = b2.simple_roots[0], b2.simple_roots[1]
    a = root_subset(b2, [long_root, tuple(-x for x in long_root)])
    b = root_subset(b2, [short_root, tuple(-x for x in short_root)])
    assert are_weyl_conjugate(b2, a, b) is None


@pytest.mark.parametrize("other", [(1, 0), (-2, 2)])
def test_conjugacy_cap_below_one_is_refused_before_the_prefilter(other):
    # (1, 0) is a short root, told apart from the long (2, -2) by the form
    # statistics alone; the cap is refused all the same
    b2 = build_root_datum("B", 2)
    a, b = root_subset(b2, [(2, -2)]), root_subset(b2, [other])
    with pytest.raises(ValueError, match="^cap must be a positive integer, got 0$"):
        are_weyl_conjugate(b2, a, b, cap=0)


def test_conjugacy_size_mismatch_short_circuits(d4):
    a = root_subset(d4, [d4.simple_roots[0]])
    b = root_subset(d4, d4.simple_roots[:2])
    assert are_weyl_conjugate(d4, a, b) is None


def test_conjugacy_requires_matching_datum(d4):
    a2 = build_root_datum("A", 2)
    s = root_subset(a2, [a2.simple_roots[0]])
    with pytest.raises(ValueError):
        are_weyl_conjugate(d4, s, s)
