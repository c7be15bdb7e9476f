"""Tests for finite automorphism actions and their induced actions."""
import random
from fractions import Fraction

import pytest

from closure_oracle import elements
from sphdescent.cones import cone_from_generators, is_gamma_stable, wonderful_fan
from sphdescent.intlinalg import IntMatrix, Lattice, kernel_lattice, vec_dot
from sphdescent.invariants import SphericalInvariants, preserves_invariants
from sphdescent.rootdata import BRDAutomorphism, build_root_datum, torus
from sphdescent.staraction import (
    ClosureCapExceeded,
    build_action,
    dual_matrix_on_V,
    restrict_to_sublattice,
)
from test_acceptance import _signed_permutation
from test_interned_data import TYPES, cartan_preserving
from test_invariance_engine import PROBLEMS


@pytest.fixture(scope="module")
def d4():
    return build_root_datum("D", 4)


@pytest.fixture(scope="module")
def triality(d4):
    # alpha1 -> alpha3 -> alpha4 -> alpha1, alpha2 fixed
    return build_action(d4, [(2, 1, 3, 0)], names=("t",))


def on_closure(per_element, action, lattice):
    """per_element(g, lattice) for every element g of the closure, in order."""
    return [per_element(g, lattice) for g in elements(action)]


def alpha_coords(brd):
    c = brd.cartan_matrix.entries
    return [tuple(c[i][j] for i in range(brd.rank)) for j in range(brd.rank)]


def test_trivial_action(d4):
    act = build_action(d4, [])
    assert act.order == 1
    assert elements(act)[0].matrix == IntMatrix.identity(4)


def test_triality_closure_order_three(triality):
    assert triality.order == 3
    t = triality.generators[0]
    ident, first, second = elements(triality)
    assert ident.matrix == IntMatrix.identity(4) and first == t
    assert second.matrix == t.matrix @ t.matrix
    assert second.s_perm == tuple(t.s_perm[j] for j in t.s_perm)


def test_full_s3_closure_order_six(d4):
    act = build_action(d4, [(2, 1, 3, 0), (0, 1, 3, 2)])
    assert act.order == 6


@pytest.mark.parametrize("isogeny", ["simply_connected", "adjoint"])
def test_s3_closure_order_and_cap(isogeny):
    # breadth first from the generators, the triality t and the swap s, then
    # their products t.t, t.s and s.t, which complete the group
    brd = build_root_datum("D", 4, isogeny)
    gens = [(2, 1, 3, 0), (0, 1, 3, 2)]
    act = build_action(brd, gens, cap=6)
    assert act.order == 6
    els = elements(act)
    assert [el.s_perm for el in els] == [
        (0, 1, 2, 3), (2, 1, 3, 0), (0, 1, 3, 2), (3, 1, 0, 2), (2, 1, 0, 3), (3, 1, 2, 0)]
    # in both bases the lifts are the permutation matrices e_j -> e_perm[j]
    assert [el.matrix.entries for el in els] == [
        tuple(tuple(int(i == p[j]) for j in range(4)) for i in range(4))
        for p in (el.s_perm for el in els)]
    with pytest.raises(ClosureCapExceeded, match=(
            r"^closure exceeds 5 elements; the action must factor through a finite "
            r"group \(for a torus factor, pick generators of finite order\)$")):
        build_action(brd, gens, cap=5)


def test_closure_is_a_group(d4):
    act = build_action(d4, [(2, 1, 3, 0), (0, 1, 3, 2)])
    els = elements(act)
    mats = {el.matrix.entries for el in els}
    assert len(mats) == act.order
    assert IntMatrix.identity(4).entries in mats
    for a in els:
        assert a.matrix.inverse_unimodular().entries in mats
        for b in els:
            assert (a.matrix @ b.matrix).entries in mats


def test_generator_validation(d4):
    with pytest.raises(ValueError):
        build_action(d4, [(1, 0, 2, 3)])  # not a diagram symmetry
    with pytest.raises(ValueError):
        build_action(d4, [IntMatrix.from_rows(
            [[-1 if i == j else 0 for j in range(4)] for i in range(4)])])
    with pytest.raises(ValueError):
        build_action(d4, [(2, 1, 3, 0)], names=("a", "b"))


def test_non_integral_generator_is_refused():
    # truncated to -1, the entry -3/2 would give an action of order 2
    with pytest.raises(ValueError, match="^entry -3/2 is not an integer$"):
        build_action(torus(1), [IntMatrix.from_rows([[Fraction(-3, 2)]])])
    # truncated to 1, the permutation entry 3/2 would give the swap of A2
    with pytest.raises(ValueError, match="^entry 3/2 is not an integer$"):
        build_action(build_root_datum("A", 2), [(Fraction(3, 2), 0)])


def test_infinite_closure_hits_cap():
    t2 = torus(2)
    shear = IntMatrix.from_rows([[1, 1], [0, 1]])
    with pytest.raises(ClosureCapExceeded, match="finite"):
        build_action(t2, [shear])


@pytest.mark.parametrize("cap", [0, -3])
def test_closure_cap_below_one_is_refused(d4, cap):
    def generators():
        pytest.fail("a generator was read")
        yield
    with pytest.raises(ValueError, match=f"^cap must be a positive integer, got {cap}$"):
        build_action(d4, generators(), cap=cap)


def test_torus_finite_order_generator_is_fine():
    t2 = torus(2)
    swap = IntMatrix.from_rows([[0, 1], [1, 0]])
    assert build_action(t2, [swap]).order == 2


def test_restriction_to_stable_span(d4, triality):
    a = alpha_coords(d4)
    lat = Lattice.from_rows(4, [
        tuple(x - y for x, y in zip(a[0], a[2])),
        tuple(x - y for x, y in zip(a[2], a[3]))])
    mats = on_closure(restrict_to_sublattice, triality, lat)
    assert None not in mats
    assert len(mats) == 3
    assert mats[0] == IntMatrix.identity(2)
    m = mats[1]
    assert m.entries == ((-1, -1), (1, 0))
    assert m @ m @ m == IntMatrix.identity(2)
    assert len({x.entries for x in mats}) == 3


def test_restriction_absent_names_violator(d4, triality):
    lat = Lattice.from_rows(4, [alpha_coords(d4)[0]])
    mats = on_closure(restrict_to_sublattice, triality, lat)
    # the first element that moves the lattice is the generator t
    first = next(k for k, m in enumerate(mats) if m is None)
    assert elements(triality)[first] == triality.generators[0]
    assert mats[0] == IntMatrix.identity(1) and mats[1:] == [None, None]


def test_trivial_action_restricts_to_identity(d4):
    act = build_action(d4, [])
    lat = Lattice.from_rows(4, [(1, 2, 0, 0), (0, 0, 3, 1)])
    assert on_closure(restrict_to_sublattice, act, lat) == [IntMatrix.identity(2)]


def test_fixed_lattice_restriction_is_trivial(triality):
    # the fixed lattice is the kernel of the stacked g - I over the generators
    lat = kernel_lattice(IntMatrix.from_rows(
        [r for g in triality.generators for r in (g.matrix - IntMatrix.identity(4)).entries]))
    assert lat.rank == 2
    mats = on_closure(restrict_to_sublattice, triality, lat)
    assert all(m == IntMatrix.identity(2) for m in mats)


def test_restriction_independent_of_generating_rows(d4, triality):
    a = alpha_coords(d4)
    g1 = tuple(x - y for x, y in zip(a[0], a[2]))
    g2 = tuple(x - y for x, y in zip(a[2], a[3]))
    lat1 = Lattice.from_rows(4, [g1, g2])
    lat2 = Lattice.from_rows(4, [tuple(x + y for x, y in zip(g1, g2)), g2,
                                 tuple(-x for x in g1)])
    assert lat1 == lat2  # canonical basis, so restrictions agree verbatim
    assert (on_closure(restrict_to_sublattice, triality, lat1)
            == on_closure(restrict_to_sublattice, triality, lat2))


def test_dual_action_is_the_cyclic_permutation_on_dual_alpha_basis(d4, triality):
    a = alpha_coords(d4)
    root_lat = Lattice.from_rows(4, a)
    dual = on_closure(dual_matrix_on_V, triality, root_lat)
    # switch from the canonical-basis dual to the dual of the alpha basis:
    # if T columns express alpha_i in the canonical basis, functionals
    # transform by T^T on one side and T^{-T} on the other
    cols = [root_lat.coordinates(v) for v in a]
    t = IntMatrix.from_rows([[cols[i][j] for i in range(4)] for j in range(4)])
    d_alpha = t.transpose() @ dual[1] @ t.inverse_unimodular().transpose()
    perm = IntMatrix.from_rows(
        [[1 if j == (2, 1, 3, 0)[i] else 0 for j in range(4)] for i in range(4)])
    assert d_alpha in (perm, perm.transpose())


def test_dual_action_preserves_evaluation_pairing(d4, triality):
    a = alpha_coords(d4)
    root_lat = Lattice.from_rows(4, a)
    restricted = on_closure(restrict_to_sublattice, triality, root_lat)
    dual = on_closure(dual_matrix_on_V, triality, root_lat)
    x, y = (1, 2, 3, 4), (2, -1, 0, 5)
    for n, m in zip(restricted, dual):
        assert vec_dot(n.apply(x), m.apply(y)) == vec_dot(x, y)
        order_n = _order(n)
        assert _order(m) == order_n


def _order(m, cap=64):
    acc = m
    ident = IntMatrix.identity(m.rows)
    for k in range(1, cap + 1):
        if acc == ident:
            return k
        acc = acc @ m
    raise AssertionError("order exceeds cap")


def test_dual_action_requires_stable_lattice(d4, triality):
    lat = Lattice.from_rows(4, [alpha_coords(d4)[0]])
    assert on_closure(dual_matrix_on_V, triality, lat) == [IntMatrix.identity(1), None, None]


def moved_subset(subset, element):
    """A set of simple-root indices moved by an element's permutation."""
    return frozenset(element.s_perm[i] for i in subset)


def test_action_on_simple_subsets(triality):
    t = elements(triality)[1]
    assert moved_subset({1}, t) == {1}
    assert moved_subset({0, 2, 3}, t) == {0, 2, 3}
    assert moved_subset(set(), t) == frozenset()
    assert moved_subset({0}, t) == {2}


def stabilizes(action, subset):
    return all(moved_subset(subset, g) == frozenset(subset)
               for g in elements(action))


def test_stabilizes_simple_subset(triality):
    assert stabilizes(triality, {1})
    assert stabilizes(triality, {0, 2, 3})
    assert not stabilizes(triality, {0})


def test_generator_stability_propagates_to_closure(d4):
    # stability under every closure element follows from the generators
    act = build_action(d4, [(2, 1, 3, 0), (0, 1, 3, 2)])
    for subset in ({1}, {0, 2, 3}, {0, 1, 2, 3}, set()):
        gen_ok = all(moved_subset(subset, g) == frozenset(subset)
                     for g in act.generators)
        all_ok = stabilizes(act, subset)
        assert gen_ok == all_ok


def assert_inverses_read_off_the_closure(action, solve_widths):
    """Each generator's inverse is there with no solve, inverts its matrix,
    and is the inverse that the fraction-free solve finds."""
    solve_widths.clear()
    inverses = [g.inverse_matrix for g in action.generators]
    assert solve_widths == []
    ident = IntMatrix.identity(action.brd.rank)
    for g, inv in zip(action.generators, inverses):
        assert g.matrix @ inv == ident == inv @ g.matrix
        assert inv == g.matrix.inverse_unimodular()


def test_corpus_generators_carry_their_inverses(solve_widths):
    # the corpus files and their criterion-8 re-presentations in new bases
    actions = [p.action for _, p in PROBLEMS]
    assert sum(len(a.generators) for a in actions) >= 36
    for action in actions:
        assert_inverses_read_off_the_closure(action, solve_widths)


@pytest.mark.parametrize("isogeny", ["simply_connected", "adjoint"])
def test_diagram_lifts_carry_their_inverses(isogeny, solve_widths):
    for letter, rank in TYPES:
        if rank > 8:
            continue
        brd = build_root_datum(letter, rank, isogeny)
        autos = cartan_preserving(brd.cartan_matrix.entries)
        action = build_action(brd, autos)
        assert [g.s_perm for g in action.generators] == autos
        assert_inverses_read_off_the_closure(action, solve_widths)


def test_signed_permutations_carry_their_inverses(solve_widths):
    rng = random.Random(30)
    for dim in range(1, 7):
        for count in (1, 1, 1, 2, 2):
            gens = [_signed_permutation(rng, dim) for _ in range(count)]
            action = build_action(torus(dim), gens, cap=10 ** 5)
            assert_inverses_read_off_the_closure(action, solve_widths)


def test_a_hand_built_inverse_is_solved_for_and_refused_when_not_unimodular():
    swap = BRDAutomorphism(IntMatrix.from_rows([[0, 1], [1, 0]]), ())
    assert swap.inverse_matrix == swap.matrix
    double = BRDAutomorphism(IntMatrix.from_rows([[2, 0], [0, 1]]), ())
    with pytest.raises(ValueError, match="not unimodular"):
        double.inverse_matrix


def test_torus_transport_to_V_runs_no_elimination(solve_widths):
    # a signed permutation of Z^n: its closure, stability of the face fan of
    # a cone, and invariance on Z^n and on 2Z^n, all without a solve against
    # a right-hand block; the width-0 unimodularity test stays
    rng = random.Random(31)
    for dim in range(1, 7):
        for _ in range(3):
            # nonnegative generators span a pointed cone
            cone = cone_from_generators(dim, [tuple(rng.randint(0, 2) for _ in range(dim))
                                              for _ in range(dim + 1)] + [(1,) * dim])
            fan = wonderful_fan(cone)
            lattices = [Lattice.full(dim), Lattice.from_rows(dim, [
                tuple(2 * int(i == j) for j in range(dim)) for i in range(dim)])]
            solve_widths.clear()
            action = build_action(torus(dim), [_signed_permutation(rng, dim)], names=("g",))
            for lattice in lattices:
                inv = SphericalInvariants(torus(dim), lattice, cone, frozenset(), frozenset())
                preserves_invariants(action, action.generators[0], inv)
                is_gamma_stable(fan, action, lattice)
            assert solve_widths == [0]
