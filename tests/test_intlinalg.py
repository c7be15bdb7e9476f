"""Tests for exact integer linear algebra: normal forms, lattices, groups."""
import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import elimination_oracle as oracle
from sphdescent.intlinalg import (
    FgAbelianGroup,
    IntMatrix,
    Lattice,
    fixed_points_fg,
    hnf,
    kernel_lattice,
    snf,
    vec_dot,
    vec_is_zero,
)

small_entries = st.integers(min_value=-9, max_value=9)


def small_matrix(max_dim=4):
    return st.integers(min_value=1, max_value=max_dim).flatmap(
        lambda r: st.integers(min_value=1, max_value=max_dim).flatmap(
            lambda c: st.lists(
                st.lists(small_entries, min_size=c, max_size=c),
                min_size=r, max_size=r,
            ).map(IntMatrix.from_rows)
        )
    )


def is_row_hnf(h: IntMatrix) -> bool:
    pivots = []
    seen_zero = False
    for row in h.entries:
        nz = [j for j, x in enumerate(row) if x != 0]
        if not nz:
            seen_zero = True
            continue
        if seen_zero:
            return False  # zero rows must come last
        p = nz[0]
        if pivots and p <= pivots[-1]:
            return False
        if row[p] <= 0:
            return False
        pivots.append(p)
    for k, p in enumerate(pivots):
        col = [h.entries[i][p] for i in range(k)]
        if any(not (0 <= x < h.entries[k][p]) for x in col):
            return False
    return True


def assert_same_row_span(m: IntMatrix, h: IntMatrix):
    """h spans the rows of m: each lies in the other's span, read off by
    Lattice.coordinates on an echelon basis.  The span of m is that of the
    transform oracle's h0, certified by u @ m == h0 with u unimodular."""
    h0, u = oracle.hnf_with_transform(m)
    assert u @ m == h0 and oracle.bareiss_det(u) in (1, -1)

    def echelon(mat):
        rows = tuple(r for r in mat.entries if not vec_is_zero(r))
        return Lattice(mat.cols, IntMatrix(len(rows), mat.cols, rows))

    assert all(echelon(h).coordinates(r) is not None for r in h0.entries)
    assert all(echelon(h0).coordinates(r) is not None for r in h.entries)


def test_hnf_worked_example():
    m = IntMatrix.from_rows([[2, 4], [1, 1]])
    h = hnf(m)
    assert h.entries == ((1, 1), (0, 2))
    assert_same_row_span(m, h)


@given(small_matrix())
@settings(max_examples=150, deadline=None)
def test_hnf_properties(m):
    h = hnf(m)
    assert (h.rows, h.cols) == (m.rows, m.cols)
    assert is_row_hnf(h)
    assert_same_row_span(m, h)


@given(small_matrix())
@settings(max_examples=100, deadline=None)
def test_hnf_row_span_preserved(m):
    # h spans the rows of m, so both give the same canonical lattice
    h = hnf(m)
    la = Lattice.from_rows(m.cols, m.entries)
    lb = Lattice.from_rows(m.cols, h.entries)
    assert la == lb


def test_snf_worked_example():
    m = IntMatrix.from_rows([[2, 0], [0, 3]])
    assert snf(m) == (1, 6)
    s, u, v = oracle.snf_with_transforms(m)
    assert s.entries == ((1, 0), (0, 6))
    assert u @ m @ v == s
    assert oracle.bareiss_det(u) in (1, -1) and oracle.bareiss_det(v) in (1, -1)


@given(small_matrix())
@settings(max_examples=150, deadline=None)
def test_snf_properties(m):
    # the transform oracle certifies its diagonal, which snf must equal
    s, u, v = oracle.snf_with_transforms(m)
    assert u @ m @ v == s
    assert oracle.bareiss_det(u) in (1, -1) and oracle.bareiss_det(v) in (1, -1)
    diag = [s.entries[i][i] for i in range(min(s.rows, s.cols))]
    assert snf(m) == tuple(diag)
    for i in range(s.rows):
        for j in range(s.cols):
            if i != j:
                assert s.entries[i][j] == 0
    assert all(d >= 0 for d in diag)
    for a, b in zip(diag, diag[1:]):
        if a != 0:
            assert b % a == 0
        else:
            assert b == 0


def test_dense_kernels_match_a_naive_loop():
    rng = random.Random(18)
    for rows, inner, cols in product(range(6), repeat=3):
        a = [[rng.randint(-9, 9) for _ in range(inner)] for _ in range(rows)]
        b = [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(inner)]
        v = [rng.randint(-9, 9) for _ in range(inner)]
        w = [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(inner)]
        m = IntMatrix(rows, inner, tuple(map(tuple, a)))
        naive = [[0] * cols for _ in range(rows)]
        for i in range(rows):
            for j in range(cols):
                for t in range(inner):
                    naive[i][j] += a[i][t] * b[t][j]
        assert m @ IntMatrix(inner, cols, tuple(map(tuple, b))) == IntMatrix(
            rows, cols, tuple(map(tuple, naive)))
        for x in (v, w):
            want = [0] * rows
            for i in range(rows):
                for t in range(inner):
                    want[i] += a[i][t] * x[t]
            assert m.apply(x) == tuple(want)
            assert [vec_dot(r, x) for r in a] == want
        with pytest.raises(ValueError, match="^vector length mismatch$"):
            m.apply(v + [0])
    assert IntMatrix(2, 0, ((), ())) @ IntMatrix(0, 3, ()) == IntMatrix(2, 3, ((0,) * 3,) * 2)


def test_lattice_canonical_and_membership():
    l1 = Lattice.from_rows(3, [(1, -1, 0), (0, 1, -1)])
    l2 = Lattice.from_rows(3, [(1, 0, -1), (1, -1, 0), (2, -1, -1)])
    assert l1 == l2
    assert (3, -1, -2) in l1
    assert (1, 0, 0) not in l1
    assert l1.coordinates((1, -1, 0)) is not None


def test_lattice_of_no_rows_is_zero():
    for n in range(4):
        zero = Lattice.from_rows(n, [])
        assert zero == Lattice(n, IntMatrix(0, n, ())) == Lattice.from_rows(n, [(0,) * n])
        assert zero.rank == 0 and (0,) * n in zero


def test_integer_constructors_refuse_non_integral_entries():
    # int() would truncate these to 0 and 1
    with pytest.raises(ValueError, match="^entry 1/2 is not an integer$"):
        IntMatrix.from_rows([[Fraction(1, 2), 1], [0, 1]])
    with pytest.raises(ValueError, match="^entry 3/2 is not an integer$"):
        Lattice.from_rows(2, [(Fraction(3, 2), 0), (0, 1)])
    # integral fractions are kept, as ints
    assert IntMatrix.from_rows([[Fraction(4, 2), 1]]).entries == ((2, 1),)
    assert Lattice.from_rows(2, [(Fraction(2), 0)]) == Lattice.from_rows(2, [(2, 0)])


def test_sublattice_equal_cyclic_image():
    # the sum-zero lattice of rank 2 in Z^3 is invariant under coordinate
    # rotation, so the image equals the original (verified by HNF compare)
    l1 = Lattice.from_rows(3, [(1, -1, 0), (0, 1, -1)])
    rot = IntMatrix.from_rows([[0, 0, 1], [1, 0, 0], [0, 1, 0]])
    assert l1.apply(rot) == l1


def test_sublattice_equal_rejects_rank_mismatch():
    assert Lattice.full(2) != Lattice.full(3)


def test_sublattice_proper_containment_is_not_equality():
    l1 = Lattice.from_rows(2, [(1, 0), (0, 1)])
    l2 = Lattice.from_rows(2, [(2, 0), (0, 1)])
    assert l1 != l2
    assert all(tuple(r) in l1 for r in l2.basis.entries)


@given(small_matrix(3), small_matrix(3))
@settings(max_examples=60, deadline=None)
def test_sublattice_equal_invariant_under_unimodular_row_mixing(m, ignored):
    lat = Lattice.from_rows(m.cols, m.entries)
    rows = list(m.entries)
    random.seed(7)
    if len(rows) >= 2:
        rows[0] = tuple(a + 3 * b for a, b in zip(rows[0], rows[1]))
    lat2 = Lattice.from_rows(m.cols, rows)
    assert lat == lat2


def test_kernel_lattice_examples():
    m = IntMatrix.from_rows([[1, 1, 1]])
    k = kernel_lattice(m)
    assert k.rank == 2
    assert all(sum(r) == 0 for r in k.basis.entries)
    assert kernel_lattice(IntMatrix.from_rows([[1, 0], [0, 1]])).rank == 0


def _rank_over_q(rows) -> int:
    """Rank by Gaussian elimination in Fractions, apart from the HNF."""
    rows, rank = [list(map(Fraction, r)) for r in rows], 0
    for c in range(len(rows[0]) if rows else 0):
        piv = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        for i in range(rank + 1, len(rows)):
            f = rows[i][c] / rows[rank][c]
            rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def test_kernel_lattice_on_seeded_shapes():
    # every shape from 0x0 to 5x6, entries -3..3; every other draw with two
    # or more rows makes one row a multiple of another, so the rank drops
    rng = random.Random(24)
    deficient = 0
    for rows, cols in product(range(6), range(7)):
        for k in range(6):
            m = [[rng.randint(-3, 3) for _ in range(cols)] for _ in range(rows)]
            if rows > 1 and k % 2:
                (i, j), c = rng.sample(range(rows), 2), rng.randint(-2, 2)
                m[i] = [c * x for x in m[j]]
            rank = _rank_over_q(m)
            deficient += rank < min(rows, cols)
            ker = kernel_lattice(IntMatrix(rows, cols, tuple(map(tuple, m))))
            basis = ker.basis
            assert ker.ambient_rank == cols and basis.cols == cols
            assert all(vec_dot(r, b) == 0 for r in m for b in basis.entries)
            assert hnf(basis) == basis
            assert ker.rank == cols - rank
            # saturated: Z^cols / ker is free, so B's invariant factors are 1
            assert all(d == 1 for d in snf(basis))
    assert deficient >= 30


def fixed_sublattice(n, generators):
    """The common fixed lattice of generators: the kernel of the stacked g - I."""
    return kernel_lattice(IntMatrix.from_rows(
        [r for g in generators for r in (g - IntMatrix.identity(n)).entries], n))


def test_fixed_sublattice_cyclic_rotation():
    rot = IntMatrix.from_rows([[0, 0, 1], [1, 0, 0], [0, 1, 0]])
    fixed = fixed_sublattice(3, [rot])
    assert fixed.basis.entries == ((1, 1, 1),)


def test_fixed_sublattice_swap():
    sw = IntMatrix.from_rows([[0, 1], [1, 0]])
    assert fixed_sublattice(2, [sw]).basis.entries == ((1, 1),)


def test_fixed_sublattice_no_generators_is_everything():
    assert fixed_sublattice(3, []) == Lattice.full(3)


@given(st.permutations(list(range(4))))
@settings(max_examples=40, deadline=None)
def test_fixed_sublattice_members_are_fixed(perm):
    g = IntMatrix.from_rows([[1 if perm[i] == j else 0 for j in range(4)] for i in range(4)])
    fixed = fixed_sublattice(4, [g])
    for row in fixed.basis.entries:
        assert g.apply(row) == row
    # saturation: primitive fixed vectors are present
    ones = (1,) * 4
    assert ones in fixed


# -- finitely generated abelian groups ---------------------------------------


def test_invariant_factors_and_order():
    g = FgAbelianGroup(IntMatrix.from_rows([[2, 0], [0, 3]]))
    assert g.invariant_factors == (1, 6)
    assert g.order() == 6
    free = FgAbelianGroup(IntMatrix(0, 2, ()))
    assert free.free_rank == 2
    assert free.order() is None


def test_element_canonicalization():
    g = FgAbelianGroup(IntMatrix.from_rows([[4, 0], [0, 1]]))  # Z/4
    coords = oracle.SmithCoordinates(g)
    assert coords.factors == g.invariant_factors
    assert coords.of((5, 0)) == coords.of((1, 0))
    assert coords.of((1, 0)) != coords.of((2, 0))
    assert len(coords.elements()) == 4


def test_klein_with_transitive_three_cycle_has_trivial_fixed_points():
    g = FgAbelianGroup(IntMatrix.from_rows([[2, 0], [0, 2]]))
    a = IntMatrix.from_rows([[0, 1], [1, 1]])  # cycles the three involutions
    assert g.is_automorphism(a)
    fixed = fixed_points_fg(g, [a])
    assert fixed.is_trivial()


def test_klein_factor_swap_fixes_diagonal():
    g = FgAbelianGroup(IntMatrix.from_rows([[2, 0], [0, 2]]))
    sw = IntMatrix.from_rows([[0, 1], [1, 0]])
    fixed = fixed_points_fg(g, [sw])
    assert fixed.order() == 2
    assert tuple(d for d in fixed.invariant_factors if d != 1) == (2,)


def test_trivial_action_fixes_whole_group():
    g = FgAbelianGroup(IntMatrix.from_rows([[2, 0, 0], [0, 6, 0]]))
    fixed = fixed_points_fg(g, [IntMatrix.identity(3)])
    assert sorted(d for d in fixed.invariant_factors if d != 1) == \
        sorted(d for d in g.invariant_factors if d != 1)
    assert fixed.free_rank == g.free_rank


def test_fixed_points_with_free_part():
    # Z^2 with coordinate swap: fixed subgroup is the diagonal copy of Z
    g = FgAbelianGroup(IntMatrix(0, 2, ()))
    sw = IntMatrix.from_rows([[0, 1], [1, 0]])
    fixed = fixed_points_fg(g, [sw])
    assert fixed.free_rank == 1
    assert fixed.order() is None


def test_automorphism_validation():
    g = FgAbelianGroup(IntMatrix.from_rows([[2, 0], [0, 2]]))
    assert g.is_automorphism(IntMatrix.from_rows([[3, 0], [0, 1]]))  # 3 = 1 mod 2
    assert not g.is_automorphism(IntMatrix.from_rows([[2, 0], [0, 1]]))  # kills a gen


def _random_finite_group_and_autos(seed):
    rng = random.Random(seed)
    diag = [rng.choice([2, 2, 3, 4]) for _ in range(rng.randint(1, 3))]
    pres = IntMatrix.from_rows(
        [[diag[i] if i == j else 0 for j in range(len(diag))] for i in range(len(diag))])
    g = FgAbelianGroup(pres)
    autos = []
    for _ in range(20):
        cand = IntMatrix.from_rows(
            [[rng.randint(-2, 2) for _ in range(g.ngens)] for _ in range(g.ngens)])
        if g.is_automorphism(cand):
            autos.append(cand)
        if len(autos) == 2:
            break
    return g, autos


@pytest.mark.parametrize("seed", range(12))
def test_fixed_points_agrees_with_enumeration(seed):
    # dual route: presentation-based kernel method vs direct element search
    g, autos = _random_finite_group_and_autos(seed)
    fixed = fixed_points_fg(g, autos)
    enum = oracle.fixed_elements_enumerated(g, autos)
    assert fixed.order() == len(enum)


@pytest.mark.parametrize("seed", range(8))
def test_fixed_point_order_divides_group_order(seed):
    g, autos = _random_finite_group_and_autos(seed)
    fixed = fixed_points_fg(g, autos)
    assert g.order() % fixed.order() == 0


def test_vstack_and_shapes():
    a = IntMatrix.from_rows([[1, 2]])
    b = IntMatrix.from_rows([[3, 4], [5, 6]])
    assert IntMatrix.from_rows(a.entries + b.entries).entries == ((1, 2), (3, 4), (5, 6))
    with pytest.raises(ValueError):
        IntMatrix.from_rows([[1, 2], [3]])


def test_inverse_unimodular():
    m = IntMatrix.from_rows([[2, 1], [1, 1]])
    inv = m.inverse_unimodular()
    assert m @ inv == IntMatrix.identity(2)
    with pytest.raises(ValueError):
        IntMatrix.from_rows([[2, 0], [0, 1]]).inverse_unimodular()
