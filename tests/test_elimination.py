"""Differential tests of the one HNF and the one fraction-free solve.

`kernel_lattice` (one HNF of [M^T | I]) and `Lattice.from_rows` (an HNF with
no transform) are compared with the transform-tracking HNF and its
two-HNF kernel, `snf` (alternating row and column HNFs) with the diagonal
of the transform-tracking Smith form, `IntMatrix.is_unimodular` (the last
pivot of `solve_fraction_free` is +-1) with the Bareiss determinant,
`solve_fraction_free` with the `Fraction` solve, and `lift_s_permutation`
(a permutation matrix where the block of the simple coroots allows it) with
the lift C^-1 P C solved in `Fraction`; all of these oracles are kept in
`elimination_oracle`.
"""
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import elimination_oracle as oracle
from sphdescent.intlinalg import (
    IntMatrix,
    Lattice,
    hnf,
    kernel_lattice,
    snf,
    solve_fraction_free,
)
from sphdescent.rootdata import build_root_datum, direct_sum, lift_s_permutation, torus

entries = st.integers(min_value=-5, max_value=5)


@st.composite
def matrices(draw, max_rows=6, max_cols=7):
    """Integer matrices with 0..max_rows rows, some rows and columns zero."""
    r = draw(st.integers(min_value=0, max_value=max_rows))
    c = draw(st.integers(min_value=1, max_value=max_cols))
    rows = draw(st.lists(st.lists(entries, min_size=c, max_size=c),
                         min_size=r, max_size=r))
    zero_cols = draw(st.sets(st.integers(min_value=0, max_value=c - 1), max_size=2))
    rows = [[0 if j in zero_cols else x for j, x in enumerate(row)] for row in rows]
    if rows and draw(st.booleans()):
        # rank deficient: a combination of two rows, and a zero row
        i, j = draw(st.integers(0, r - 1)), draw(st.integers(0, r - 1))
        rows.append([2 * a - b for a, b in zip(rows[i], rows[j])])
        rows.append([0] * c)
    return IntMatrix(len(rows), c, tuple(map(tuple, rows)))


def seeded_matrices(count, seed, max_rows=6, max_cols=7, bound=5):
    rng = random.Random(seed)
    for _ in range(count):
        r, c = rng.randint(0, max_rows), rng.randint(1, max_cols)
        yield IntMatrix(r, c, tuple(tuple(rng.randint(-bound, bound) for _ in range(c))
                                    for _ in range(r)))


def assert_same_as_the_oracle(m):
    assert Lattice.from_rows(m.cols, m.entries) == oracle.lattice_from_rows(m.cols, m.entries)
    ker = kernel_lattice(m)
    assert ker == oracle.kernel_lattice_two_hnf(m)
    assert all(not any(m.apply(x)) for x in ker.basis.entries)
    assert snf(m) == oracle.smith_diagonal(m)


@given(matrices())
@settings(max_examples=300, deadline=None)
def test_kernel_span_and_snf_match_the_transform_oracles(m):
    assert_same_as_the_oracle(m)


def test_kernel_span_and_snf_match_the_transform_oracles_on_seeded_matrices():
    for m in seeded_matrices(600, seed=7):
        assert_same_as_the_oracle(m)
    for m in seeded_matrices(40, seed=8, max_rows=10, max_cols=10, bound=1000):
        assert_same_as_the_oracle(m)


def test_kernel_and_snf_edge_cases():
    zero_2x3 = IntMatrix.from_rows([[0, 0, 0], [0, 0, 0]])
    for m in (IntMatrix(0, 3, ()), IntMatrix(2, 0, ((), ())), zero_2x3,
              IntMatrix.from_rows([[0]]), IntMatrix.from_rows([[-4]]),
              IntMatrix.identity(4), IntMatrix.from_rows([[0, 0, 2]])):
        assert_same_as_the_oracle(m)
    assert snf(IntMatrix(2, 0, ((), ()))) == ()
    assert snf(zero_2x3) == (0, 0)
    assert snf(IntMatrix.from_rows([[-4]])) == (4,)
    assert snf(IntMatrix.from_rows([[2, 4, 4], [-6, 6, 12], [10, -4, -16]])) == (2, 6, 12)
    assert kernel_lattice(IntMatrix(0, 3, ())) == Lattice.full(3)
    assert kernel_lattice(IntMatrix.from_rows([[2, 4, 6]])).basis.entries == (
        (1, 1, -1), (0, 3, -2))


def random_square_matrices(count, seed):
    """Square matrices up to 6 x 6: random ones (mostly nonsingular), ones
    with a repeated row (singular), and products of elementary matrices
    (unimodular)."""
    rng = random.Random(seed)
    for k in range(count):
        n = rng.randint(0, 6)
        rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
        if k % 3 == 1 and n > 1:
            rows[rng.randrange(n)] = list(rows[rng.randrange(n)])
        elif k % 3 == 2:
            rows = [[int(i == j) for j in range(n)] for i in range(n)]
            for _ in range(3 * n):
                i, j = rng.randrange(n), rng.randrange(n)
                q = -2 if i == j else rng.choice((-2, -1, 1, 2))
                rows[i] = [a + q * b for a, b in zip(rows[i], rows[j])]
        yield IntMatrix(n, n, tuple(map(tuple, rows)))


def test_is_unimodular_matches_the_bareiss_determinant():
    seen = set()
    for m in random_square_matrices(900, seed=3):
        det = oracle.bareiss_det(m)
        assert m.is_unimodular() == (det in (1, -1))
        seen.add(min(abs(det), 2))
    assert seen == {0, 1, 2}  # singular, unimodular and neither all occur
    assert not IntMatrix.from_rows([[1, 0, 0], [0, 1, 0]]).is_unimodular()


def assert_solve_matches(m: IntMatrix, rhs):
    d, dx = solve_fraction_free(m.entries, rhs)
    assert d in (oracle.bareiss_det(m), -oracle.bareiss_det(m))
    for j in range(len(rhs[0]) if d and rhs else 0):
        assert tuple(Fraction(row[j], d) for row in dx) == oracle.solve_exact(
            m.entries, [r[j] for r in rhs])


def test_solve_fraction_free_matches_the_fraction_solve():
    rng = random.Random(4)
    for m in random_square_matrices(600, seed=4):
        assert_solve_matches(m, [[rng.randint(-4, 4) for _ in range(2)] for _ in range(m.rows)])


TYPES = ([("A", n) for n in range(1, 8)] + [("B", n) for n in range(2, 7)]
         + [("C", n) for n in range(2, 7)] + [("D", n) for n in range(3, 7)]
         + [("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2)])


@pytest.mark.parametrize("letter,rank", TYPES)
def test_solve_fraction_free_matches_on_cartan_systems(letter, rank):
    # the systems rootdata solves: the simple coroots of the adjoint datum,
    # the Cartan matrix, against the identity and against itself transposed
    cartan = build_root_datum(letter, rank, "adjoint").cartan_matrix
    assert_solve_matches(cartan, IntMatrix.identity(rank).entries)
    assert_solve_matches(cartan, cartan.transpose().entries)


def assert_lift_systems_solve(brd):
    """The systems `lift_s_permutation` solves: the simple coroots on the
    semisimple coordinates against the same rows permuted.  A lift exists
    only where the solution is integral."""
    semis = [i for i in range(brd.rank) if i not in set(brd.torus_coords)]
    k = len(brd.simple_roots)
    assert len(semis) == k
    c = IntMatrix.from_rows([[cov[j] for j in semis] for cov in brd.simple_coroots], k)
    ident = tuple(range(k))
    for perm in sorted({ident, ident[::-1], ident[1:] + ident[:1],
                        ident[:-2] + ident[-2:][::-1]}):
        pc = [c.entries[perm.index(i)] for i in range(k)]
        assert_solve_matches(c, pc)
        d, dx = solve_fraction_free(c.entries, pc)
        integral = d != 0 and not any(x % d for row in dx for x in row)
        assert integral or lift_s_permutation(brd, perm) is None, perm
    assert lift_s_permutation(brd, ident) is not None


@pytest.mark.parametrize("isogeny", ["simply_connected", "adjoint"])
@pytest.mark.parametrize("letter,rank", TYPES)
def test_solve_fraction_free_matches_on_the_lift_systems(letter, rank, isogeny):
    assert_lift_systems_solve(build_root_datum(letter, rank, isogeny))


CUSTOM_LATTICES = [
    ("A", 1, [[2]]),
    ("A", 3, [[2, 0, 0], [0, 1, 0], [1, 0, 1]]),
    ("D", 4, [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 1], [0, 0, 0, 2]]),
    ("B", 2, [[0, 1], [1, 0]]),
]


@pytest.mark.parametrize("letter,rank,basis", CUSTOM_LATTICES)
def test_solve_fraction_free_matches_on_custom_lattices(letter, rank, basis):
    # the custom builder solves B^T against the Cartan matrix for the simple
    # roots in the chosen basis
    brd = build_root_datum(letter, rank, "custom_lattice", basis)
    assert_solve_matches(IntMatrix.from_rows(basis, rank).transpose(),
                         brd.cartan_matrix.entries)
    assert_lift_systems_solve(brd)


def test_solve_fraction_free_matches_on_direct_sums_with_tori():
    for brd in (torus(0), torus(2),
                direct_sum(build_root_datum("A", 2), torus(1)),
                direct_sum(torus(2), build_root_datum("B", 3, "adjoint")),
                direct_sum(build_root_datum("C", 2), build_root_datum("G", 2))):
        assert_lift_systems_solve(brd)


# -- the identity skip, unimodularity by the last pivot -------------------------

def signed_permutation(rng, n, signs=(1, -1)):
    order = rng.sample(range(n), n)
    return [[rng.choice(signs) * (j == order[i]) for j in range(n)] for i in range(n)]


def skip_systems(seed):
    """Square matrices on which solve_fraction_free leaves rows as they are:
    the identity, permutation and signed permutation matrices, and block
    upper-triangular unimodular ones, whose diagonal blocks are signed
    permutations and unimodular products of elementary matrices."""
    rng = random.Random(seed)
    for n in range(7):
        yield IntMatrix.identity(n)
        for _ in range(5):
            yield IntMatrix.from_rows(signed_permutation(rng, n, (1,)), n)
            yield IntMatrix.from_rows(signed_permutation(rng, n), n)
            a = rng.randint(0, n)
            top = signed_permutation(rng, a, rng.choice(((1,), (1, -1))))
            low = [[int(i == j) for j in range(n - a)] for i in range(n - a)]
            for _ in range(2 * (n - a)):
                i, j, q = rng.randrange(n - a), rng.randrange(n - a), rng.choice((-2, -1, 1, 2))
                if i != j:
                    low[i] = [x + q * y for x, y in zip(low[i], low[j])]
            yield IntMatrix.from_rows(
                [row + [rng.randint(-3, 3) for _ in range(n - a)] for row in top]
                + [[0] * a + row for row in low], n)


def test_solve_fraction_free_matches_where_rows_are_left_as_they_are():
    rng = random.Random(11)
    kinds = set()
    for m in skip_systems(seed=10):
        det = oracle.bareiss_det(m)
        assert det in (1, -1)
        assert_solve_matches(m, [[rng.randint(-4, 4) for _ in range(3)] for _ in range(m.rows)])
        assert_solve_matches(m, IntMatrix.identity(m.rows).entries)
        assert solve_fraction_free(m.entries, [()] * m.rows) == (
            solve_fraction_free(m.entries, IntMatrix.identity(m.rows).entries)[0],
            [[] for _ in range(m.rows)])
        assert m.is_unimodular()
        kinds.add(det)
    assert kinds == {1, -1}


def test_is_unimodular_on_signed_permutations_and_other_shapes():
    rng = random.Random(12)
    for n in range(6):
        for signs in ((1,), (1, -1), (-1,)):
            m = IntMatrix.from_rows(signed_permutation(rng, n, signs), n)
            assert m.is_unimodular() and m.inverse_unimodular() @ m == IntMatrix.identity(n)
    doubled = IntMatrix.from_rows([[0, 2, 0], [1, 0, 0], [0, 0, 1]])
    assert not doubled.is_unimodular()
    for m in (IntMatrix(0, 3, ()), IntMatrix(2, 0, ((), ())), IntMatrix.from_rows([[1, 0]]),
              IntMatrix.from_rows([[1], [0]]), IntMatrix.from_rows([[1, 0, 0], [0, 1, 0]]),
              IntMatrix.from_rows([[0, 1], [1, 0], [0, 0]])):
        assert not m.is_unimodular()
    assert IntMatrix(0, 0, ()).is_unimodular()
    # the Hermite test it replaced agrees on every shape
    for m in (doubled, IntMatrix(0, 3, ()), IntMatrix.from_rows([[0, 1], [1, 0], [0, 0]]),
              *random_square_matrices(60, seed=13)):
        assert m.is_unimodular() == (m.rows == m.cols and hnf(m) == IntMatrix.identity(m.rows))


# -- diagram lifts: a permutation matrix where C allows it, else the solve -----

def cartan_preserving_permutations(cartan):
    """Every perm with cartan[perm[i]][perm[j]] == cartan[i][j], in
    lexicographic order, by extending partial permutations that agree."""
    k = len(cartan)
    out = []

    def extend(perm):
        i = len(perm)
        if i == k:
            out.append(tuple(perm))
            return
        for v in range(k):
            if v not in perm and cartan[v][v] == cartan[i][i] and all(
                    cartan[v][p] == cartan[i][j] and cartan[p][v] == cartan[j][i]
                    for j, p in enumerate(perm)):
                extend(perm + [v])

    extend([])
    return out


@pytest.mark.parametrize("isogeny", ["simply_connected", "adjoint"])
@pytest.mark.parametrize("letter,rank", [("A", n) for n in range(1, 10)]
                         + [("D", n) for n in range(3, 10)] + [("E", 6)])
def test_standard_lifts_are_permutation_matrices_with_no_solve(letter, rank, isogeny,
                                                               solve_widths):
    brd = build_root_datum(letter, rank, isogeny)
    perms = cartan_preserving_permutations(brd.cartan_matrix.entries)
    assert len(perms) == (6 if (letter, rank) == ("D", 4) else 1 if rank == 1 else 2)
    for perm in perms:
        lifted = lift_s_permutation(brd, perm)
        assert lifted.s_perm == perm
        assert lifted.matrix == oracle.lift_by_elimination(brd, perm)
        assert lifted.matrix.entries == tuple(tuple(int(i == perm[j]) for j in range(rank))
                                              for i in range(rank))
    # one unimodularity test a lift, by its last pivot, and no solve
    assert solve_widths == [0] * len(perms)


def test_other_lifts_match_the_elimination(solve_widths):
    data = [build_root_datum(letter, rank, "custom_lattice", basis)
            for letter, rank, basis in CUSTOM_LATTICES]
    data += [torus(0), torus(2),
             direct_sum(build_root_datum("A", 2), torus(1)),
             direct_sum(torus(2), build_root_datum("B", 3, "adjoint")),
             direct_sum(build_root_datum("C", 2), build_root_datum("G", 2)),
             direct_sum(torus(1), build_root_datum("D", 4, "adjoint")),
             direct_sum(build_root_datum("A", 2), build_root_datum("A", 2, "adjoint"))]
    solved, refused = set(), 0
    for brd in data:
        for perm in cartan_preserving_permutations(brd.cartan_matrix.entries):
            solve_widths.clear()
            lifted = lift_s_permutation(brd, perm)
            want = oracle.lift_by_elimination(brd, perm)
            assert (None if lifted is None else lifted.matrix) == want, (brd.components, perm)
            assert lifted is None or lifted.s_perm == perm
            refused += lifted is None
            if any(solve_widths):
                solved.add(brd.isogeny)
    # the custom lattices' blocks that perm does not preserve are still solved
    assert "custom_lattice" in solved and refused
