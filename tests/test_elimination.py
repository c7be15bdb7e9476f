"""Differential tests of the one HNF and the one fraction-free solve.

`kernel_lattice` (one HNF of [M^T | I]) and `Lattice.from_rows` (an HNF with
no transform) are compared with the transform-tracking HNF and its
two-HNF kernel, `snf` (alternating row and column HNFs) with the diagonal
of the transform-tracking Smith form, `IntMatrix.is_unimodular` (the HNF is
the identity) with the Bareiss determinant, and
`BasedRootDatum.from_epsilon` (the normal equations, solved fraction-free)
with the `Fraction` solve; all of these oracles are kept in
`elimination_oracle`.
"""
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import elimination_oracle as oracle
from sphdescent.intlinalg import IntMatrix, Lattice, kernel_lattice, snf
from sphdescent.rootdata import build_root_datum, direct_sum, torus

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


def _from_epsilon_or_error(f, *args):
    try:
        return f(*args)
    except ValueError as e:
        return str(e)


def assert_from_epsilon_matches(brd, rng):
    dim = len(brd.realization)
    probes = []
    for _ in range(12):
        x = tuple(rng.randint(-3, 3) for _ in range(brd.rank))
        v = brd.to_epsilon(x)
        probes.append(v)
        if dim:
            k = rng.randrange(dim)
            probes.append(tuple(a + Fraction(1, rng.choice((1, 2, 3))) * (i == k)
                                for i, a in enumerate(v)))
            probes.append(tuple(Fraction(a, 2) for a in v))
            probes.append(tuple(Fraction(rng.randint(-4, 4), rng.choice((1, 2, 4)))
                                for _ in range(dim)))
    for v in probes:
        new = _from_epsilon_or_error(brd.from_epsilon, v)
        assert new == _from_epsilon_or_error(oracle.from_epsilon_exact, brd, v)
    for x in brd.simple_roots:
        assert brd.from_epsilon(brd.to_epsilon(x)) == x


TYPES = ([("A", n) for n in range(1, 8)] + [("B", n) for n in range(2, 7)]
         + [("C", n) for n in range(2, 7)] + [("D", n) for n in range(3, 7)]
         + [("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2)])


@pytest.mark.parametrize("isogeny", ["simply_connected", "adjoint"])
@pytest.mark.parametrize("letter,rank", TYPES)
def test_from_epsilon_matches_the_fraction_solve(letter, rank, isogeny):
    assert_from_epsilon_matches(build_root_datum(letter, rank, isogeny),
                                random.Random(f"{letter}{rank}{isogeny}"))


@pytest.mark.parametrize("letter,rank,basis", [
    ("A", 1, [[2]]),
    ("A", 3, [[2, 0, 0], [0, 1, 0], [1, 0, 1]]),
    ("D", 4, [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 1], [0, 0, 0, 2]]),
    ("B", 2, [[0, 1], [1, 0]]),
])
def test_from_epsilon_matches_on_custom_lattices(letter, rank, basis):
    assert_from_epsilon_matches(build_root_datum(letter, rank, "custom_lattice", basis),
                                random.Random(rank))


def test_from_epsilon_matches_on_direct_sums_with_tori():
    rng = random.Random(5)
    for brd in (torus(0), torus(2),
                direct_sum(build_root_datum("A", 2), torus(1)),
                direct_sum(torus(2), build_root_datum("B", 3, "adjoint")),
                direct_sum(build_root_datum("C", 2), build_root_datum("G", 2))):
        assert_from_epsilon_matches(brd, rng)


def test_from_epsilon_errors():
    a2 = build_root_datum("A", 2)
    with pytest.raises(ValueError, match="not in the span"):
        a2.from_epsilon((1, 0, 0))
    with pytest.raises(ValueError, match="not in the character lattice"):
        build_root_datum("A", 2, "adjoint").from_epsilon(a2.to_epsilon((1, 0)))
    with pytest.raises(ValueError, match="length mismatch"):
        a2.from_epsilon((1, -1))
