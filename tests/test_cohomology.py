"""Tests for character modules, the local H^2 vanishing test, and verdicts."""
import random

import pytest

from elimination_oracle import fixed_elements_enumerated
from sphdescent.cohomology import (
    NONVANISHING,
    UNKNOWN,
    VANISHES,
    CharacterMap,
    MultiplicativeTypeModule,
    ObstructionVerdict,
    PositiveDimensional,
    h2_local_vanishes,
    obstruction_verdict,
)
from sphdescent.intlinalg import FgAbelianGroup, IntMatrix


def z_mod(*factors):
    n = len(factors)
    rows = [[factors[i] if i == j else 0 for j in range(n)] for i in range(n)]
    return FgAbelianGroup(IntMatrix.from_rows(rows, n))


TRIALITY2 = IntMatrix.from_rows([[0, 1], [1, 1]])  # 3-cycle on (Z/2)^2 \ {0}
SWAP2 = IntMatrix.from_rows([[1, 1], [0, 1]])      # transposition, fixes (1,1)


@pytest.fixture(scope="module")
def center_triality():
    return MultiplicativeTypeModule(z_mod(2, 2), {"t": TRIALITY2})


# -- fixed characters and the vanishing test -----------------------------------

def test_klein_group_with_three_cycle_has_no_fixed_characters(center_triality):
    assert center_triality.fixed_characters.is_trivial()
    assert h2_local_vanishes(center_triality)


def test_same_center_presented_on_the_weight_lattice():
    # rank-4 presentation: weight lattice modulo the root lattice of D4
    pq = FgAbelianGroup(IntMatrix.from_rows(
        [(1, 0, 1, 1), (0, 1, 0, 0), (0, 0, 2, 0), (0, 0, 0, 2)]))
    assert pq.invariant_factors == (1, 1, 2, 2)
    perm = (2, 1, 3, 0)
    tri4 = IntMatrix.from_rows(
        [[1 if perm[j] == i else 0 for j in range(4)] for i in range(4)])
    m = MultiplicativeTypeModule(pq, {"t": tri4})
    assert m.fixed_characters.is_trivial()
    assert h2_local_vanishes(m)


def test_order_two_group_with_trivial_action_does_not_vanish():
    m = MultiplicativeTypeModule(z_mod(2), {"s": IntMatrix.identity(1)})
    assert not h2_local_vanishes(m)
    assert m.fixed_characters.order() == 2


def test_trivial_group_vanishes():
    assert h2_local_vanishes(MultiplicativeTypeModule(z_mod(1), {}))


def test_swap_action_keeps_the_diagonal_fixed():
    m = MultiplicativeTypeModule(z_mod(2, 2), {"s": SWAP2})
    assert m.fixed_characters.invariant_factors == (1, 2)
    assert not h2_local_vanishes(m)


def test_positive_dimensional_refused():
    free = FgAbelianGroup(IntMatrix(0, 1, ()))
    m = MultiplicativeTypeModule(free, {"s": IntMatrix.identity(1)})
    with pytest.raises(PositiveDimensional):
        h2_local_vanishes(m)


def test_action_must_be_an_automorphism():
    with pytest.raises(ValueError, match="'t'"):
        MultiplicativeTypeModule(z_mod(2, 2),
                                 {"t": IntMatrix.from_rows([[2, 0], [0, 1]])})
    # two bad generators: the first in name order is named
    bad = IntMatrix.from_rows([[2, 0], [0, 1]])
    for names in ("ab", "ba"):
        with pytest.raises(ValueError, match="'a'"):
            MultiplicativeTypeModule(z_mod(2, 2), {n: bad for n in names})


def test_the_action_is_keyed_and_sorted_by_name():
    one, swap = IntMatrix.identity(2), SWAP2
    m = MultiplicativeTypeModule(z_mod(2, 2), {"s": swap, "r": one})
    assert m.generator_names == ("r", "s") and list(m.action.values()) == [one, swap]
    same = MultiplicativeTypeModule(z_mod(2, 2), {"r": one, "s": swap})
    assert m == same and hash(m) == hash(same)
    assert m != MultiplicativeTypeModule(z_mod(2, 2), {"r": swap, "s": one})
    assert MultiplicativeTypeModule(z_mod(1), {}).generator_names == ()


def test_vanishing_agrees_with_enumerated_fixed_points(center_triality):
    # independent route: enumerate all elements and test them one by one
    rng = random.Random(11)
    cases = [center_triality,
             MultiplicativeTypeModule(z_mod(2, 2), {"s": SWAP2}),
             MultiplicativeTypeModule(z_mod(2), {"s": IntMatrix.identity(1)})]
    for _ in range(25):
        factors = [rng.choice([1, 2, 2, 3, 4, 6]) for _ in range(rng.randint(1, 3))]
        group = z_mod(*factors)
        n = group.ngens
        autos = {}
        for _ in range(40):
            cand = IntMatrix.from_rows(
                [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)], n)
            if group.is_automorphism(cand):
                autos["g"] = cand
                break
        cases.append(MultiplicativeTypeModule(group, autos))
    for m in cases:
        enumerated = fixed_elements_enumerated(m.characters, list(m.action.values()))
        assert h2_local_vanishes(m) == (len(enumerated) == 1)


# -- character maps -------------------------------------------------------------

def make_modules():
    src = MultiplicativeTypeModule(z_mod(2, 2), {"t": TRIALITY2})
    tgt = MultiplicativeTypeModule(z_mod(2, 2), {"t": TRIALITY2})
    return src, tgt


def test_identity_map_is_equivariant_and_nonzero():
    src, tgt = make_modules()
    cm = CharacterMap(src, tgt, IntMatrix.identity(2))
    assert not cm.is_zero_map()


def test_doubling_map_is_zero_on_the_quotient():
    src, tgt = make_modules()
    cm = CharacterMap(src, tgt, IntMatrix.from_rows([[2, 0], [0, 2]]))
    assert cm.is_zero_map()


def test_non_equivariant_map_rejected():
    src, tgt = make_modules()
    with pytest.raises(ValueError, match="equivariant"):
        CharacterMap(src, tgt, IntMatrix.from_rows([[0, 1], [1, 0]]))


def test_map_must_descend_and_match_shapes():
    src = MultiplicativeTypeModule(z_mod(4), {"s": IntMatrix.identity(1)})
    tgt = MultiplicativeTypeModule(z_mod(2), {"s": IntMatrix.identity(1)})
    CharacterMap(src, tgt, IntMatrix.from_rows([[1]]))  # Z/4 -> Z/2 is fine
    with pytest.raises(ValueError, match="descend"):
        CharacterMap(tgt, src, IntMatrix.from_rows([[1]]))  # Z/2 -> Z/4 is not
    with pytest.raises(ValueError, match="shape"):
        CharacterMap(src, tgt, IntMatrix.identity(2))


def test_map_requires_shared_generator_names():
    src = MultiplicativeTypeModule(z_mod(2), {"s": IntMatrix.identity(1)})
    tgt = MultiplicativeTypeModule(z_mod(2), {"u": IntMatrix.identity(1)})
    with pytest.raises(ValueError, match="share"):
        CharacterMap(src, tgt, IntMatrix.identity(1))


def test_map_pairs_the_matrices_by_name():
    # the same two generators, given in opposite orders: equivariant
    src = MultiplicativeTypeModule(z_mod(2, 2), {"s": SWAP2, "t": TRIALITY2})
    tgt = MultiplicativeTypeModule(z_mod(2, 2), {"t": TRIALITY2, "s": SWAP2})
    assert not CharacterMap(src, tgt, IntMatrix.identity(2)).is_zero_map()


# -- obstruction verdicts --------------------------------------------------------

def torus_to_center_zero_map():
    # rank-1 free characters mapping onto Z/2 by an even multiple
    src = MultiplicativeTypeModule(FgAbelianGroup(IntMatrix(0, 1, ())),
                                   {"s": IntMatrix.identity(1)})
    tgt = MultiplicativeTypeModule(z_mod(2), {"s": IntMatrix.identity(1)})
    return CharacterMap(src, tgt, IntMatrix.from_rows([[2]]))


def test_quasi_split_short_circuits():
    v = obstruction_verdict(True)
    assert v.status == VANISHES and v.reason == "quasi_split_form"
    assert v.vanishes


def test_zero_character_map_vanishes():
    v = obstruction_verdict(False, kappa=torus_to_center_zero_map())
    assert v == ObstructionVerdict(VANISHES, "zero_character_map")


def test_finite_target_with_trivial_fixed_characters(center_triality):
    v = obstruction_verdict(False, a_module=center_triality, base_field="p_adic")
    assert v == ObstructionVerdict(VANISHES, "h2_target_trivial")


def test_nontrivial_fixed_characters_stay_unknown():
    m = MultiplicativeTypeModule(z_mod(2), {"s": IntMatrix.identity(1)})
    v = obstruction_verdict(False, a_module=m, base_field="p_adic")
    assert v == ObstructionVerdict(UNKNOWN, "nontrivial_fixed_characters")


def test_duality_needs_p_adic_base(center_triality):
    v = obstruction_verdict(False, a_module=center_triality,
                            base_field="large_other")
    assert v == ObstructionVerdict(UNKNOWN, "insufficient_data")


def test_no_data_is_unknown():
    assert obstruction_verdict(False) == ObstructionVerdict(
        UNKNOWN, "insufficient_data")


def test_quasi_split_flag_is_monotone(center_triality):
    # turning the flag on never demotes a vanishing verdict
    configs = [
        {},
        {"kappa": torus_to_center_zero_map()},
        {"a_module": center_triality, "base_field": "p_adic"},
        {"a_module": MultiplicativeTypeModule(
            z_mod(2), {"s": IntMatrix.identity(1)}), "base_field": "p_adic"},
    ]
    for kw in configs:
        before = obstruction_verdict(False, **kw)
        after = obstruction_verdict(True, **kw)
        assert after.vanishes
        assert not (before.vanishes and not after.vanishes)


def test_nonvanishing_has_no_computable_reason():
    with pytest.raises(ValueError):
        ObstructionVerdict(NONVANISHING, "insufficient_data")
    with pytest.raises(ValueError):
        ObstructionVerdict(VANISHES, "nontrivial_fixed_characters")
    with pytest.raises(ValueError):
        ObstructionVerdict("maybe", "quasi_split_form")
