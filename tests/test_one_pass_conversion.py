"""Differential tests: the one-pass cone conversion against the two-pass
conversion it replaced (`two_pass_oracle.py`).

Every canonical cone must be equal in all five fields, in both conversion
directions, on seeded draws in dims 0-6: plain rows, duplicate and zero
generators, `Fraction` entries, +- pairs (a lineality), spans of lower
dimension, and inequalities with equations.  A conversion makes exactly one
double-description pass.
"""
import random
from fractions import Fraction

import pytest

import two_pass_oracle as oracle
from sphdescent import cones
from sphdescent.cones import cone_from_generators, cone_from_inequalities

KINDS = ("plain", "duplicates", "fractions", "pairs", "low", "equations")
DRAWS_PER_KIND_AND_DIM = 240  # 6 kinds x 7 dims x 240 = 10,080 draws


def _vec(rng, dim):
    return tuple(rng.randint(-2, 2) for _ in range(dim))


def _draw(rng, kind, dim):
    """(generators, equations) of one draw; equations only for "equations"."""
    gens = [_vec(rng, dim) for _ in range(rng.randint(0, dim + 3))]
    eqs = []
    if kind == "duplicates":
        gens += [(0,) * dim] * rng.randint(1, 2)
        if gens[0]:
            gens += [gens[0], tuple(rng.randint(2, 3) * x for x in gens[0])]
        rng.shuffle(gens)
    elif kind == "fractions":
        gens = [tuple(Fraction(x, rng.randint(1, 4)) for x in g) for g in gens]
    elif kind == "pairs":
        gens += [tuple(-x for x in g) for g in gens if rng.random() < 0.4]
        rng.shuffle(gens)
    elif kind == "low":
        # combinations of fewer than dim random vectors span less than Q^dim
        basis = [_vec(rng, dim) for _ in range(rng.randint(0, max(dim - 1, 0)))]
        gens = [tuple(sum(c * b[i] for c, b in zip(coeffs, basis))
                      for i in range(dim))
                for coeffs in ([rng.randint(-2, 2) for _ in basis]
                               for _ in range(rng.randint(0, dim + 3)))]
    elif kind == "equations":
        eqs = [_vec(rng, dim) for _ in range(rng.randint(1, max(dim - 1, 1)))]
    return gens, eqs


def _draws(kind):
    rng = random.Random(f"one-pass-{kind}")
    return [(dim, *_draw(rng, kind, dim))
            for dim in range(7) for _ in range(DRAWS_PER_KIND_AND_DIM)]


DRAWS = {kind: _draws(kind) for kind in KINDS}


def _fields(cone):
    return (cone.ambient_dim, cone.rays, cone.lineality, cone.inequalities,
            cone.equations)


@pytest.mark.parametrize("kind", KINDS)
def test_conversions_match_the_two_pass_engine(kind):
    shapes = set()
    for dim, gens, eqs in DRAWS[kind]:
        if eqs:
            got = cone_from_inequalities(dim, gens, eqs)
            want = oracle.cone_from_inequalities(dim, gens, eqs)
        else:
            got = cone_from_generators(dim, gens)
            want = oracle.cone_from_generators(dim, gens)
            assert _fields(cone_from_inequalities(dim, gens)) == \
                _fields(oracle.cone_from_inequalities(dim, gens)), (dim, gens)
        assert _fields(got) == _fields(want), (dim, gens, eqs)
        shapes.add((bool(got.rays), bool(got.lineality), bool(got.equations)))
    # every kind reaches cones with rays; the ones made for it reach
    # lineality, or a span of lower dimension, or both
    assert any(rays for rays, _, _ in shapes)
    if kind == "pairs":
        assert any(lin for _, lin, _ in shapes)
    if kind in ("low", "equations"):
        assert any(eq for _, _, eq in shapes)


def test_draws_cover_every_dim_with_over_10000_conversions():
    assert sum(map(len, DRAWS.values())) >= 10_000
    assert {dim for draws in DRAWS.values() for dim, _, _ in draws} == set(range(7))
    pairs = [(dim, gens) for dim, gens, _ in DRAWS["pairs"]]
    lineal = sum(bool(cone_from_generators(dim, gens).lineality)
                 for dim, gens in pairs)
    assert lineal > len(pairs) // 4


def test_a_conversion_makes_one_double_description_pass(monkeypatch):
    passes = []
    engine = cones._hcone_extreme_rays

    def counted(rows, *args, **kwargs):
        passes.append(rows)
        return engine(rows, *args, **kwargs)

    monkeypatch.setattr(cones, "_hcone_extreme_rays", counted)
    for kind in KINDS:
        for dim, gens, eqs in DRAWS[kind][::40]:
            passes.clear()
            cone_from_generators(dim, gens)
            assert len(passes) == 1
            passes.clear()
            cone_from_inequalities(dim, gens, eqs)
            assert len(passes) == 1
