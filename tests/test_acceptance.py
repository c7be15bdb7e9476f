"""Acceptance suite: one test, and one pass/fail line, per shipped guarantee.

Run with `pytest -v tests/test_acceptance.py`; the verbose listing gives the
one-line pass/fail report for each numbered criterion.  Each test also prints
a `[criterion N] PASS` line visible under `pytest -s`.

 1. Structure constants of the D4 datum and Weyl transitivity on its roots.
 2. Exhaustive search for negation-closed pairwise-orthogonal root
    quadruples in D4 finds a single Weyl conjugacy class, with verified
    witnesses.
 3. Degree-2 local vanishing for the Klein four character group under the
    3-cycle, and non-vanishing for a trivially-acted Z/2.
 4. Horospherical invariance decisions for the shipped branch-node family
    and the moved-subset counterexample.
 5. End-to-end verdicts on the trialitary problem file: quasi-split route,
    then the obstruction route with the quasi-split flag withdrawn.
 6. Zero comparison map on characters certifies vanishing and existence for
    the rank-one torus quotient file.
 7. Property suite on randomized strictly convex cones: face fans are valid
    and wonderful; fan stability agrees with direct cone fixedness.
 8. Verdicts are unchanged under re-presentation of every stated basis and
    permutation of every stated generator list, over the whole corpus.
 9. Soundness fuzz: no positive verdict ever coexists with a failed check,
    and invariance failure always yields the negative verdict.
"""
import json
import random
from itertools import combinations

import pytest

import active_set_oracle
from elimination_oracle import fixed_elements_enumerated
from sphdescent.checker import (
    FORM_EXISTS,
    HOROSPHERICAL_CRITERION,
    NO_FORM,
    OBSTRUCTION_DESCENT,
    QUASI_SPLIT_DESCENT,
    CohomologyInputs,
    HypothesisSet,
    invariance_entries,
    verdict,
    wonderful_stability_report,
)
from sphdescent.cli import corpus_names, corpus_root
from sphdescent.cohomology import (
    MultiplicativeTypeModule,
    h2_local_vanishes,
    obstruction_verdict,
)
from sphdescent.cones import (
    cone_from_generators,
    cones_equal,
    is_gamma_stable,
    is_valid_fan,
    is_wonderful,
    wonderful_fan,
)
from sphdescent.intlinalg import (
    FgAbelianGroup,
    IntMatrix,
    Lattice,
    vec_neg,
)
from sphdescent.invariants import (
    HorosphericalDatum,
    RationalLattice,
    SphericalInvariants,
    invariants_equal,
)
from sphdescent.problem import parse_dict, parse_text
from sphdescent.rootdata import build_root_datum, dynkin_automorphisms, torus, weyl_group
from sphdescent.staraction import build_action
from sphdescent.weyl import are_weyl_conjugate, orthogonal_quadruples, root_subset, weyl_orbit


def report(n, text):
    print(f"[criterion {n}] PASS - {text}")


@pytest.fixture(scope="module")
def d4():
    return build_root_datum("D", 4)


@pytest.fixture(scope="module")
def triality(d4):
    return build_action(d4, [(2, 1, 3, 0)], names=("t",))


def load_corpus(name):
    return json.loads((corpus_root() / (name + ".json")).read_text("utf-8"))


def test_criterion_1_d4_structure_constants(d4):
    assert len(d4.roots) == 24
    assert len(d4.simple_roots) == 4
    assert len(weyl_group(d4)) == 192
    autos, skipped = dynkin_automorphisms(d4)
    assert len(autos) == 6 and skipped == ()
    whole = set(d4.roots)
    for beta in d4.roots:
        assert weyl_orbit(d4, beta) == whole
    report(1, "|R| = 24, |S| = 4, |W| = 192, 6 diagram automorphisms, "
              "every root orbit is all of R")


def test_criterion_2_orthogonal_quadruples_single_class(d4):
    quads = orthogonal_quadruples(d4)
    assert len(quads) == 3
    # independent exhaustive recount over 4-subsets of positive roots
    found = set()
    for combo in combinations(d4.positive_roots, 4):
        if all(d4.invariant_form(a, b) == 0 for a, b in combinations(combo, 2)):
            found.add(frozenset(combo)
                      | frozenset(tuple(-x for x in r) for r in combo))
    assert found == {q.roots for q in quads}
    witnesses = 0
    for a, b in combinations(quads, 2):
        w = are_weyl_conjugate(d4, a, b)
        assert w is not None
        image = {tuple(int(x) for x in w.matrix.apply(r)) for r in a.roots}
        assert image == b.roots
        witnesses += 1
    report(2, f"3 quadruple sets, one conjugacy class, {witnesses} verified "
              "witnesses")


def test_criterion_3_degree_two_vanishing():
    klein = FgAbelianGroup(IntMatrix.from_rows([[2, 0], [0, 2]]))
    rot = IntMatrix.from_rows([[0, 1], [1, 1]])
    transitive = MultiplicativeTypeModule(klein, (rot,), ("g",))
    # the 3-cycle is transitive on the nonzero characters, nothing is fixed
    assert len(fixed_elements_enumerated(klein, [rot])) == 1
    assert transitive.fixed_characters().is_trivial()
    assert h2_local_vanishes(transitive) is True
    constant = MultiplicativeTypeModule(
        FgAbelianGroup(IntMatrix.from_rows([[2]])), (IntMatrix.identity(1),), ("g",))
    assert h2_local_vanishes(constant) is False
    report(3, "transitive Klein action vanishes, trivially-acted Z/2 does not")


def test_criterion_4_horospherical_family(d4, triality):
    def datum(subset, gens):
        return HorosphericalDatum(frozenset(subset),
                                  RationalLattice.from_generators(4, gens))

    branch = {1}
    good = {
        "M1": datum(branch, [(1, 0, 1, 1)]),
        "M2": datum(branch, [(1, 0, -1, 0), (0, 0, 1, -1)]),
        "M4": datum(branch, [(1, 0, 1, 1), (1, 0, -1, 0), (0, 0, 1, -1)]),
        "M5": datum(branch, [(1, 0, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)]),
        "outer": datum({0, 2, 3}, [(0, 1, 0, 0)]),
    }
    # the outer instance sits inside the line through alpha1+2*alpha2+alpha3+alpha4
    c = d4.cartan_matrix.entries
    alpha = [tuple(c[i][j] for i in range(4)) for j in range(4)]
    combo = tuple(a + 2 * b + x + y for a, b, x, y in
                  zip(alpha[0], alpha[1], alpha[2], alpha[3]))
    assert combo == (0, 1, 0, 0)
    for name, dat in good.items():
        assert invariance_entries(triality, dat)[0] is True, name
    assert invariance_entries(
        triality, datum({0}, [(0, 1, 0, 0)]))[0] is False
    report(4, "five invariant horospherical data accepted, moved subset "
              "rejected")


def test_criterion_5_trialitary_file_end_to_end():
    p = parse_dict(load_corpus("spin8_trialitary"))
    v = verdict(p.brd, p.action, p.invariance_input, p.hypotheses, p.cohomology)
    assert v.status == FORM_EXISTS
    assert v.theorem_applied == QUASI_SPLIT_DESCENT
    flipped = HypothesisSet(True, True, False, "BySymmetric", "p_adic")
    v2 = verdict(p.brd, p.action, p.invariance_input, flipped, p.cohomology)
    assert v2.status == FORM_EXISTS
    assert v2.theorem_applied == OBSTRUCTION_DESCENT
    assert v2.obstruction.reason == "h2_target_trivial"
    report(5, "quasi-split route, then obstruction route after flipping the "
              "flag")


def test_criterion_6_zero_map_certifies_existence():
    p = parse_dict(load_corpus("sl2_torus"))
    assert p.cohomology.kappa.is_zero_map()
    ov = obstruction_verdict(False, kappa=p.cohomology.kappa)
    assert ov.status == "vanishes" and ov.reason == "zero_character_map"
    v = verdict(p.brd, p.action, p.invariance_input, p.hypotheses, p.cohomology)
    assert v.status == FORM_EXISTS
    assert v.theorem_applied == OBSTRUCTION_DESCENT
    assert v.obstruction.reason == "zero_character_map"
    report(6, "zero comparison map yields vanishing and existence")


def _random_strictly_convex_cone(rng, dim):
    while True:
        k = rng.randint(dim, dim + 3)
        rays = [tuple(rng.randint(-3, 3) for _ in range(dim)) for _ in range(k)]
        cone = cone_from_generators(dim, rays)
        if cone.is_strictly_convex and cone.rays:
            return cone


def _signed_permutation(rng, dim):
    perm = list(range(dim))
    rng.shuffle(perm)
    rows = [[0] * dim for _ in range(dim)]
    for i, j in enumerate(perm):
        rows[i][j] = rng.choice((1, -1))
    return IntMatrix.from_rows(rows)


def test_criterion_7_wonderful_fan_property_suite():
    rng = random.Random(20260825)
    stable = unstable = 0
    for trial in range(60):
        dim = 2 + trial % 4
        cone = _random_strictly_convex_cone(rng, dim)
        fan = wonderful_fan(cone)
        assert is_valid_fan(fan, cone).ok
        assert is_wonderful(fan, cone)

        m = IntMatrix.identity(dim) if trial % 5 == 0 \
            else _signed_permutation(rng, dim)
        action = build_action(torus(dim), [m], names=("g",))
        sv = is_gamma_stable(fan, action, Lattice.full(dim))
        # direct predicate: the dual matrix maps the cone onto itself
        dual = m.inverse_unimodular().transpose()
        fixes = cones_equal(active_set_oracle.image(cone, dual), cone)
        assert sv.stable == fixes
        assert (sv.violating_generator is None) == fixes
        if fixes:
            stable += 1
        else:
            unstable += 1
    assert stable >= 5 and unstable >= 5
    report(7, f"60 random cones in dims 2-5: all face fans valid and "
              f"wonderful; stability matched cone fixedness "
              f"({stable} stable, {unstable} not)")


def _random_unimodular(rng, n):
    rows = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(4 * n):
        op = rng.randrange(3)
        i = rng.randrange(n)
        j = rng.randrange(n)
        if op == 0 and i != j:
            s = rng.choice((1, -1))
            rows[i] = [a + s * b for a, b in zip(rows[i], rows[j])]
        elif op == 1 and i != j:
            rows[i], rows[j] = rows[j], rows[i]
        elif op == 2:
            rows[i] = [-a for a in rows[i]]
    return IntMatrix.from_rows(rows)


def _restate(data, rng):
    """Re-present every stated basis and shuffle every stated generator list."""
    out = json.loads(json.dumps(data))
    if "invariants" in out:
        basis = out["invariants"]["weight_lattice"]["basis"]
        u = _random_unimodular(rng, len(basis))
        w = u.inverse_unimodular().transpose()
        out["invariants"]["weight_lattice"]["basis"] = [
            list(r) for r in (u @ IntMatrix.from_rows(basis)).entries]
        vc = out["invariants"]["valuation_cone"]
        if "generators" in vc:
            vc["generators"] = [list(u.apply(r)) for r in vc["generators"]]
            rng.shuffle(vc["generators"])
        if "inequalities" in vc:
            vc["inequalities"] = [list(w.apply(r)) for r in vc["inequalities"]]
            rng.shuffle(vc["inequalities"])
        for key in ("omega1", "omega2"):
            recs = out["invariants"].get("colors", {}).get(key)
            if recs:
                for rec in recs:
                    rec["rho"] = list(u.apply(rec["rho"]))
                rng.shuffle(recs)
        if "fan" in out:
            for cc in out["fan"]["cones"]:
                cc["rays"] = [list(u.apply(r)) for r in cc["rays"]]
                rng.shuffle(cc["rays"])
            rng.shuffle(out["fan"]["cones"])
    if "horospherical" in out:
        gens = out["horospherical"]["M"]["generators"]
        v = _random_unimodular(rng, len(gens))
        mixed = (v @ IntMatrix.from_rows(gens)).entries
        out["horospherical"]["M"]["generators"] = [list(r) for r in mixed]
        rng.shuffle(out["horospherical"]["I"])
    return out


def _outcomes(p):
    out = {}
    if p.action is not None and p.invariance_input is not None:
        ok, entries = invariance_entries(p.action, p.invariance_input)
        out["invariance"] = (ok, tuple((e.check, e.ok, e.detail) for e in entries))
        if p.hypotheses is not None:
            v = verdict(p.brd, p.action, p.invariance_input, p.hypotheses,
                        p.cohomology)
            ob = None if v.obstruction is None else (v.obstruction.status,
                                                     v.obstruction.reason)
            out["verdict"] = (v.status, v.theorem_applied, v.missing, ob)
    if p.action is not None and p.invariants is not None:
        r = wonderful_stability_report(p.invariants, p.action)
        out["wonderful"] = (r.fan_valid, r.wonderful, r.stable,
                            r.violating_generator)
        if p.fan is not None:
            fv = is_valid_fan(p.fan, p.invariants.valuation_cone)
            sv = is_gamma_stable(p.fan, p.action, p.invariants.weight_lattice)
            out["fan_block"] = (fv.ok, is_wonderful(p.fan, p.invariants.valuation_cone),
                                sv.stable, sv.violating_generator)
    if p.horospherical is not None and p.action is not None:
        out["horospherical"] = invariance_entries(p.action, p.horospherical)[0]
    if p.cohomology is not None and p.cohomology.a_module.is_finite:
        out["h2"] = h2_local_vanishes(p.cohomology.a_module)
    return out


def test_criterion_8_verdicts_are_presentation_independent():
    rng = random.Random(88)
    files = corpus_names()
    assert len(files) == 12
    compared = 0
    for name in files:
        text = (corpus_root() / name).read_text("utf-8")
        base_problem = parse_text(text)
        base = _outcomes(base_problem)
        data = json.loads(text)
        for _ in range(3):
            moved = parse_dict(_restate(data, rng))
            assert _outcomes(moved) == base, name
            if base_problem.invariants is not None:
                assert invariants_equal(moved.invariants, base_problem.invariants)
            if base_problem.horospherical is not None:
                assert moved.horospherical == base_problem.horospherical
            compared += 1
    report(8, f"{compared} re-presentations across 12 corpus files left "
              "every outcome unchanged")


def test_criterion_9_soundness_fuzz(d4, triality):
    c = d4.cartan_matrix.entries
    alpha = [tuple(c[i][j] for i in range(4)) for j in range(4)]
    root_lat = Lattice.from_rows(4, alpha)
    vcone_ineqs = [vec_neg(root_lat.coordinates(a)) for a in alpha]
    from sphdescent.cones import ColorRecord, cone_from_inequalities
    from sphdescent.intlinalg import vec_dot
    vcone = cone_from_inequalities(4, vcone_ineqs)
    basis = root_lat.basis.entries
    omega1 = frozenset(
        ColorRecord(tuple(vec_dot(u, d4.simple_coroots[i]) for u in basis), {i})
        for i in range(4))
    good_sph = SphericalInvariants(d4, root_lat, vcone, omega1, frozenset())
    bad_sph = SphericalInvariants(
        d4, root_lat, cone_from_generators(4, vcone.rays[:2]), omega1,
        frozenset())
    good_horo = HorosphericalDatum(
        frozenset({1}), RationalLattice.from_generators(4, [(1, 0, 1, 1)]))
    bad_horo = HorosphericalDatum(
        frozenset({0}), RationalLattice.from_generators(4, [(0, 1, 0, 0)]))

    center = MultiplicativeTypeModule(
        FgAbelianGroup(IntMatrix.from_rows([[2, 0], [0, 2]])),
        (IntMatrix.from_rows([[0, 1], [1, 1]]),), ("t",))
    coh_options = (None, CohomologyInputs(a_module=center))

    rng = random.Random(99)
    cases = [(good_sph, True), (bad_sph, False),
             (good_horo, True), (bad_horo, False)]
    checked = 0
    for _ in range(240):
        inv, invariant = rng.choice(cases)
        horo = isinstance(inv, HorosphericalDatum)
        reasons = ["AssertedTrue", "BySymmetric", "Unknown"]
        if horo:
            reasons.append("ByHorospherical")
        hyps = HypothesisSet(
            field_is_large=rng.random() < 0.5,
            char_zero=rng.random() < 0.5,
            form_is_quasi_split=rng.random() < 0.5,
            normalizer_self_normalizing=rng.choice(reasons),
            base_field=rng.choice(("p_adic", "real", "large_other")))
        v = verdict(d4, triality, inv, hyps, rng.choice(coh_options))
        if v.status == FORM_EXISTS:
            assert all(e.ok for e in v.trace)
        if not invariant:
            assert v.status == NO_FORM
        checked += 1
    assert checked == 240
    report(9, "240 fuzzed verdicts: positives always have clean traces, "
              "invariance failures always report no form")
