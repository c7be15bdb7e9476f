"""Tests for the JSON problem format: schema and coordinate conversion."""
import copy
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sphdescent.checker import HypothesisSet, verdict
from sphdescent.cli import corpus_names, corpus_root
from sphdescent.cones import ColorRecord, cone_from_inequalities
from sphdescent.intlinalg import Lattice, vec_dot, vec_neg
from sphdescent.invariants import RationalLattice, SphericalInvariants
from sphdescent import problem
from sphdescent.problem import (
    SCHEMA,
    ProblemError,
    _check_schema,
    parse_dict,
    parse_file,
    parse_text,
)
from sphdescent.rootdata import CapExceeded, build_root_datum
from sphdescent.staraction import ClosureCapExceeded

D4 = {"type": "D", "rank": 4, "isogeny": "simply_connected"}
TRIALITY = {"generators": [{"name": "t", "s_permutation": [3, 2, 4, 1]}]}


def load_corpus(name):
    return json.loads((corpus_root() / (name + ".json")).read_text("utf-8"))


def doc(**blocks):
    out = {"schema": 1}
    out.update(blocks)
    return out


@pytest.fixture(scope="module")
def d4():
    return build_root_datum("D", 4)


@pytest.fixture(scope="module")
def symmetric(d4):
    c = d4.cartan_matrix.entries
    al = [tuple(c[i][j] for i in range(4)) for j in range(4)]
    root_lat = Lattice.from_rows(4, al)
    vcone = cone_from_inequalities(
        4, [vec_neg(root_lat.coordinates(a)) for a in al])
    basis = root_lat.basis.entries
    omega1 = frozenset(
        ColorRecord(tuple(vec_dot(u, d4.simple_coroots[i]) for u in basis), {i})
        for i in range(4))
    return SphericalInvariants(d4, root_lat, vcone, omega1, frozenset())


# -- coordinate conversion against a hand-built instance ---------------------------

def test_spin8_file_matches_hand_built_instance(d4, symmetric):
    p = parse_dict(load_corpus("spin8_trialitary"))
    assert p.brd == d4
    assert p.invariants == symmetric
    assert p.action.generator_names == ("t",)
    assert p.action.generators[0].s_perm == (2, 1, 3, 0)
    assert p.hypotheses == HypothesisSet(True, True, True, "BySymmetric", "p_adic")
    assert p.cohomology.a_module.characters.invariant_factors == (2, 2)
    assert p.cohomology.kappa is None


def test_stated_basis_converts_color_functionals():
    p = parse_dict(load_corpus("spin8_trialitary"))
    # rows of the Cartan matrix, rewritten on the dual of the Hermite basis
    assert {r.rho for r in p.invariants.omega1} == {
        (1, 0, 0, 0), (0, 1, 0, 0), (1, 0, 2, 0), (1, 0, 0, 2)}
    assert p.invariants.weight_lattice.basis.entries == (
        (1, 0, 1, 1), (0, 1, 0, 0), (0, 0, 2, 0), (0, 0, 0, 2))


def test_generator_and_inequality_routes_agree(symmetric):
    data = load_corpus("spin8_trialitary")
    only_gens = {"generators": data["invariants"]["valuation_cone"]["generators"]}
    data["invariants"]["valuation_cone"] = only_gens
    p = parse_dict(data)
    assert p.invariants.valuation_cone == symmetric.valuation_cone


def test_disagreeing_cone_descriptions_are_rejected():
    data = load_corpus("spin8_trialitary")
    data["invariants"]["valuation_cone"]["generators"] = [[-1, 0, 0, 0]]
    with pytest.raises(ProblemError, match="different cones"):
        parse_dict(data)


def test_fraction_strings_and_denominator_agree():
    base = doc(root_datum=D4, action=TRIALITY)
    via_strings = dict(base, horospherical={
        "I": [2], "M": {"generators": [["1/2", 0, "1/2", "1/2"]]}})
    via_denominator = dict(base, horospherical={
        "I": [2], "M": {"generators": [[1, 0, 1, 1]], "denominator": 2}})
    half = Fraction(1, 2)
    expected = RationalLattice.from_generators(4, [(half, 0, half, half)])
    assert parse_dict(via_strings).horospherical.characters == expected
    assert parse_dict(via_denominator).horospherical.characters == expected


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 4).flatmap(lambda n: st.tuples(
    st.just(n),
    st.lists(st.lists(st.integers(-6, 6), min_size=n, max_size=n), max_size=4),
    st.integers(1, 12))))
def test_integral_rows_and_fractions_give_one_lattice(case):
    # integral rows of M build (denominator, lattice) directly, p/q rows go
    # through from_generators: both reach the same canonical form
    n, rows, denom = case
    direct = RationalLattice(denom, Lattice.from_rows(n, [tuple(r) for r in rows]))
    assert direct == RationalLattice.from_generators(
        n, [tuple(Fraction(x, denom) for x in r) for r in rows])

    def parsed(m):
        return parse_dict(doc(root_datum={"type": "torus", "rank": n},
                              horospherical={"I": [], "M": m})).horospherical.characters
    strings = [[f"{x}/{denom}" for x in r] for r in rows]
    assert parsed({"generators": rows, "denominator": denom}) == direct
    assert parsed({"generators": strings}) == direct


def test_integral_entries_stay_ints():
    # a color functional in an identity basis reaches the parsed invariants
    # as stated: integral entries as ints, however they are written
    identity = [[int(i == j) for j in range(4)] for i in range(4)]
    [color] = parse_dict(doc(root_datum={"type": "torus", "rank": 4}, invariants={
        "weight_lattice": {"basis": identity},
        "valuation_cone": {"generators": identity},
        "colors": {"omega1": [{"rho": [3, "4/2", "1/2", "-0"], "sigma": []}]},
    })).invariants.omega1
    assert color.rho == (3, 2, Fraction(1, 2), 0)
    assert [type(x) for x in color.rho] == [int, int, Fraction, int]
    rec = ColorRecord((Fraction(2), Fraction(1, 2), -1), {0})
    assert [type(x) for x in rec.rho] == [int, Fraction, int]
    assert rec == ColorRecord((2, Fraction(1, 2), Fraction(-1)), {0})
    assert hash(rec) == hash(ColorRecord((Fraction(2), Fraction(1, 2), -1), {0}))
    p = parse_dict(load_corpus("spin8_trialitary"))
    assert all(type(x) is int for rec in p.invariants.omega1 for x in rec.rho)


# -- schema and cross-reference validation ------------------------------------------

def test_floats_are_rejected():
    data = load_corpus("spin8_trialitary")
    data["invariants"]["colors"]["omega1"][0]["rho"] = [0.5, 0, 0, 0]
    with pytest.raises(ProblemError, match="schema violation at invariants/"):
        parse_dict(data)


def test_unknown_keys_are_rejected():
    with pytest.raises(ProblemError, match=r"schema violation at \(top level\)"):
        parse_dict(doc(surprise=1))


def test_schema_version_is_checked():
    with pytest.raises(ProblemError, match="schema violation at schema"):
        parse_dict({"schema": 2})


@pytest.mark.parametrize("version", [True, 1.0, "1"])
def test_schema_version_must_be_the_integer_1(version):
    # a JSON true is not the integer 1, and neither is 1.0
    with pytest.raises(ProblemError) as got:
        parse_dict({"schema": version})
    assert str(got.value) == "schema violation at schema: 1 was expected"


def test_both_invariant_blocks_rejected():
    data = load_corpus("spin8_trialitary")
    data["horospherical"] = {"I": [2], "M": {"generators": [[1, 0, 1, 1]]}}
    with pytest.raises(ProblemError, match="not both"):
        parse_dict(data)


def test_action_requires_root_datum():
    with pytest.raises(ProblemError, match="needs a root_datum"):
        parse_dict(doc(action=TRIALITY))


def test_fan_requires_invariants():
    with pytest.raises(ProblemError, match="needs an invariants block"):
        parse_dict(doc(root_datum={"type": "torus", "rank": 2},
                       fan={"cones": [{"rays": [[1, 0]]}]}))


def test_cohomology_modules_are_keyed_by_name():
    # A_characters and Z_characters list their keys in opposite orders, and
    # the action lists its generators in either order; each module is read
    # in name order, so kappa's source and target agree, and the verdict
    # pairs the modules with the action by name
    data = load_corpus("sl2_torus")
    data["action"]["generators"].append({"name": "r", "matrix_on_X": [[1]]})
    coh = data["cohomology"]
    coh["A_characters"] = {"presentation": [[2, 0], [0, 2]],
                           "action": {"s": [[1, 0], [0, 1]], "r": [[0, 1], [1, 0]]}}
    coh["kappa_matrix"] = [[0, 0]]
    for z_keys in (("r", "s"), ("s", "r")):
        coh["Z_characters"]["action"] = {k: [[1]] for k in z_keys}
        for _ in range(2):
            data["action"]["generators"].reverse()
            p = parse_dict(data)
            a_module = p.cohomology.a_module
            assert a_module.generator_names == p.cohomology.kappa.target.generator_names == ("r", "s")
            assert {k: m.entries for k, m in a_module.action.items()} == {
                "r": ((0, 1), (1, 0)), "s": ((1, 0), (0, 1))}
            assert verdict(p.brd, p.action, p.invariance_input, p.hypotheses,
                           p.cohomology).status == "form_exists"
    # with no action block, the same name order
    del data["action"], data["hypotheses"], data["invariants"]
    assert parse_dict(data).cohomology.kappa.target.generator_names == ("r", "s")


def test_kappa_requires_z_characters():
    data = load_corpus("sl2_torus")
    del data["cohomology"]["Z_characters"]
    with pytest.raises(ProblemError, match="needs Z_characters"):
        parse_dict(data)


def test_base_field_contradiction():
    data = load_corpus("sl2_torus")
    data["cohomology"]["base_field"] = "p_adic"
    with pytest.raises(ProblemError, match="contradicts"):
        parse_dict(data)


def test_cohomology_block_stands_alone():
    p = parse_dict(load_corpus("spin8_center"))
    assert p.brd is None and p.invariants is None
    assert p.base_field == "p_adic"
    assert p.cohomology.a_module.fixed_characters.is_trivial()


def test_bad_permutations_rejected():
    bad = doc(root_datum=D4, action={
        "generators": [{"name": "t", "s_permutation": [1, 1, 2, 3]}]})
    with pytest.raises(ProblemError, match="exactly once"):
        parse_dict(bad)
    both = doc(root_datum=D4, action={"generators": [
        {"name": "t", "s_permutation": [3, 2, 4, 1],
         "matrix_on_X": [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]}]})
    with pytest.raises(ProblemError, match="exactly one of"):
        parse_dict(both)


def test_matrix_must_preserve_the_root_datum():
    swap = [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
    bad = doc(root_datum=D4,
              action={"generators": [{"name": "g", "matrix_on_X": swap}]})
    with pytest.raises(ProblemError, match="action:"):
        parse_dict(bad)


def test_matrix_shape_checked():
    bad = doc(root_datum=D4,
              action={"generators": [{"name": "g", "matrix_on_X": [[1, 0]]}]})
    with pytest.raises(ProblemError, match="4x4"):
        parse_dict(bad)


def test_duplicate_generator_names_rejected():
    bad = doc(root_datum=D4, action={"generators": [
        {"name": "t", "s_permutation": [3, 2, 4, 1]},
        {"name": "t", "s_permutation": [1, 2, 3, 4]}]})
    with pytest.raises(ProblemError, match="distinct"):
        parse_dict(bad)


def test_dependent_basis_rows_rejected():
    data = load_corpus("spin8_trialitary")
    data["invariants"]["weight_lattice"]["basis"][1] = [4, -2, 0, 0]
    with pytest.raises(ProblemError, match="independent"):
        parse_dict(data)


def test_simple_root_indices_are_bounds_checked():
    data = load_corpus("spin8_trialitary")
    data["invariants"]["colors"]["omega1"][0]["sigma"] = [5]
    with pytest.raises(ProblemError, match="only 4"):
        parse_dict(data)
    horo = doc(root_datum=D4, action=TRIALITY, horospherical={
        "I": [5], "M": {"generators": [[0, 1, 0, 0]]}})
    with pytest.raises(ProblemError, match="only 4"):
        parse_dict(horo)


def test_minimal_file_parses_to_empty_problem():
    p = parse_dict({"schema": 1})
    assert p.brd is None and p.action is None and p.hypotheses is None
    assert p.invariance_input is None
    # a title and notes are accepted, and read by nothing
    assert parse_dict({"schema": 1, "title": "t", "notes": "n"}) == p


def test_cap_reaches_the_action_closure():
    with pytest.raises(ClosureCapExceeded):
        parse_dict(load_corpus("spin8_trialitary"), cap=2)
    assert parse_dict(load_corpus("spin8_trialitary"), cap=3).action.order == 3


# -- text and file level errors ------------------------------------------------------

def test_invalid_json_reports_line_and_column():
    with pytest.raises(ProblemError, match="line 2, column"):
        parse_text('{\n  "schema" 1\n}')


def test_top_level_must_be_an_object():
    with pytest.raises(ProblemError, match="JSON object"):
        parse_text("[1, 2, 3]")


def test_missing_file_reported(tmp_path):
    with pytest.raises(ProblemError, match="cannot read"):
        parse_file(tmp_path / "absent.json")
    with pytest.raises(ProblemError, match=f"cannot read {tmp_path}"):
        parse_file(str(tmp_path / "absent.json"))


def test_parse_file_reads_a_corpus_entry_and_names_it_in_errors():
    entry = corpus_root() / "spin8_trialitary.json"
    assert parse_file(entry) == parse_text(entry.read_text("utf-8"))
    # the closure cap is one of the cap errors, caught as one class
    assert issubclass(ClosureCapExceeded, CapExceeded)
    with pytest.raises(ClosureCapExceeded) as e:
        parse_file(entry, cap=2)
    assert str(e.value).startswith(f"{os.fspath(entry)}: closure exceeds 2 ")


def test_parse_file_names_a_str_and_a_path_alike(tmp_path):
    f = tmp_path / "b1.json"
    f.write_text(json.dumps({"schema": 1, "root_datum": {"type": "B", "rank": 1}}),
                 encoding="utf-8")
    for path in (f, str(f)):
        with pytest.raises(ProblemError) as e:
            parse_file(path)
        assert str(e.value) == f"{f}: root_datum: type B needs rank >= 2"


def test_parse_file_names_the_file_in_any_value_error(tmp_path, monkeypatch):
    # a ValueError from any layer becomes a ProblemError naming the file
    f = tmp_path / "p.json"
    f.write_text("{}", encoding="utf-8")

    def fail(text, cap=None):
        raise ValueError("vector length mismatch")
    monkeypatch.setattr(problem, "parse_text", fail)
    with pytest.raises(ProblemError) as e:
        parse_file(f)
    assert str(e.value) == f"{f}: vector length mismatch"


def test_parse_restates_the_weight_lattice_on_its_hermite_basis():
    p = parse_dict(load_corpus("spin8_trialitary"))
    assert p.invariants.weight_lattice.basis.entries == (
        (1, 0, 1, 1), (0, 1, 0, 0), (0, 0, 2, 0), (0, 0, 0, 2))


# -- schema messages ---------------------------------------------------------------------

MALFORMED = [
    {"schema": 2},
    {"title": "no schema key"},
    doc(extra=1),
    doc(root_datum={"type": "H", "rank": 2}),
    doc(root_datum={"type": "A", "rank": -1, "isogeny": "adjoint"}),
    doc(root_datum={"type": "A"}, action={"generators": [{"name": ""}]}),
    doc(action={"generators": [{"name": "t", "s_permutation": [0, 1]}]}),
    doc(invariants={"weight_lattice": {"basis": [[1.5]]}, "valuation_cone": {}}),
    doc(horospherical={"I": [1], "M": {"generators": [["1/0"]]}}),
    doc(hypotheses={"base_field": "Q", "char_zero": "yes"}),
    doc(fan={"cones": [{"rays": [[1]], "colors": [{"rho": [1]}]}]}),
]


@pytest.mark.parametrize("bad", MALFORMED)
def test_schema_messages_match_jsonschema_validate(bad):
    import jsonschema

    from sphdescent.problem import SCHEMA

    with pytest.raises(jsonschema.ValidationError) as ref:
        jsonschema.validate(bad, SCHEMA)
    where = "/".join(str(p) for p in ref.value.absolute_path) or "(top level)"
    with pytest.raises(ProblemError) as got:
        parse_dict(bad)
    assert str(got.value) == f"schema violation at {where}: {ref.value.message}"


def test_parse_dict_runs_without_jsonschema():
    # jsonschema is a test dependency only: importing the package must not
    # load it, and parsing must not need it
    code = ("import sys, sphdescent; assert 'jsonschema' not in sys.modules; "
            "sys.modules['jsonschema'] = None; "
            "from sphdescent.cli import corpus_root; "
            "from sphdescent.problem import parse_file; "
            "assert parse_file(corpus_root() / 'spin8_trialitary.json').action.order == 3")
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(src), os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env)
    assert done.returncode == 0, done.stderr


_WALKED = {"type", "const", "enum", "minimum", "minLength", "minProperties",
           "pattern", "required", "properties", "additionalProperties", "items",
           "anyOf"}


def _schema_nodes(node):
    yield node
    for key, arg in node.items():
        if key == "properties":
            for sub in arg.values():
                yield from _schema_nodes(sub)
        elif key in ("items", "additionalProperties") and isinstance(arg, dict):
            yield from _schema_nodes(arg)
        elif key == "anyOf":
            for sub in arg:
                yield from _schema_nodes(sub)


def test_schema_uses_only_the_walked_keywords():
    import jsonschema

    jsonschema.Draft202012Validator.check_schema(SCHEMA)
    for node in _schema_nodes(SCHEMA):
        assert set(node) - {"$schema"} <= _WALKED, node
        # the walk words minLength and minProperties for a minimum of 1
        assert node.get("minLength", 1) == node.get("minProperties", 1) == 1


# messages from documents with several violations: the shallowest path
# wins, and among paths of one depth the first in SCHEMA's key order, then
# item order; the order of the document's own keys plays no part
SEVERAL = [
    (doc(root_datum={"type": "H", "rank": -1}),
     "root_datum/type: 'H' is not one of ['A', 'B', 'C', 'D', 'E', 'F', 'G', 'torus']"),
    (doc(root_datum={"rank": -1, "type": "H"}),
     "root_datum/type: 'H' is not one of ['A', 'B', 'C', 'D', 'E', 'F', 'G', 'torus']"),
    (doc(root_datum={"type": "A", "rank": "2"}, extra=1),
     "(top level): Additional properties are not allowed ('extra' was unexpected)"),
    ({"title": 3}, "(top level): 'schema' is a required property"),
    ({"extra": 1, "other": 2}, "(top level): 'schema' is a required property"),
    (doc(hypotheses={"char_zero": 1}, root_datum={"type": "A", "rank": "2"}),
     "root_datum/rank: '2' is not of type 'integer'"),
    (doc(horospherical={"I": [0, -1], "M": {"generators": [["x"]]}}),
     "horospherical/I/0: 0 is less than the minimum of 1"),
    (doc(fan={"cones": [{"rays": [[1.5, "a/b"]], "colors": [{"rho": ["1/0"]}]}]}),
     "fan/cones/0/colors/0: 'sigma' is a required property"),
    (doc(invariants={"weight_lattice": {"basis": [[1, True]]},
                     "valuation_cone": {"generators": [[0.5]]},
                     "colors": {"omega1": [{"rho": ["1/0"]}]}}),
     "invariants/colors/omega1/0: 'sigma' is a required property"),
    (doc(cohomology={"A_characters": {"presentation": [[1.5]],
                                      "action": {"b": [[1.5]], "a": "x"}}}),
     "cohomology/A_characters/action/a: 'x' is not of type 'array'"),
    (doc(cohomology={"A_characters": {"presentation": [],
                                      "action": {k: k for k in "fedcba"}}}),
     "cohomology/A_characters/action/a: 'a' is not of type 'array'"),
    (doc(action={"generators": [{"name": "", "s_permutation": [0]}, {"extra": 1}]}),
     "action/generators/1: 'name' is a required property"),
    (doc(fan={"cones": [{"rays": [["x"], [1.5]]}, {"rays": [[True]]}]}),
     "fan/cones/0/rays/0/0: 'x' does not match '^-?[0-9]+(/[1-9][0-9]*)?$'"),
    (doc(fan={"cones": [{"rays": [[1.5]]}, {"rays": [], "extra": 1}]}),
     "fan/cones/1: Additional properties are not allowed ('extra' was unexpected)"),
    (doc(root_datum={"type": "A", "rank": 2, "isogeny": "x", "more": 1}),
     "root_datum: Additional properties are not allowed ('more' was unexpected)"),
]


@pytest.mark.parametrize("bad,message", SEVERAL)
def test_schema_messages_for_several_violations(bad, message):
    with pytest.raises(ProblemError) as got:
        _check_schema(bad)
    assert str(got.value) == f"schema violation at {message}"


@pytest.mark.parametrize("node", [
    {"type": "integer", "maximum": 3},
    {"type": "array", "items": {"type": "string", "format": "date"}},
    {"type": "object", "properties": {"a": {"oneOf": [{"type": "integer"}]}}},
])
def test_schema_compiler_refuses_keywords_it_does_not_check(node):
    with pytest.raises(ValueError, match="unchecked schema keywords"):
        problem._compile(node)


def test_schema_is_compiled_once_at_import(monkeypatch):
    calls = []

    def counted(node):
        calls.append(node)
        return compile_(node)
    compile_ = problem._compile
    monkeypatch.setattr(problem, "_compile", counted)
    for name in corpus_names():
        parse_dict(load_corpus(name[:-len(".json")]))
    assert calls == []


# -- the walk against jsonschema -------------------------------------------------------------

_CORPUS = [load_corpus(name[:-len(".json")]) for name in corpus_names()]
_VALUES = [-1, 0, 1, 3, 0.5, 1.0, "", "x", "3/2", "1/0", "-2", True, False, None,
           [], [1], [1.0], [[1, "1/2"]], {}, {"rho": [1]}]
_KEYS = ["extra", "schema", "rank", "type", "isogeny", "name", "generators",
         "basis", "rho", "sigma", "I", "M", "denominator", "base_field", "g"]


def _paths(x, path=()):
    yield path
    items = x.items() if isinstance(x, dict) else \
        enumerate(x) if isinstance(x, list) else ()
    for k, v in items:
        yield from _paths(v, path + (k,))


def _floats(x):
    if isinstance(x, float):
        yield x
    for v in x.values() if isinstance(x, dict) else x if isinstance(x, list) else ():
        yield from _floats(v)


@st.composite
def mutated_corpus_documents(draw):
    """A corpus document with one to three random edits: a value replaced,
    a key or item deleted, or a key added."""
    data = copy.deepcopy(draw(st.sampled_from(_CORPUS)))
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(list(_paths(data))))
        node = data
        for k in path[:-1]:
            node = node[k]
        edit = draw(st.sampled_from(["replace", "delete", "add"]))
        value = copy.deepcopy(draw(st.sampled_from(_VALUES)))
        if edit == "add" and isinstance(node, dict):
            target = node[path[-1]] if path else node
            if isinstance(target, dict):
                target[draw(st.sampled_from(_KEYS))] = value
        elif path and edit == "delete":
            del node[path[-1]]
        elif path:
            node[path[-1]] = value
    return data


def _walk_message(data):
    try:
        _check_schema(data)
    except ProblemError as e:
        return str(e)
    return None


@settings(max_examples=400, deadline=None)
@given(mutated_corpus_documents())
def test_schema_walk_agrees_with_jsonschema(data):
    import jsonschema

    errors = list(jsonschema.Draft202012Validator(SCHEMA).iter_errors(data))
    ours = _walk_message(data)
    if any(f.is_integer() for f in _floats(data)):
        # jsonschema counts 1.0 as an integer; no float passes the walk
        assert ours is not None
        return
    assert (ours is None) == (not errors)
    if len(errors) == 1:
        best = jsonschema.exceptions.best_match(errors)
        where = "/".join(str(p) for p in best.absolute_path) or "(top level)"
        assert ours == f"schema violation at {where}: {best.message}"
