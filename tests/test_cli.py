"""Tests for the command-line interface: exit codes, outputs, cap handling."""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from sphdescent.cli import corpus_names, corpus_root, main
from sphdescent.problem import parse_dict, parse_file

ALL_CORPUS = [
    "d4_horo_bad_I.json",
    "d4_horospherical_M1.json",
    "d4_horospherical_M2.json",
    "d4_horospherical_M3.json",
    "d4_horospherical_M4.json",
    "d4_horospherical_M5.json",
    "fan_stability_demo.json",
    "missing_normalizer.json",
    "sl2_torus.json",
    "spin8_center.json",
    "spin8_trialitary.json",
    "split_form_generic.json",
]


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_corpus_inventory():
    assert corpus_names() == ALL_CORPUS


# -- verdict ------------------------------------------------------------------

@pytest.mark.parametrize("name,code", [
    ("spin8_trialitary", 0),
    ("d4_horospherical_M1", 0),
    ("sl2_torus", 0),
    ("split_form_generic", 0),
    ("d4_horo_bad_I", 1),
    ("missing_normalizer", 2),
])
def test_verdict_exit_codes(capsys, name, code):
    assert run(capsys, "verdict", "--corpus", name)[0] == code


def test_verdict_text_output(capsys):
    code, out, _ = run(capsys, "verdict", "--corpus", "spin8_trialitary")
    assert code == 0
    assert "form_exists (quasi-split-descent)" in out
    assert "[ok  ] invariants preserved by generator 't'" in out


def test_verdict_json_golden(capsys):
    code, out, _ = run(capsys, "verdict", "--corpus", "sl2_torus", "--json")
    assert code == 0
    assert json.loads(out) == {
        "file": "sl2_torus.json",
        "status": "form_exists",
        "theorem_applied": "obstruction-vanishing-descent",
        "missing_hypotheses": [],
        "obstruction": {"status": "vanishes", "reason": "zero_character_map"},
        "trace": [
            {"check": "invariants preserved by generator 's'", "ok": True,
             "detail": "lattice, cone, and colors fixed"},
            {"check": "field_is_large", "ok": True, "detail": "asserted"},
            {"check": "char_zero", "ok": True, "detail": "asserted"},
            {"check": "normalizer_self_normalizing", "ok": True,
             "detail": "asserted directly"},
            {"check": "obstruction vanishes", "ok": True,
             "detail": "zero_character_map"},
        ],
    }


def test_verdict_batch_over_corpus(capsys):
    code, out, _ = run(capsys, "verdict", "--corpus")
    assert code == 2  # the worst outcome present is inconclusive
    for name in ALL_CORPUS:
        assert name in out
    assert "spin8_center.json: skipped" in out
    assert "fan_stability_demo.json: skipped" in out


def test_verdict_batch_json(capsys):
    code, out, _ = run(capsys, "verdict", "--corpus", "--json")
    assert code == 2
    docs = json.loads(out)["results"]
    assert [d["file"] for d in docs] == ALL_CORPUS
    by_name = {d["file"]: d for d in docs}
    assert by_name["d4_horo_bad_I.json"]["status"] == "no_form"
    assert "skipped" in by_name["spin8_center.json"]


def test_verdict_skips_file_without_hypotheses(capsys):
    code, out, _ = run(capsys, "verdict", "--corpus", "fan_stability_demo")
    assert code == 0 and "skipped (missing hypotheses)" in out


# -- usage errors ---------------------------------------------------------------

def test_unreadable_file_is_a_usage_error(capsys, tmp_path):
    bad = tmp_path / "broken.json"
    bad.write_text("{ not json", encoding="utf-8")
    code, _, err = run(capsys, "verdict", str(bad))
    assert code == 64 and "line 1" in err
    code, _, err = run(capsys, "verdict", str(tmp_path / "absent.json"))
    assert code == 64 and "cannot read" in err
    # a file that is not UTF-8 is named like any other unreadable one
    latin = tmp_path / "latin1.json"
    latin.write_bytes(b"\xff{}")
    assert run(capsys, "verdict", str(latin)) == (64, "", (
        f"error: {latin}: 'utf-8' codec can't decode byte 0xff in position 0: "
        "invalid start byte\n"))


def test_unknown_corpus_name(capsys):
    code, _, err = run(capsys, "verdict", "--corpus", "unheard_of")
    assert code == 64 and "no corpus file named" in err
    assert "spin8_trialitary.json" in err


def test_file_argument_required_without_corpus(capsys):
    code, _, err = run(capsys, "verdict")
    assert code == 64 and "give a problem file" in err


# exit 2 means inconclusive, so a command line argparse rejects exits 64 too,
# with argparse's own usage text
@pytest.mark.parametrize("argv,message", [
    (["verdict", "--no-such-flag"],
     "sphdescent: error: unrecognized arguments: --no-such-flag"),
    (["conjugate", "A", "2", "2,-1"],
     "sphdescent conjugate: error: the following arguments are required: set_b"),
    (["weyl-orbit", "A", "two", "1"],
     "sphdescent weyl-orbit: error: argument rank: invalid int value: 'two'"),
    ([], "sphdescent: error: the following arguments are required: command"),
], ids=["unknown flag", "missing positional", "bad int", "no subcommand"])
def test_argparse_usage_errors_exit_64(capsys, argv, message):
    with pytest.raises(SystemExit) as exit_:
        main(argv)
    out, err = capsys.readouterr()
    assert exit_.value.code == 64 and out == ""
    assert err.startswith("usage: sphdescent") and err.endswith(message + "\n")


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exit_:
        main(["verdict", "--help"])
    assert exit_.value.code == 0
    assert capsys.readouterr().out.startswith("usage: sphdescent verdict")


# -- check-invariants --------------------------------------------------------------

def test_check_invariants_outcomes(capsys):
    code, out, _ = run(capsys, "check-invariants", "--corpus", "sl2_torus")
    assert code == 0 and "sl2_torus.json: preserved" in out
    code, out, _ = run(capsys, "check-invariants", "--corpus", "d4_horo_bad_I")
    assert code == 1 and "not preserved" in out
    assert "moves the simple-root subset" in out


def test_check_invariants_prints_horospherical_warnings(capsys, tmp_path):
    f = tmp_path / "half.json"
    f.write_text(json.dumps({
        "schema": 1,
        "root_datum": {"type": "D", "rank": 4},
        "action": {"generators": [{"name": "t", "s_permutation": [3, 2, 4, 1]}]},
        "horospherical": {"I": [2],
                          "M": {"generators": [[1, 0, 1, 1]], "denominator": 2}},
    }), encoding="utf-8")
    code, out, _ = run(capsys, "check-invariants", str(f))
    assert code == 0
    assert "preserved" in out and "warning:" in out


def test_check_invariants_batch_hits_worst_code(capsys):
    assert run(capsys, "check-invariants", "--corpus")[0] == 1


# -- check-fan -----------------------------------------------------------------------

def test_check_fan_reports_instability(capsys):
    code, out, _ = run(capsys, "check-fan", "--corpus", "fan_stability_demo")
    assert code == 1
    assert "valid: yes" in out and "wonderful: yes" in out
    assert "stable: no" in out and "violated by generator 'r'" in out


def test_check_fan_on_built_wonderful_fan(capsys):
    code, out, _ = run(capsys, "check-fan", "--corpus", "spin8_trialitary")
    assert code == 0 and "stable: yes" in out


def test_check_fan_skips_horospherical_files(capsys):
    code, out, _ = run(capsys, "check-fan", "--corpus", "d4_horospherical_M1")
    assert code == 0 and "skipped" in out


def test_check_fan_json(capsys):
    code, out, _ = run(capsys, "check-fan", "--corpus", "fan_stability_demo",
                       "--json")
    doc = json.loads(out)
    assert code == 1
    assert doc["valid"] and doc["wonderful"] and not doc["stable"]
    assert doc["violating_generator"] == "r"


def test_check_fan_names_the_moved_cone(capsys, tmp_path):
    code, out, _ = run(capsys, "check-fan", "--corpus", "fan_stability_demo",
                       "--json")
    assert code == 1 and json.loads(out)["violating_cone_rays"] == [[1, 0]]
    # without a stated fan the face fan of the valuation cone is checked
    data = json.loads((corpus_root() / "fan_stability_demo.json")
                      .read_text("utf-8"))
    del data["fan"]
    f = tmp_path / "face_fan.json"
    f.write_text(json.dumps(data), encoding="utf-8")
    code, out, _ = run(capsys, "check-fan", str(f), "--json")
    doc = json.loads(out)
    assert code == 1 and doc["violating_generator"] == "r"
    assert doc["violating_cone_rays"] == [[1, 0]]
    code, out, _ = run(capsys, "check-fan", str(f))
    assert code == 1 and "moved cone rays: [[1, 0]]" in out
    code, out, _ = run(capsys, "check-fan", "--corpus", "spin8_trialitary",
                       "--json")
    assert code == 0 and json.loads(out)["violating_cone_rays"] is None


# check-fan branches that no corpus file reaches, on variants of
# fan_stability_demo (its fan is the face fan of its valuation cone)

LINEALITY = ("the valuation cone has nontrivial lineality, so no fan has it "
             "as a maximal strictly convex cone")


def fan_demo(tmp_path, *, fan=True, action=True, **invariants):
    data = json.loads((corpus_root() / "fan_stability_demo.json")
                      .read_text("utf-8"))
    if not fan:
        del data["fan"]
    if not action:
        del data["action"]
    data["invariants"].update(invariants)
    f = tmp_path / "demo.json"
    f.write_text(json.dumps(data), encoding="utf-8")
    return str(f)


def json_text(doc) -> str:
    return json.dumps(doc, indent=2) + "\n"


@pytest.mark.parametrize("fan", [False, True], ids=["face_fan", "given_fan"])
def test_check_fan_without_an_action(capsys, tmp_path, fan):
    f = fan_demo(tmp_path, fan=fan, action=False)
    assert run(capsys, "check-fan", f) == (
        0, "demo.json: valid: yes, wonderful: yes\n", "")
    assert run(capsys, "check-fan", f, "--json") == (0, json_text(
        {"file": "demo.json", "valid": True, "problems": [],
         "wonderful": True}), "")


@pytest.mark.parametrize("action", [False, True], ids=["no_action", "action"])
def test_check_fan_face_fan_of_a_cone_with_lineality(capsys, tmp_path, action):
    f = fan_demo(tmp_path, fan=False, action=action,
                 valuation_cone={"generators": [[1, 0], [-1, 0], [0, 1]]})
    assert run(capsys, "check-fan", f) == (
        1, f"demo.json: valid: no, problems: {LINEALITY}\n", "")
    assert run(capsys, "check-fan", f, "--json") == (1, json_text(
        {"file": "demo.json", "valid": False, "problems": [LINEALITY]}), "")


@pytest.mark.parametrize("fan", [False, True], ids=["face_fan", "given_fan"])
def test_check_fan_weight_lattice_moved_by_the_action(capsys, tmp_path, fan):
    # a negative answer, as verdict and check-invariants report the same file
    f = fan_demo(tmp_path, fan=fan, weight_lattice={"basis": [[2, 0], [0, 1]]})
    assert run(capsys, "check-fan", f) == (
        1, "demo.json: valid: yes, problems: moves the weight lattice, "
           "wonderful: yes, stable: no, violated by generator 'r'\n", "")
    assert run(capsys, "check-fan", f, "--json") == (1, json_text(
        {"file": "demo.json", "valid": True, "problems": ["moves the weight lattice"],
         "wonderful": True, "stable": False, "violating_generator": "r",
         "violating_cone_rays": None}), "")


DATA = Path(__file__).parent / "data"


def test_check_fan_decides_meets_the_ray_sums_miss(capsys):
    # each maximal cone's ray sum lies outside the valuation cone, so every
    # axiom falls through to the feasibility test: two meets, three misses
    f = str(DATA / "fan_ray_sums_outside.json")
    assert run(capsys, "check-fan", f, "--json") == (0, json_text(
        {"file": "fan_ray_sums_outside.json", "valid": True, "problems": [],
         "wonderful": False}), "")
    assert run(capsys, "check-fan", f) == (
        0, "fan_ray_sums_outside.json: valid: yes, wonderful: no\n", "")


def test_check_fan_caps_face_enumeration(capsys, monkeypatch):
    # the closure fits under 8; the 16 faces of the stated fan's one cone do
    # not, and the error names the file as a parse error does: as given
    f = str(DATA / "stated_fan_over_cap.json")
    assert run(capsys, "check-fan", f, "--cap", "8") == (
        64, "", f"error: {f}: face enumeration exceeded cap 8\n")
    assert run(capsys, "check-fan", f, "--cap", "16")[:2] == (
        0, "stated_fan_over_cap.json: valid: yes, wonderful: yes, stable: yes\n")
    monkeypatch.setenv("SPHDESCENT_CAP", "15")
    assert run(capsys, "check-fan", f, "--json") == (
        64, "", f"error: {f}: face enumeration exceeded cap 15\n")
    monkeypatch.delenv("SPHDESCENT_CAP")
    assert run(capsys, "check-fan", f)[0] == 0
    # without the fan block the face fan is decided from the cone's rays,
    # and no face is enumerated
    assert run(capsys, "check-fan", str(DATA / "face_fan_over_cap.json"),
               "--cap", "8") == (
        0, "face_fan_over_cap.json: valid: yes, wonderful: yes, stable: yes\n",
        "")


def spin8_pattern_on_a(n):
    """A problem file on type A_n laid out as spin8_trialitary: the root
    lattice on the simple-root basis, the negative orthant as valuation
    cone, the Cartan rows as colors, and the diagram reversal."""
    cartan = [[2 if i == j else -1 if abs(i - j) == 1 else 0 for j in range(n)]
              for i in range(n)]
    return {
        "schema": 1,
        "root_datum": {"type": "A", "rank": n, "isogeny": "simply_connected"},
        "action": {"generators": [
            {"name": "t", "s_permutation": list(range(n, 0, -1))}]},
        "invariants": {
            "weight_lattice": {"basis": cartan},
            "valuation_cone": {"generators": [
                [-int(i == j) for j in range(n)] for i in range(n)]},
            "colors": {"omega1": [{"rho": row, "sigma": [i + 1]}
                                  for i, row in enumerate(cartan)]}}}


def test_check_fan_on_a_rank_10_face_fan(capsys, tmp_path):
    # the face fan has 1,024 cones, but it is decided from the valuation
    # cone's 10 rays: no face is enumerated and no pair of cones is tested
    f = tmp_path / "a10.json"
    f.write_text(json.dumps(spin8_pattern_on_a(10)), encoding="utf-8")
    assert run(capsys, "check-fan", str(f), "--json") == (0, json_text(
        {"file": "a10.json", "valid": True, "problems": [], "wonderful": True,
         "stable": True, "violating_generator": None,
         "violating_cone_rays": None}), "")


@pytest.mark.parametrize("block", ["generators", "inequalities", "rays"])
def test_a_vector_of_the_wrong_length_is_refused_with_file_and_block(
        capsys, tmp_path, block):
    if block == "generators":
        f = str(DATA / "valuation_cone_generator_too_long.json")
        message = "valuation cone generators must have length 2"
    elif block == "inequalities":
        f = fan_demo(tmp_path, valuation_cone={"inequalities": [[0, 1], [1]]})
        message = "valuation cone inequalities must have length 2"
    else:
        f = fan_demo(tmp_path)
        data = json.loads(Path(f).read_text("utf-8"))
        data["fan"]["cones"][1]["rays"] = [[1]]
        Path(f).write_text(json.dumps(data), encoding="utf-8")
        message = "fan rays must have length 2"
    for command in ("verdict", "check-invariants", "check-fan", "cohomology"):
        assert run(capsys, command, f) == (64, "", f"error: {f}: {message}\n")


def _corpus_with(name, *edits):
    """A corpus document with the value of each (path, value) edit set."""
    data = json.loads((corpus_root() / f"{name}.json").read_text("utf-8"))
    for path, value in edits:
        block = data
        for key in path[:-1]:
            block = block[key]
        block[path[-1]] = value
    return data


# one library error per block: its message after the block's name, after the file's
@pytest.mark.parametrize("data,message", [
    ({"schema": 1, "root_datum": {"type": "B", "rank": 1}},
     "root_datum: type B needs rank >= 2"),
    (_corpus_with("spin8_trialitary", (("action", "generators", 0), {
        "name": "t", "matrix_on_X": [[2, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]})),
     "action: matrix generator is not a based root datum automorphism"),
    (_corpus_with("spin8_trialitary", (("invariants", "colors", "omega2"),
                                       [{"rho": [2, -1, 0, 0], "sigma": [1]}])),
     "invariants: a color pair cannot have both one and two preimages"),
    (_corpus_with("spin8_trialitary",
                  (("cohomology", "A_characters", "action", "t"), [[2, 0], [0, 2]])),
     "A_characters: generator 't' does not act by an automorphism of the presented group"),
    (_corpus_with("fan_stability_demo", (("fan", "cones", 0), {"rays": [[1, 0], [-1, 0]]})),
     "fan: colored cones must be strictly convex"),
    (_corpus_with("sl2_torus", (("cohomology", "Z_characters", "action", "s"), [[2]])),
     "Z_characters: generator 's' does not act by an automorphism of the presented group"),
    (_corpus_with("sl2_torus", (("cohomology", "Z_characters", "presentation"), [[4]]),
                  (("cohomology", "kappa_matrix"), [[1]])),
     "kappa_matrix: matrix does not descend through the presentations"),
], ids=["root_datum", "action", "invariants", "A_characters", "fan", "Z_characters",
        "kappa_matrix"])
def test_a_library_error_is_named_by_file_and_block(capsys, tmp_path, data, message):
    f = tmp_path / "block.json"
    f.write_text(json.dumps(data), encoding="utf-8")
    for command in ("verdict", "check-invariants", "check-fan", "cohomology"):
        for extra in ((), ("--json",)):
            assert run(capsys, command, str(f), *extra) == (
                64, "", f"error: {f}: {message}\n")


def _corpus_without(name, *keys):
    data = _corpus_with(name)
    for key in keys:
        del data[key]
    return data


@pytest.mark.parametrize("data,message", [
    (_corpus_without("spin8_trialitary", "root_datum"),
     "an action block needs a root_datum block"),
    (_corpus_without("spin8_trialitary", "root_datum", "action"),
     "an invariants block needs a root_datum block"),
    (_corpus_without("d4_horospherical_M1", "root_datum", "action"),
     "a horospherical block needs a root_datum block"),
    (_corpus_without("fan_stability_demo", "root_datum", "action", "invariants"),
     "a fan block needs a root_datum block"),
], ids=["action", "invariants", "horospherical", "fan"])
def test_a_block_without_a_root_datum_is_refused(capsys, tmp_path, data, message):
    f = tmp_path / "no_root_datum.json"
    f.write_text(json.dumps(data), encoding="utf-8")
    for command in ("verdict", "check-invariants", "check-fan", "cohomology"):
        for extra in ((), ("--json",)):
            assert run(capsys, command, str(f), *extra) == (
                64, "", f"error: {f}: {message}\n")


# errors the verdict raises on parsed data, named like parse errors: by the
# file's path as given
@pytest.mark.parametrize("edits,message", [
    ([(("hypotheses", "normalizer_self_normalizing"), "ByHorospherical")],
     "the ByHorospherical normalizer assertion requires a horospherical datum"),
    ([(("cohomology", "A_characters", "action"), {"s": [[0, 1], [1, 1]]})],
     "cohomology data names generators ('s',), but the action has ('t',)"),
], ids=["normalizer", "cohomology names"])
def test_a_report_error_names_the_file(capsys, tmp_path, edits, message):
    f = tmp_path / "report.json"
    f.write_text(json.dumps(_corpus_with("spin8_trialitary", *edits)), encoding="utf-8")
    for extra in ((), ("--json",)):
        assert run(capsys, "verdict", str(f), *extra) == (64, "", f"error: {f}: {message}\n")


def _spin8_with_a_second_generator(order):
    """spin8_trialitary, not quasi-split, with an identity generator u after
    t, and A_characters' action keys in the given order."""
    data = _corpus_with("spin8_trialitary", (("hypotheses", "form_is_quasi_split"), False))
    data["action"]["generators"].append({"name": "u", "s_permutation": [1, 2, 3, 4]})
    matrices = {"t": [[0, 1], [1, 1]], "u": [[1, 0], [0, 1]]}
    data["cohomology"]["A_characters"]["action"] = {name: matrices[name] for name in order}
    return data


def test_cohomology_actions_are_matched_by_generator_name(capsys, tmp_path):
    # JSON objects are unordered: either key order reads as the action's
    runs = []
    for order in (("t", "u"), ("u", "t")):
        f = tmp_path / "".join(order) / "two_generators.json"
        f.parent.mkdir()
        f.write_text(json.dumps(_spin8_with_a_second_generator(order)), encoding="utf-8")
        runs.append([run(capsys, command, str(f), *extra)
                     for command in ("verdict", "cohomology") for extra in ((), ("--json",))])
    assert runs[0] == runs[1]
    code, out, err = runs[1][0]
    assert (code, err) == (0, "") and out.startswith(
        "two_generators.json: form_exists (obstruction-vanishing-descent); "
        "obstruction: vanishes (h2_target_trivial)\n")


def test_file_commands_read_a_weight_lattice_of_rank_zero(capsys):
    # H = G: V is the zero space, so every basis and matrix on it is empty
    f = str(DATA / "weight_lattice_rank_zero.json")
    assert run(capsys, "check-fan", f) == (
        0, "weight_lattice_rank_zero.json: valid: yes, wonderful: yes, stable: yes\n", "")
    code, out, _ = run(capsys, "check-invariants", f)
    assert (code, out.splitlines()[0]) == (0, "weight_lattice_rank_zero.json: preserved")
    code, out, _ = run(capsys, "verdict", f, "--json")
    assert code == 0 and json.loads(out)["status"] == "form_exists"
    assert run(capsys, "cohomology", f)[0] == 0  # skipped: no cohomology block


# -- cohomology ------------------------------------------------------------------------

def test_cohomology_vanishing_line(capsys):
    code, out, _ = run(capsys, "cohomology", "--corpus", "spin8_center")
    assert code == 0
    assert "H^2 vanishes (fixed characters trivial)" in out
    assert "obstruction: vanishes (h2_target_trivial)" in out


def test_cohomology_nonzero_fixed_characters(capsys, tmp_path):
    f = tmp_path / "constant.json"
    f.write_text(json.dumps({
        "schema": 1,
        "cohomology": {"A_characters": {"presentation": [[2]],
                                        "action": {"g": [[1]]}},
                       "base_field": "p_adic"},
    }), encoding="utf-8")
    code, out, _ = run(capsys, "cohomology", str(f))
    assert code == 1
    assert "H^2 is nonzero (fixed characters have order 2)" in out


def test_base_field_stated_in_the_cohomology_block_alone(capsys, tmp_path):
    # the hypotheses block states no base field, so the cohomology block's
    # is the problem's; without kappa the obstruction route reads it
    data = json.loads((corpus_root() / "sl2_torus.json").read_text("utf-8"))
    del data["hypotheses"]["base_field"], data["cohomology"]["kappa_matrix"]
    data["cohomology"]["base_field"] = "p_adic"
    p = parse_dict(data)
    assert p.base_field == p.hypotheses.base_field == "p_adic"
    f = tmp_path / "sl2_p_adic.json"
    f.write_text(json.dumps(data), encoding="utf-8")
    code, out, _ = run(capsys, "verdict", str(f), "--json")
    assert code == 0 and json.loads(out)["obstruction"] == {
        "status": "unknown", "reason": "nontrivial_fixed_characters"}
    code, out, _ = run(capsys, "cohomology", str(f), "--json")
    doc = json.loads(out)
    assert code == 1 and doc["base_field"] == "p_adic"
    assert doc["h2_vanishes"] is False


def test_cohomology_outside_p_adic_defers_to_obstruction(capsys):
    code, out, _ = run(capsys, "cohomology", "--corpus", "sl2_torus")
    assert code == 0
    assert "not applicable" in out
    assert "obstruction: vanishes (zero_character_map)" in out


def test_cohomology_skips_files_without_block(capsys):
    code, out, _ = run(capsys, "cohomology", "--corpus", "split_form_generic")
    assert code == 0 and "skipped" in out


# -- weyl queries -----------------------------------------------------------------------

def test_weyl_orbit_of_a_root(capsys):
    code, out, _ = run(capsys, "weyl-orbit", "D", "4", "2,-1,0,0")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "orbit size: 24"
    assert len(lines) == 25 and lines[1].strip() == "-2,1,0,0"


def test_weyl_orbit_json_with_fractions(capsys):
    code, out, _ = run(capsys, "weyl-orbit", "A", "1", "1/2", "--json")
    doc = json.loads(out)
    assert code == 0
    assert doc == {"orbit_size": 2, "orbit": [["-1/2"], ["1/2"]]}


def test_weyl_orbit_bad_vector(capsys):
    assert run(capsys, "weyl-orbit", "D", "4", "1,2")[0] == 64
    assert run(capsys, "weyl-orbit", "D", "4", "a,b,c,d")[0] == 64


def test_conjugate_witness_word(capsys):
    code, out, _ = run(capsys, "conjugate", "D", "4",
                       "2,-1,0,0;-2,1,0,0", "0,-1,2,0;0,1,-2,0")
    assert code == 0
    assert out.strip() == "conjugate via: s2 s1 s3 s2"


def test_conjugate_identity_and_failure(capsys):
    code, out, _ = run(capsys, "conjugate", "D", "4", "2,-1,0,0", "2,-1,0,0")
    assert code == 0 and out.strip() == "conjugate via: identity"
    code, out, _ = run(capsys, "conjugate", "D", "4",
                       "2,-1,0,0", "2,-1,0,0;-2,1,0,0")
    assert code == 1 and out.strip() == "not conjugate"


def test_conjugate_rejects_non_roots(capsys):
    code, _, err = run(capsys, "conjugate", "D", "4", "1,1,1,1", "2,-1,0,0")
    assert code == 64 and "error:" in err


def test_conjugate_rejects_non_integral_vectors(capsys):
    # once read as (2, -1) by truncation, and so "conjugate via: identity"
    code, out, err = run(capsys, "conjugate", "A", "2", "2,-1", "5/2,-1")
    assert (code, out, err) == (64, "", "error: not an integral vector: (5/2, -1)\n")
    code, _, err = run(capsys, "conjugate", "A", "2", "2,-1", "1/2,0")
    assert code == 64 and err == "error: not an integral vector: (1/2, 0)\n"


@pytest.mark.parametrize("argv,out", [
    (["conjugate", "D", "4", "2,-1,0,0", "-1,2,-1,-1"], "conjugate via: s1 s2"),
    (["conjugate", "D", "4", "2,-1,0,0", "--", "-1,2,-1,-1"], "conjugate via: s1 s2"),
    (["conjugate", "A", "2", "-1,2;-2,1", "2,-1;1,1"], "conjugate via: s1"),
    (["weyl-orbit", "A", "2", "-1,1"], "orbit size: 3\n  -1,1\n  0,-1\n  1,0"),
])
def test_vectors_that_start_with_a_minus_are_positional(capsys, argv, out):
    # argparse's own pattern takes "-1,1" for an option: it allows only "-1"
    assert run(capsys, *argv)[:2] == (0, out + "\n")


# -- caps ------------------------------------------------------------------------------

def test_cap_flag_limits_closure(capsys):
    code, _, err = run(capsys, "verdict", "--corpus", "spin8_trialitary",
                       "--cap", "2")
    assert code == 64 and "closure exceeds" in err
    assert run(capsys, "verdict", "--corpus", "spin8_trialitary",
               "--cap", "3")[0] == 0


def test_a_corpus_entry_is_named_by_its_file_name(capsys):
    # any other file is named by its path as given, as the tests above show;
    # a corpus run stops at its first file whose action has order above 2
    for argv, name in ((["--corpus", "spin8_trialitary"], "spin8_trialitary.json"),
                       (["--corpus"], "d4_horo_bad_I.json")):
        code, _, err = run(capsys, "verdict", *argv, "--cap", "2")
        assert code == 64 and err.startswith(f"error: {name}: closure exceeds 2 elements;")


def test_cap_env_var(capsys, monkeypatch):
    monkeypatch.setenv("SPHDESCENT_CAP", "2")
    assert run(capsys, "verdict", "--corpus", "spin8_trialitary")[0] == 64
    # an explicit flag wins over the environment
    assert run(capsys, "verdict", "--corpus", "spin8_trialitary",
               "--cap", "3")[0] == 0
    monkeypatch.setenv("SPHDESCENT_CAP", "notanumber")
    code, _, err = run(capsys, "verdict", "--corpus", "spin8_trialitary")
    assert code == 64 and "must be an integer" in err


@pytest.mark.parametrize("argv", [
    ["check-fan", "--corpus", "fan_stability_demo"],
    ["verdict", "--corpus", "spin8_trialitary"],
    ["weyl-orbit", "A", "2", "-1,1"],
    ["conjugate", "A", "2", "2,-1", "-1,2"],
], ids=["check-fan", "verdict", "weyl-orbit", "conjugate"])
@pytest.mark.parametrize("cap", ["0", "-3"])
def test_cap_below_one_is_a_usage_error(capsys, monkeypatch, argv, cap):
    # once read as a cap hit: "orbit exceeded cap -3"
    assert run(capsys, *argv, "--cap", cap) == (
        64, "", f"error: --cap must be a positive integer, got {cap}\n")
    monkeypatch.setenv("SPHDESCENT_CAP", cap)
    assert run(capsys, *argv) == (
        64, "", f"error: SPHDESCENT_CAP must be a positive integer, got '{cap}'\n")
    # an explicit flag wins over the environment
    assert run(capsys, *argv, "--cap", "100000")[0] in (0, 1)


# -- integral floats ------------------------------------------------------------------

# jsonschema counts 1.0 as an integer: "rank": 4.0 once crashed verdict with a
# TypeError traceback, and 1.0 in a basis or a permutation reached exact code
@pytest.mark.parametrize("path,value,where", [
    (("root_datum", "rank"), 4.0, "root_datum/rank"),
    (("invariants", "weight_lattice", "basis", 0, 0), 2.0,
     "invariants/weight_lattice/basis/0/0"),
    (("action", "generators", 0, "s_permutation", 0), 3.0,
     "action/generators/0/s_permutation/0"),
], ids=["rank", "basis", "s_permutation"])
@pytest.mark.parametrize("command", ["verdict", "check-invariants"])
def test_integral_floats_are_schema_violations(capsys, tmp_path, path, value,
                                               where, command):
    f = tmp_path / "floats.json"
    f.write_text(json.dumps(_corpus_with("spin8_trialitary", (path, value))))
    assert run(capsys, command, str(f)) == (
        64, "", f"error: {f}: schema violation at {where}: "
                f"{value!r} is not of type 'integer'\n")


# -- one parser per process ---------------------------------------------------------

def fresh_process(*argv):
    """The CLI's stdout and exit code in a new interpreter."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(src), os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-m", "sphdescent", *argv],
                          capture_output=True, text=True, env=env)
    return done.returncode, done.stdout


def test_json_flag_does_not_stick(capsys):
    code, out, _ = run(capsys, "verdict", "--corpus", "sl2_torus", "--json")
    assert code == 0 and json.loads(out)["status"] == "form_exists"
    code, out, _ = run(capsys, "verdict", "--corpus", "sl2_torus")
    assert code == 0 and out.startswith("sl2_torus.json: form_exists (")


def test_cap_flag_does_not_stick(capsys):
    code, _, err = run(capsys, "weyl-orbit", "A", "2", "1,0", "--cap", "1")
    assert code == 64 and "exceeded cap 1" in err
    code, out, _ = run(capsys, "weyl-orbit", "A", "2", "1,0")
    assert code == 0 and out.startswith("orbit size: 3\n")


def test_usage_error_and_help_leave_no_trace(capsys):
    argv = ["verdict", "--corpus", "spin8_trialitary", "--json"]
    with pytest.raises(SystemExit) as exit_:
        main(["verdict", "--corpus", "--cap", "many"])
    assert exit_.value.code == 64
    with pytest.raises(SystemExit) as exit_:
        main(["check-fan", "--help"])
    assert exit_.value.code == 0
    capsys.readouterr()
    assert run(capsys, *argv)[:2] == fresh_process(*argv)


def test_weyl_orbit_after_check_fan(capsys):
    assert run(capsys, "check-fan", "--corpus", "fan_stability_demo")[0] == 1
    code, out, _ = run(capsys, "weyl-orbit", "D", "4", "0,1,0,0", "--json")
    assert code == 0 and json.loads(out)["orbit_size"] == 24


# -- a reader that closes the pipe early ------------------------------------------

def _env():
    src = Path(__file__).resolve().parents[1] / "src"
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(src), os.environ.get("PYTHONPATH", "")]))


PIPE_CASES = [(["verdict", "--corpus"], 2), (["verdict", "--corpus", "--json"], 2),
              (["check-fan", "--corpus"], 1), (["check-fan", "--corpus", "--json"], 1),
              (["weyl-orbit", "D", "4", "0,1,0,0"], 0)]


@pytest.mark.parametrize("argv,code", PIPE_CASES)
def test_closed_pipe_leaves_no_traceback(argv, code):
    # the reader is gone before the first write: every write fails
    read, write = os.pipe()
    os.close(read)
    try:
        done = subprocess.run([sys.executable, "-m", "sphdescent", *argv],
                              stdout=write, stderr=subprocess.PIPE, env=_env())
    finally:
        os.close(write)
    assert (done.returncode, done.stderr) == (code, b"")


@pytest.mark.parametrize("argv,code", PIPE_CASES[:4])
def test_reader_that_stops_after_one_line(argv, code):
    # as `... | head -1`: whatever is still unwritten goes nowhere
    proc = subprocess.Popen([sys.executable, "-m", "sphdescent", *argv],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=_env())
    assert proc.stdout.readline()
    proc.stdout.close()
    assert proc.wait() == code
    assert b"Traceback" not in proc.stderr.read()
    proc.stderr.close()


def test_check_fan_finds_the_faces_of_stated_maximal_cones(capsys):
    # only the two maximal cones are stated; their faces come from the
    # closure of facet incidence masks, and the swap moves a color
    f = Path(__file__).parent / "data" / "fan_maximal_cones_only.json"
    code, out, _ = run(capsys, "check-fan", str(f), "--json")
    doc = json.loads(out)
    assert code == 1 and doc["valid"] is False and doc["wonderful"] is False
    assert doc["problems"] == [
        f"cone {k}: face with rays {rays} missing from the fan"
        for k, rays in ((0, ()), (0, ((0, 1),)), (0, ((1, 1),)),
                        (1, ()), (1, ((1, 0),)), (1, ((1, 1),)))]
    assert doc["stable"] is False and doc["violating_generator"] == "s"
    assert doc["violating_cone_rays"] == [[0, 1], [1, 1]]


@pytest.mark.parametrize("name,code,status,moved", [
    ("d4_adjoint_triality_stable.json", 0, "form_exists", None),
    ("d4_adjoint_triality_moved.json", 1, "no_form", "t")])
def test_adjoint_diagram_lifts_from_a_file(capsys, name, code, status, moved):
    # on the root lattice of D4 the triality t and the swap s lift as
    # permutation matrices; every corpus file is simply connected
    f = str(DATA / name)
    out = run(capsys, "verdict", f, "--json")
    assert out[0] == code and out[2] == ""
    doc = json.loads(out[1])
    assert doc["status"] == status
    failed = [e for e in doc["trace"] if not e["ok"]]
    assert failed == ([] if moved is None else [
        {"check": f"invariants preserved by generator '{moved}'", "ok": False,
         "detail": "moves the simple-root subset"}])
    out = run(capsys, "check-invariants", f, "--json")
    assert out[0] == code and json.loads(out[1])["warnings"] == []
    problem = parse_file(f)
    assert problem.brd.isogeny == "adjoint" and problem.action.order == 6
