"""Tests for the command-line interface: exit codes, outputs, cap handling."""
import json

import pytest

from sphdescent.cli import corpus_names, corpus_root, main

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


def test_unknown_corpus_name(capsys):
    code, _, err = run(capsys, "verdict", "--corpus", "unheard_of")
    assert code == 64 and "no corpus file named" in err
    assert "spin8_trialitary.json" in err


def test_file_argument_required_without_corpus(capsys):
    code, _, err = run(capsys, "verdict")
    assert code == 64 and "give a problem file" in err


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


# -- caps ------------------------------------------------------------------------------

def test_cap_flag_limits_closure(capsys):
    code, _, err = run(capsys, "verdict", "--corpus", "spin8_trialitary",
                       "--cap", "2")
    assert code == 64 and "closure exceeds" in err
    assert run(capsys, "verdict", "--corpus", "spin8_trialitary",
               "--cap", "3")[0] == 0


def test_cap_env_var(capsys, monkeypatch):
    monkeypatch.setenv("SPHDESCENT_CAP", "2")
    assert run(capsys, "verdict", "--corpus", "spin8_trialitary")[0] == 64
    # an explicit flag wins over the environment
    assert run(capsys, "verdict", "--corpus", "spin8_trialitary",
               "--cap", "3")[0] == 0
    monkeypatch.setenv("SPHDESCENT_CAP", "notanumber")
    code, _, err = run(capsys, "verdict", "--corpus", "spin8_trialitary")
    assert code == 64 and "must be an integer" in err
