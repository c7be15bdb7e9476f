"""corpus_files and cli_cold inputs: the shipped corpus and re-presentations.

EXPECTED is written by hand from the README's "Shipped corpus" table and the
exit-code contract (0 positive, 1 negative, 2 inconclusive; a file a
subcommand does not apply to is skipped with exit 0).  A re-presented file
must give its base file's row: re-presentation changes the stated basis and
list order only (acceptance criterion 8).
"""
import json
from fractions import Fraction

from .exact import inverse

SUBCOMMANDS = ("verdict", "check-invariants", "check-fan", "cohomology")

_HORO_OK = {"verdict": (0, {"status": "form_exists",
                            "theorem_applied": "horospherical-criterion",
                            "missing_hypotheses": [], "obstruction": None}),
            "check-invariants": (0, {"preserved": True, "warnings": []}),
            "check-fan": (0, {"skipped": "needs an invariants block"}),
            "cohomology": (0, {"skipped": "needs a cohomology block"})}
_FAN_OK = {"valid": True, "problems": [], "wonderful": True, "stable": True,
           "violating_generator": None}
_QUASI_SPLIT = {"status": "form_exists", "theorem_applied":
                "quasi-split-descent", "missing_hypotheses": [],
                "obstruction": None}

# (file, subcommand) -> (exit code, fields the JSON document must carry)
EXPECTED = {
    **{(f"d4_horospherical_M{i}.json", cmd): row
       for i in range(1, 6) for cmd, row in _HORO_OK.items()},
    **{("d4_horo_bad_I.json", cmd): row for cmd, row in {
        "verdict": (1, {"status": "no_form", "theorem_applied":
                        "combinatorial-invariance-necessity",
                        "missing_hypotheses": [], "obstruction": None}),
        "check-invariants": (1, {"preserved": False, "warnings": []}),
        "check-fan": _HORO_OK["check-fan"],
        "cohomology": _HORO_OK["cohomology"]}.items()},
    **{("spin8_trialitary.json", cmd): row for cmd, row in {
        "verdict": (0, _QUASI_SPLIT),
        "check-invariants": (0, {"preserved": True, "warnings": []}),
        "check-fan": (0, _FAN_OK),
        "cohomology": (0, {"base_field": "p_adic", "h2_vanishes": True,
                           "fixed_characters_order": 1,
                           "obstruction": {"status": "vanishes",
                                           "reason": "quasi_split_form"}}),
    }.items()},
    **{("sl2_torus.json", cmd): row for cmd, row in {
        "verdict": (0, {"status": "form_exists", "theorem_applied":
                        "obstruction-vanishing-descent",
                        "missing_hypotheses": [],
                        "obstruction": {"status": "vanishes",
                                        "reason": "zero_character_map"}}),
        "check-invariants": (0, {"preserved": True, "warnings": []}),
        "check-fan": (0, _FAN_OK),
        "cohomology": (0, {"base_field": "large_other",
                           "obstruction": {"status": "vanishes",
                                           "reason": "zero_character_map"}}),
    }.items()},
    **{("split_form_generic.json", cmd): row for cmd, row in {
        "verdict": (0, _QUASI_SPLIT),
        "check-invariants": (0, {"preserved": True, "warnings": []}),
        "check-fan": (0, _FAN_OK),
        "cohomology": _HORO_OK["cohomology"]}.items()},
    **{("missing_normalizer.json", cmd): row for cmd, row in {
        "verdict": (2, {"status": "inconclusive", "theorem_applied": None,
                        "missing_hypotheses": ["normalizer_self_normalizing"],
                        "obstruction": None}),
        "check-invariants": (0, {"preserved": True, "warnings": []}),
        "check-fan": (0, _FAN_OK),
        "cohomology": _HORO_OK["cohomology"]}.items()},
    **{("spin8_center.json", cmd): row for cmd, row in {
        "verdict": (0, {"skipped": "missing action, invariants or "
                                   "horospherical, hypotheses"}),
        "check-invariants": (0, {"skipped":
                                 "needs action and invariants blocks"}),
        "check-fan": _HORO_OK["check-fan"],
        "cohomology": (0, {"base_field": "p_adic", "h2_vanishes": True,
                           "fixed_characters_order": 1,
                           "obstruction": {"status": "vanishes",
                                           "reason": "h2_target_trivial"}}),
    }.items()},
    **{("fan_stability_demo.json", cmd): row for cmd, row in {
        "verdict": (0, {"skipped": "missing hypotheses"}),
        # the quarter turn moves the quadrant, so invariance fails too
        "check-invariants": (1, {"preserved": False, "warnings": []}),
        "check-fan": (1, {"valid": True, "problems": [], "wonderful": True,
                          "stable": False, "violating_generator": "r"}),
        "cohomology": _HORO_OK["cohomology"]}.items()},
}

CORPUS_FILES = sorted({name for name, _ in EXPECTED})
FAN_FILES = sorted(name for (name, cmd), (_, fields) in EXPECTED.items()
                   if cmd == "check-fan" and "valid" in fields)


def check_answer(name, cmd, code, stdout):
    """None when (exit code, JSON) match the table, else what differed."""
    want_code, fields = EXPECTED[(name, cmd)]
    if code != want_code:
        return f"exit {code}, expected {want_code}"
    try:
        doc = json.loads(stdout)
    except json.JSONDecodeError as e:
        return f"unparseable --json output: {e}"
    for key, want in fields.items():
        if doc.get(key, "<absent>") != want:
            return f"{key} = {doc.get(key, '<absent>')!r}, expected {want!r}"
    if doc.get("status") == "form_exists" and any(
            not e["ok"] for e in doc.get("trace", [])):
        return "positive verdict with a failed trace entry"
    return None


def _random_unimodular(rng, n):
    rows = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(4 * n):
        op, i, j = rng.randrange(3), rng.randrange(n), rng.randrange(n)
        if op == 0 and i != j:
            s = rng.choice((1, -1))
            rows[i] = [a + s * b for a, b in zip(rows[i], rows[j])]
        elif op == 1 and i != j:
            rows[i], rows[j] = rows[j], rows[i]
        elif op == 2:
            rows[i] = [-a for a in rows[i]]
    return rows


def _out(x):
    return int(x) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def _apply(rows, v):
    """rows @ v for a vector of ints or 'p/q' strings, written back alike."""
    return [_out(sum(a * Fraction(x) for a, x in zip(row, v))) for row in rows]


def _mix(u, rows):
    """u @ rows: each new row an integer combination of the old rows."""
    return [_apply(list(zip(*rows)), r) for r in u]


def restate(data, rng):
    """Re-present every stated basis and shuffle every stated list."""
    out = json.loads(json.dumps(data))
    inv = out.get("invariants")
    if inv is not None:
        basis = inv["weight_lattice"]["basis"]
        u = _random_unimodular(rng, len(basis))
        w = [[int(x) for x in col] for col in zip(*inverse(u))]
        inv["weight_lattice"]["basis"] = _mix(u, basis)
        vc = inv["valuation_cone"]
        for key, mat in (("generators", u), ("inequalities", w)):
            if key in vc:
                vc[key] = [_apply(mat, r) for r in vc[key]]
                rng.shuffle(vc[key])
        for recs in inv.get("colors", {}).values():
            for rec in recs:
                rec["rho"] = _apply(u, rec["rho"])
            rng.shuffle(recs)
        if "fan" in out:
            for cc in out["fan"]["cones"]:
                cc["rays"] = [_apply(u, r) for r in cc["rays"]]
                rng.shuffle(cc["rays"])
            rng.shuffle(out["fan"]["cones"])
    horo = out.get("horospherical")
    if horo is not None:
        gens = horo["M"]["generators"]
        v = _random_unimodular(rng, len(gens))
        horo["M"]["generators"] = _mix(v, gens)
        rng.shuffle(horo["I"])
    return out
