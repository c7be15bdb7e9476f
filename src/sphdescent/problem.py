"""Problem-file format: schema, parsing, and normalized serialization.

A problem file is a single JSON object (versioned by `schema: 1`) describing
a root datum, a finite Galois action on it, combinatorial invariants (either
full spherical invariants or a horospherical datum), hypothesis assertions,
and optional cohomological data and a colored fan.

Coordinate conventions for user input:

* X-vectors (weight lattice basis, horospherical generators, action
  matrices) are written in the root datum's character basis.
* Simple roots are numbered 1..n, in the Bourbaki order of the datum.
* V-vectors (cone generators, color functionals) are written in the basis
  dual to the weight-lattice basis *as stated in the file*; inequalities
  are X-vectors in the stated basis.  The parser converts everything to the
  library's canonical coordinates (dual of the Hermite basis), so verdicts
  do not depend on which basis the author chose.
* Rational entries are integers or strings like "3/2".  Floats are rejected
  everywhere, integral ones such as 1.0 included.
"""
import json
import re
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

from .checker import BASE_FIELDS, NORMALIZER_REASONS, CohomologyInputs, HypothesisSet
from .cohomology import CharacterMap, MultiplicativeTypeModule
from .cones import (
    ColoredCone,
    ColoredFan,
    ColorRecord,
    RationalCone,
    cone_from_generators,
    cone_from_inequalities,
    cones_equal,
)
from .intlinalg import FgAbelianGroup, IntMatrix, Lattice
from .invariants import HorosphericalDatum, RationalLattice, SphericalInvariants
from .rootdata import BasedRootDatum, CapExceeded, build_root_datum
from .staraction import GaloisAction, build_action


class ProblemError(ValueError):
    """Parse or schema failure, with enough context to locate the culprit."""


_QNUM = {"anyOf": [{"type": "integer"},
                   {"type": "string", "pattern": "^-?[0-9]+(/[1-9][0-9]*)?$"}]}
_QVEC = {"type": "array", "items": _QNUM}
_QMAT = {"type": "array", "items": _QVEC}
_ZVEC = {"type": "array", "items": {"type": "integer"}}
_ZMAT = {"type": "array", "items": _ZVEC}
_COLOR = {"type": "object",
          "properties": {"rho": _QVEC,
                         "sigma": {"type": "array",
                                   "items": {"type": "integer", "minimum": 1}}},
          "required": ["rho", "sigma"], "additionalProperties": False}
_MODULE = {"type": "object",
           "properties": {"presentation": _ZMAT,
                          "action": {"type": "object",
                                     "additionalProperties": _ZMAT}},
           "required": ["presentation", "action"], "additionalProperties": False}

SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "properties": {
        "schema": {"const": 1},
        "title": {"type": "string"},
        "notes": {"type": "string"},
        "root_datum": {
            "type": "object",
            "properties": {
                "type": {"enum": ["A", "B", "C", "D", "E", "F", "G", "torus"]},
                "rank": {"type": "integer", "minimum": 0},
                "isogeny": {"enum": ["simply_connected", "adjoint"]},
            },
            "required": ["type", "rank"],
            "additionalProperties": False,
        },
        "action": {
            "type": "object",
            "properties": {
                "generators": {
                    "type": "array",
                    "items": {
                        "type": "object",
                        "properties": {
                            "name": {"type": "string", "minLength": 1},
                            "s_permutation": {
                                "type": "array",
                                "items": {"type": "integer", "minimum": 1}},
                            "matrix_on_X": _ZMAT,
                        },
                        "required": ["name"],
                        "additionalProperties": False,
                    },
                },
            },
            "required": ["generators"],
            "additionalProperties": False,
        },
        "invariants": {
            "type": "object",
            "properties": {
                "weight_lattice": {
                    "type": "object",
                    "properties": {"basis": _ZMAT},
                    "required": ["basis"],
                    "additionalProperties": False,
                },
                "valuation_cone": {
                    "type": "object",
                    "properties": {"generators": _QMAT, "inequalities": _QMAT},
                    "minProperties": 1,
                    "additionalProperties": False,
                },
                "colors": {
                    "type": "object",
                    "properties": {"omega1": {"type": "array", "items": _COLOR},
                                   "omega2": {"type": "array", "items": _COLOR}},
                    "additionalProperties": False,
                },
            },
            "required": ["weight_lattice", "valuation_cone"],
            "additionalProperties": False,
        },
        "horospherical": {
            "type": "object",
            "properties": {
                "I": {"type": "array", "items": {"type": "integer", "minimum": 1}},
                "M": {
                    "type": "object",
                    "properties": {
                        "generators": _QMAT,
                        "denominator": {"type": "integer", "minimum": 1},
                    },
                    "required": ["generators"],
                    "additionalProperties": False,
                },
            },
            "required": ["I", "M"],
            "additionalProperties": False,
        },
        "hypotheses": {
            "type": "object",
            "properties": {
                "field_is_large": {"type": "boolean"},
                "char_zero": {"type": "boolean"},
                "form_is_quasi_split": {"type": "boolean"},
                "normalizer_self_normalizing": {"enum": list(NORMALIZER_REASONS)},
                "base_field": {"enum": list(BASE_FIELDS)},
            },
            "additionalProperties": False,
        },
        "cohomology": {
            "type": "object",
            "properties": {
                "A_characters": _MODULE,
                "Z_characters": _MODULE,
                "kappa_matrix": _ZMAT,
                "base_field": {"enum": list(BASE_FIELDS)},
            },
            "required": ["A_characters"],
            "additionalProperties": False,
        },
        "fan": {
            "type": "object",
            "properties": {
                "cones": {
                    "type": "array",
                    "items": {
                        "type": "object",
                        "properties": {"rays": _QMAT,
                                       "colors": {"type": "array", "items": _COLOR}},
                        "required": ["rays"],
                        "additionalProperties": False,
                    },
                },
            },
            "required": ["cones"],
            "additionalProperties": False,
        },
    },
    "required": ["schema"],
    "additionalProperties": False,
}


def _scalar(x):
    """Exact scalar from an int or a 'p/q' string."""
    if isinstance(x, bool) or not isinstance(x, (int, str)):
        raise ProblemError(f"expected an integer or 'p/q' string, got {x!r}")
    f = Fraction(x)
    return int(f) if f.denominator == 1 else f


def _qvec(row):
    return tuple(_scalar(x) for x in row)


def _num_out(x):
    f = Fraction(x)
    return int(f) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


def _vec_out(v):
    return [_num_out(x) for x in v]


def _mat_out(rows):
    return [_vec_out(r) for r in rows]


@dataclass(frozen=True)
class Problem:
    """A fully parsed problem file."""

    title: str
    brd: BasedRootDatum | None
    action: GaloisAction | None
    invariants: SphericalInvariants | None
    horospherical: HorosphericalDatum | None
    hypotheses: HypothesisSet | None
    cohomology: CohomologyInputs | None
    cohomology_base_field: str | None
    fan: ColoredFan | None
    notes: str = ""
    source: dict = field(default=None, compare=False, repr=False)

    @property
    def invariance_input(self):
        """Whichever invariants block the file carries."""
        return self.invariants if self.invariants is not None else self.horospherical


def _parse_root_datum(block) -> BasedRootDatum:
    isogeny = block.get("isogeny", "simply_connected")
    try:
        return build_root_datum(block["type"], block["rank"], isogeny)
    except ValueError as e:
        raise ProblemError(f"root_datum: {e}") from None


def _parse_action(block, brd: BasedRootDatum, cap=None) -> GaloisAction:
    gens, names = [], []
    nsimple = len(brd.simple_roots)
    for i, g in enumerate(block["generators"]):
        names.append(g["name"])
        has_perm = "s_permutation" in g
        has_mat = "matrix_on_X" in g
        if has_perm == has_mat:
            raise ProblemError(
                f"action generator {g['name']!r} needs exactly one of "
                "s_permutation or matrix_on_X")
        if has_perm:
            perm = g["s_permutation"]
            if sorted(perm) != list(range(1, nsimple + 1)):
                raise ProblemError(
                    f"s_permutation of {g['name']!r} must list each simple "
                    f"root 1..{nsimple} exactly once")
            gens.append(tuple(p - 1 for p in perm))
        else:
            rows = g["matrix_on_X"]
            if len(rows) != brd.rank or any(len(r) != brd.rank for r in rows):
                raise ProblemError(
                    f"matrix_on_X of {g['name']!r} must be {brd.rank}x{brd.rank}")
            gens.append(IntMatrix.from_rows(rows, brd.rank))
    if len(set(names)) != len(names):
        raise ProblemError("action generator names must be distinct")
    kwargs = {"cap": cap} if cap is not None else {}
    try:
        return build_action(brd, gens, names=tuple(names), **kwargs)
    except ValueError as e:
        raise ProblemError(f"action: {e}") from None


def _basis_transition(brd: BasedRootDatum, rows):
    """Stated-basis data: the lattice and the transition matrix T with
    row i = Hermite coordinates of stated row i (so stated = T @ hermite)."""
    for r in rows:
        if len(r) != brd.rank:
            raise ProblemError(
                f"weight lattice rows must have length {brd.rank}")
    lat = Lattice.from_rows(brd.rank, [tuple(r) for r in rows])
    if lat.rank != len(rows):
        raise ProblemError("weight lattice basis rows must be independent")
    t = IntMatrix.from_rows([lat.coordinates(tuple(r)) for r in rows])
    return lat, t


def _parse_color(c, t_inv: IntMatrix, rank: int, nsimple: int) -> ColorRecord:
    rho = _qvec(c["rho"])
    if len(rho) != rank:
        raise ProblemError(f"color functional {c['rho']} must have length {rank}")
    sigma = set()
    for i in c["sigma"]:
        if not 1 <= i <= nsimple:
            raise ProblemError(f"color names simple root {i}, but there are "
                               f"only {nsimple}")
        sigma.add(i - 1)
    return ColorRecord(t_inv.apply(rho), frozenset(sigma))


def _parse_invariants(block, brd: BasedRootDatum):
    lat, t = _basis_transition(brd, block["weight_lattice"]["basis"])
    rank = lat.rank
    t_inv = t.inverse_unimodular()
    t_tr = t.transpose()
    vc = block["valuation_cone"]
    cone_g = cone_i = None
    if "generators" in vc:
        gens = [t_inv.apply(_qvec(r)) for r in vc["generators"]]
        if any(len(g) != rank for g in gens):
            raise ProblemError(f"valuation cone generators must have length {rank}")
        cone_g = cone_from_generators(rank, gens)
    if "inequalities" in vc:
        ineqs = [t_tr.apply(_qvec(r)) for r in vc["inequalities"]]
        if any(len(w) != rank for w in ineqs):
            raise ProblemError(f"valuation cone inequalities must have length {rank}")
        cone_i = cone_from_inequalities(rank, ineqs)
    if cone_g is not None and cone_i is not None and not cones_equal(cone_g, cone_i):
        raise ProblemError("valuation cone generators and inequalities "
                           "describe different cones")
    cone = cone_g if cone_g is not None else cone_i
    colors = block.get("colors", {})
    nsimple = len(brd.simple_roots)
    omega1 = frozenset(_parse_color(c, t_inv, rank, nsimple)
                       for c in colors.get("omega1", []))
    omega2 = frozenset(_parse_color(c, t_inv, rank, nsimple)
                       for c in colors.get("omega2", []))
    try:
        return SphericalInvariants(brd, lat, cone, omega1, omega2), t_inv
    except ValueError as e:
        raise ProblemError(f"invariants: {e}") from None


def _parse_horospherical(block, brd: BasedRootDatum) -> HorosphericalDatum:
    nsimple = len(brd.simple_roots)
    subset = set()
    for i in block["I"]:
        if not 1 <= i <= nsimple:
            raise ProblemError(
                f"I names simple root {i}, but there are only {nsimple}")
        subset.add(i - 1)
    m = block["M"]
    denom = m.get("denominator", 1)
    gens = []
    for r in m["generators"]:
        row = _qvec(r)
        if len(row) != brd.rank:
            raise ProblemError(f"M generators must have length {brd.rank}")
        gens.append(tuple(Fraction(x, denom) for x in row))
    return HorosphericalDatum(frozenset(subset),
                              RationalLattice.from_generators(brd.rank, gens))


def _parse_hypotheses(block) -> HypothesisSet:
    try:
        return HypothesisSet(
            field_is_large=block.get("field_is_large", False),
            char_zero=block.get("char_zero", False),
            form_is_quasi_split=block.get("form_is_quasi_split", False),
            normalizer_self_normalizing=block.get("normalizer_self_normalizing",
                                                  "Unknown"),
            base_field=block.get("base_field", "large_other"),
        )
    except ValueError as e:
        raise ProblemError(f"hypotheses: {e}") from None


def _parse_module(block, label: str) -> MultiplicativeTypeModule:
    pres_rows = block["presentation"]
    ngens = max((len(r) for r in pres_rows), default=0)
    if any(len(r) != ngens for r in pres_rows):
        raise ProblemError(f"{label}: presentation rows must share one length")
    group = FgAbelianGroup(IntMatrix.from_rows(pres_rows, ngens))
    names, mats = [], []
    for name, rows in block["action"].items():
        names.append(name)
        if len(rows) != ngens or any(len(r) != ngens for r in rows):
            raise ProblemError(
                f"{label}: action matrix for {name!r} must be {ngens}x{ngens}")
        mats.append(IntMatrix.from_rows(rows, ngens))
    try:
        return MultiplicativeTypeModule(group, tuple(mats), tuple(names))
    except ValueError as e:
        raise ProblemError(f"{label}: {e}") from None


def _parse_cohomology(block):
    a_module = _parse_module(block["A_characters"], "A_characters")
    kappa = None
    if "kappa_matrix" in block:
        if "Z_characters" not in block:
            raise ProblemError(
                "kappa_matrix needs Z_characters as the map's target")
        z_module = _parse_module(block["Z_characters"], "Z_characters")
        rows = block["kappa_matrix"]
        if len(rows) != z_module.characters.ngens:
            raise ProblemError("kappa_matrix must have one row per "
                               "Z_characters generator")
        try:
            kappa = CharacterMap(a_module, z_module,
                                 IntMatrix.from_rows(rows,
                                                     a_module.characters.ngens))
        except ValueError as e:
            raise ProblemError(f"kappa_matrix: {e}") from None
    return CohomologyInputs(kappa=kappa, a_module=a_module), block.get("base_field")


def _parse_fan(block, inv: SphericalInvariants | None, t_inv, brd) -> ColoredFan:
    if inv is None:
        raise ProblemError("a fan block needs an invariants block, whose "
                           "stated weight-lattice basis fixes the coordinates")
    rank = inv.weight_lattice.rank
    nsimple = len(brd.simple_roots)
    cones = []
    for c in block["cones"]:
        # fan vectors use the same stated basis as the invariants block
        rays = [t_inv.apply(_qvec(r)) for r in c["rays"]]
        if any(len(r) != rank for r in rays):
            raise ProblemError(f"fan rays must have length {rank}")
        colors = frozenset(_parse_color(rec, t_inv, rank, nsimple)
                           for rec in c.get("colors", []))
        try:
            cones.append(ColoredCone(cone_from_generators(rank, rays), colors))
        except ValueError as e:
            raise ProblemError(f"fan: {e}") from None
    try:
        return ColoredFan.build(cones)
    except ValueError as e:
        raise ProblemError(f"fan: {e}") from None


_JSON_TYPES = {"object": dict, "array": list, "string": str, "integer": int, "boolean": bool}


def _is_type(x, name) -> bool:
    """JSON type test: bool is not an integer, and no float is one."""
    return (isinstance(x, _JSON_TYPES[name])
            and isinstance(x, bool) == (name == "boolean"))


def _violations(x, schema, path=()):
    """(path, message) for each way x breaks a SCHEMA node, in key order and
    worded as jsonschema words them.  Only SCHEMA's keywords are known."""
    if "type" in schema and not _is_type(x, schema["type"]):
        yield path, f"{x!r} is not of type {schema['type']!r}"
        return
    for key, arg in schema.items():
        if key == "const" and not (type(x) is type(arg) and x == arg):
            yield path, f"{arg!r} was expected"
        elif key == "enum" and not any(type(x) is type(e) and x == e for e in arg):
            yield path, f"{x!r} is not one of {arg!r}"
        elif key == "minimum" and x < arg:
            yield path, f"{x!r} is less than the minimum of {arg!r}"
        elif key in ("minLength", "minProperties") and len(x) < arg:  # arg is 1
            yield path, f"{x!r} should be non-empty"
        elif key == "pattern" and not re.search(arg, x):
            yield path, f"{x!r} does not match {arg!r}"
        elif key == "required":
            yield from ((path, f"{k!r} is a required property")
                        for k in arg if k not in x)
        elif key == "properties":
            for k, sub in arg.items():
                if k in x:
                    yield from _violations(x[k], sub, path + (k,))
        elif key == "additionalProperties":
            extra = sorted(k for k in x if k not in schema.get("properties", {}))
            if arg is False and extra:
                yield path, ("Additional properties are not allowed ("
                             f"{', '.join(map(repr, extra))} "
                             f"{'was' if len(extra) == 1 else 'were'} unexpected)")
            elif arg is not False:
                for k in extra:
                    yield from _violations(x[k], arg, path + (k,))
        elif key == "items":
            for i, item in enumerate(x):
                yield from _violations(item, arg, path + (i,))
        elif key == "anyOf" and all(next(_violations(x, sub, path), None)
                                    for sub in arg):
            # jsonschema's best match: the branch of x's type, if there is one
            typed = [sub for sub in arg if "type" in sub and _is_type(x, sub["type"])]
            yield from (_violations(x, typed[0], path) if len(typed) == 1 else
                        [(path, f"{x!r} is not valid under any of the given schemas")])


def _check_schema(data):
    """Raise ProblemError for the first violation of SCHEMA at the shallowest path."""
    found = min(_violations(data, SCHEMA), key=lambda v: len(v[0]), default=None)
    if found is not None:
        where = "/".join(str(p) for p in found[0]) or "(top level)"
        raise ProblemError(f"schema violation at {where}: {found[1]}")


def parse_dict(data, cap=None) -> Problem:
    """Validate a decoded JSON object and build the library objects."""
    _check_schema(data)
    if "invariants" in data and "horospherical" in data:
        raise ProblemError("give either invariants or horospherical, not both")

    brd = _parse_root_datum(data["root_datum"]) if "root_datum" in data else None
    action = inv = horo = hyps = coh = fan = None
    coh_field = t_inv = None
    for key in ("action", "invariants", "horospherical", "fan"):
        if key in data and brd is None:
            raise ProblemError(f"a {key} block needs a root_datum block")
    if "action" in data:
        action = _parse_action(data["action"], brd, cap=cap)
    if "invariants" in data:
        inv, t_inv = _parse_invariants(data["invariants"], brd)
    if "horospherical" in data:
        horo = _parse_horospherical(data["horospherical"], brd)
    if "hypotheses" in data:
        hyps = _parse_hypotheses(data["hypotheses"])
    if "cohomology" in data:
        coh, coh_field = _parse_cohomology(data["cohomology"])
        if (coh_field is not None and hyps is not None
                and coh_field != hyps.base_field):
            raise ProblemError(
                f"cohomology base_field {coh_field!r} contradicts the "
                f"hypotheses base_field {hyps.base_field!r}")
    if "fan" in data:
        fan = _parse_fan(data["fan"], inv, t_inv, brd)
    return Problem(
        title=data.get("title", ""), brd=brd, action=action, invariants=inv,
        horospherical=horo, hypotheses=hyps, cohomology=coh,
        cohomology_base_field=coh_field, fan=fan, notes=data.get("notes", ""),
        source=data)


def parse_text(text: str, cap=None) -> Problem:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as e:
        raise ProblemError(
            f"invalid JSON at line {e.lineno}, column {e.colno}: {e.msg}") from None
    if not isinstance(data, dict):
        raise ProblemError("a problem file must contain a JSON object")
    return parse_dict(data, cap=cap)


def parse_file(path, cap=None) -> Problem:
    """Parse a file given by a path or by an object with read_text, such as
    a packaged corpus entry; errors name the path, or the object's name."""
    resource = hasattr(path, "read_text")
    label = path.name if resource else path
    try:
        text = (path if resource else Path(path)).read_text(encoding="utf-8")
    except OSError as e:
        raise ProblemError(f"cannot read {label}: {e.strerror}") from None
    try:
        return parse_text(text, cap=cap)
    except (ProblemError, CapExceeded) as e:
        raise type(e)(f"{label}: {e}") from None


def _module_out(m: MultiplicativeTypeModule) -> dict:
    return {
        "presentation": _mat_out(m.characters.presentation.entries),
        "action": {name: _mat_out(mat.entries)
                   for name, mat in zip(m.generator_names, m.action)},
    }


def _color_out(rec: ColorRecord) -> dict:
    return {"rho": _vec_out(rec.rho), "sigma": sorted(i + 1 for i in rec.sigma)}


def _cone_generators_out(cone: RationalCone) -> list:
    return _mat_out(cone.generators())


def to_json(problem: Problem) -> dict:
    """Normalized problem dictionary.

    The weight lattice is restated on its Hermite basis, so every V-vector
    comes out in the library's canonical coordinates and a second
    parse/serialize pass reproduces the output verbatim.
    """
    out = {"schema": 1}
    if problem.title:
        out["title"] = problem.title
    if problem.notes:
        out["notes"] = problem.notes
    if problem.brd is not None:
        letter, rank = problem.brd.components[0] if problem.brd.components \
            else ("torus", 0)
        block = {"type": letter, "rank": rank}
        if problem.brd.isogeny in ("simply_connected", "adjoint"):
            block["isogeny"] = problem.brd.isogeny
        out["root_datum"] = block
    if problem.action is not None:
        out["action"] = {"generators": [
            {"name": name, "matrix_on_X": _mat_out(gen.matrix.entries)}
            for name, gen in zip(problem.action.generator_names,
                                 problem.action.generators)]}
    if problem.invariants is not None:
        inv = problem.invariants
        colors = {}
        for label, recs in (("omega1", inv.omega1), ("omega2", inv.omega2)):
            if recs:
                colors[label] = [_color_out(r)
                                 for r in sorted(recs, key=lambda r: r.key())]
        block = {
            "weight_lattice": {"basis": _mat_out(inv.weight_lattice.basis.entries)},
            "valuation_cone": {
                "generators": _cone_generators_out(inv.valuation_cone)},
        }
        if colors:
            block["colors"] = colors
        out["invariants"] = block
    if problem.horospherical is not None:
        datum = problem.horospherical
        m_block = {"generators": _mat_out(datum.characters.lattice.basis.entries)}
        if datum.characters.denominator != 1:
            m_block["denominator"] = datum.characters.denominator
        out["horospherical"] = {"I": sorted(i + 1 for i in datum.simple_subset),
                                "M": m_block}
    if problem.hypotheses is not None:
        h = problem.hypotheses
        out["hypotheses"] = {
            "field_is_large": h.field_is_large,
            "char_zero": h.char_zero,
            "form_is_quasi_split": h.form_is_quasi_split,
            "normalizer_self_normalizing": h.normalizer_self_normalizing,
            "base_field": h.base_field,
        }
    if problem.cohomology is not None:
        block = {"A_characters": _module_out(problem.cohomology.a_module)}
        if problem.cohomology.kappa is not None:
            block["Z_characters"] = _module_out(problem.cohomology.kappa.target)
            block["kappa_matrix"] = _mat_out(problem.cohomology.kappa.matrix.entries)
        if problem.cohomology_base_field is not None:
            block["base_field"] = problem.cohomology_base_field
        out["cohomology"] = block
    if problem.fan is not None:
        fan = problem.fan
        out["fan"] = {"cones": [
            {"rays": _mat_out(fan.rays_of(fc.mask)),
             "colors": [_color_out(r)
                        for r in sorted(fc.colors, key=lambda r: r.key())]}
            for fc in fan.cones]}
    return out
