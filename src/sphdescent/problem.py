"""Problem-file format: the schema and the parser.

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
  everywhere, integral ones such as 1.0 included.  Entries are read by
  `intlinalg._exact`: ints when integral, else Fractions.  The horospherical
  M, in p/q strings or with a `denominator`, is scaled to integers once, by
  `RationalLattice.from_generators`.

A file enters through one boundary.  The schema check comes first and types
every entry, so the parser tests only what the schema cannot state: lengths
against the rank, and the blocks a block needs.  `_block` alone puts a block's
name before a library ValueError; `file_errors` alone puts the file's label
before any error, at parse time and in a command's report alike.

The schema check is a tree of closures, one per SCHEMA node, compiled once
at import.  Scalar array items are tested inline; only an item that fails
goes through its node's message path.  The first violation at the
shallowest path is raised, worded as jsonschema words it.
"""
import json
import os
import re
from dataclasses import dataclass
from pathlib import Path

from .checker import BASE_FIELDS, NORMALIZER_REASONS, CohomologyInputs, HypothesisSet
from .cohomology import CharacterMap, MultiplicativeTypeModule
from .cones import (
    ColoredCone,
    ColoredFan,
    ColorRecord,
    cone_from_generators,
    cone_from_inequalities,
)
from .intlinalg import FgAbelianGroup, IntMatrix, Lattice, _exact
from .invariants import HorosphericalDatum, RationalLattice, SphericalInvariants
from .rootdata import BasedRootDatum, CapExceeded, build_root_datum
from .staraction import CLOSURE_CAP, GaloisAction, build_action


class ProblemError(ValueError):
    """Parse or schema failure, with enough context to locate the culprit."""


class _block:
    """`with _block(name):` raises a library ValueError from inside as
    ProblemError(f"{name}: {e}"), and the parser's own ProblemErrors as they
    are: the one place where a block's name goes in front of a message."""

    def __init__(self, name):
        self.name = name

    def __enter__(self):
        pass

    def __exit__(self, typ, e, tb):
        if isinstance(e, ValueError) and not isinstance(e, ProblemError):
            raise ProblemError(f"{self.name}: {e}") from None


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


def _num_out(x):
    x = _exact(x)
    return x if type(x) is int else f"{x.numerator}/{x.denominator}"


@dataclass(frozen=True)
class Problem:
    """A fully parsed problem file."""

    brd: BasedRootDatum | None
    action: GaloisAction | None
    invariants: SphericalInvariants | None
    horospherical: HorosphericalDatum | None
    hypotheses: HypothesisSet | None
    cohomology: CohomologyInputs | None
    base_field: str
    fan: ColoredFan | None

    @property
    def invariance_input(self):
        """Whichever invariants block the file carries."""
        return self.invariants if self.invariants is not None else self.horospherical


def _parse_root_datum(block) -> BasedRootDatum:
    isogeny = block.get("isogeny", "simply_connected")
    with _block("root_datum"):
        return build_root_datum(block["type"], block["rank"], isogeny)


def _parse_action(block, brd: BasedRootDatum, cap=CLOSURE_CAP) -> GaloisAction:
    gens, names = [], []
    nsimple = len(brd.simple_roots)
    for g in block["generators"]:
        names.append(g["name"])
        if ("s_permutation" in g) == ("matrix_on_X" in g):
            raise ProblemError(
                f"action generator {g['name']!r} needs exactly one of "
                "s_permutation or matrix_on_X")
        if "s_permutation" in g:
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
    with _block("action"):
        return build_action(brd, gens, names=tuple(names), cap=cap)


def _basis_transition(brd: BasedRootDatum, rows):
    """Stated-basis data: the lattice and the transition matrix T with
    row i = Hermite coordinates of stated row i (so stated = T @ hermite)."""
    if any(len(r) != brd.rank for r in rows):
        raise ProblemError(f"weight lattice rows must have length {brd.rank}")
    lat = Lattice.from_rows(brd.rank, [tuple(r) for r in rows])
    if lat.rank != len(rows):
        raise ProblemError("weight lattice basis rows must be independent")
    t = IntMatrix.from_rows([lat.coordinates(tuple(r)) for r in rows], lat.rank)
    return lat, t


def _transported(rows, m: IntMatrix, what: str) -> list:
    """Stated-basis rows, checked for length, in canonical coordinates."""
    vecs = [tuple(map(_exact, r)) for r in rows]
    if any(len(v) != m.cols for v in vecs):
        raise ProblemError(f"{what} must have length {m.cols}")
    return [m.apply(v) for v in vecs]


def _simple_roots(numbers, nsimple: int, what: str) -> frozenset:
    """0-based indices of simple roots numbered from 1; the schema has no 0."""
    for i in numbers:
        if i > nsimple:
            raise ProblemError(f"{what} names simple root {i}, but there are "
                               f"only {nsimple}")
    return frozenset(i - 1 for i in numbers)


def _parse_color(c, t_inv: IntMatrix, nsimple: int) -> ColorRecord:
    [rho] = _transported([c["rho"]], t_inv, f"color functional {c['rho']}")
    return ColorRecord(rho, _simple_roots(c["sigma"], nsimple, "color"))


def _parse_invariants(block, brd: BasedRootDatum):
    lat, t = _basis_transition(brd, block["weight_lattice"]["basis"])
    rank = lat.rank
    t_inv = t.inverse_unimodular()
    vc = block["valuation_cone"]
    cones = []  # one or two: the schema asks for at least one description
    if "generators" in vc:
        cones.append(cone_from_generators(rank, _transported(
            vc["generators"], t_inv, "valuation cone generators")))
    if "inequalities" in vc:
        cones.append(cone_from_inequalities(rank, _transported(
            vc["inequalities"], t.transpose(), "valuation cone inequalities")))
    if cones[0] != cones[-1]:
        raise ProblemError("valuation cone generators and inequalities "
                           "describe different cones")
    colors = block.get("colors", {})
    nsimple = len(brd.simple_roots)
    omega1, omega2 = (frozenset(_parse_color(c, t_inv, nsimple)
                                for c in colors.get(key, []))
                      for key in ("omega1", "omega2"))
    with _block("invariants"):
        return SphericalInvariants(brd, lat, cones[0], omega1, omega2), t_inv


def _parse_horospherical(block, brd: BasedRootDatum) -> HorosphericalDatum:
    subset = _simple_roots(block["I"], len(brd.simple_roots), "I")
    m = block["M"]
    if any(len(row) != brd.rank for row in m["generators"]):
        raise ProblemError(f"M generators must have length {brd.rank}")
    return HorosphericalDatum(subset, RationalLattice.from_generators(
        brd.rank, m["generators"], m.get("denominator", 1)))


def _parse_module(block, label: str) -> MultiplicativeTypeModule:
    """Matrices are checked in name order: JSON objects are unordered."""
    pres_rows = block["presentation"]
    ngens = max((len(r) for r in pres_rows), default=0)
    if any(len(r) != ngens for r in pres_rows):
        raise ProblemError(f"{label}: presentation rows must share one length")
    group = FgAbelianGroup(IntMatrix.from_rows(pres_rows, ngens))
    action = {}
    for name, rows in sorted(block["action"].items()):
        if len(rows) != ngens or any(len(r) != ngens for r in rows):
            raise ProblemError(
                f"{label}: action matrix for {name!r} must be {ngens}x{ngens}")
        action[name] = IntMatrix.from_rows(rows, ngens)
    with _block(label):
        return MultiplicativeTypeModule(group, action)


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
        with _block("kappa_matrix"):
            kappa = CharacterMap(a_module, z_module,
                                 IntMatrix.from_rows(rows, a_module.characters.ngens))
    return CohomologyInputs(kappa=kappa, a_module=a_module)


def _parse_fan(block, t_inv: IntMatrix, nsimple: int) -> ColoredFan:
    cones = []
    for c in block["cones"]:
        # fan vectors use the same stated basis as the invariants block
        rays = _transported(c["rays"], t_inv, "fan rays")
        colors = frozenset(_parse_color(rec, t_inv, nsimple)
                           for rec in c.get("colors", []))
        with _block("fan"):
            cones.append(ColoredCone(cone_from_generators(t_inv.cols, rays), colors))
    with _block("fan"):
        return ColoredFan.build(cones)


_JSON_TYPES = {"object": dict, "array": list, "string": str, "integer": int, "boolean": bool}
_KEYWORDS = {"$schema", "type", "const", "enum", "minimum", "minLength", "minProperties",
             "pattern", "required", "properties", "additionalProperties", "items", "anyOf"}


def _is_type(x, name) -> bool:
    """JSON type test: bool is not an integer, and no float is one."""
    return (isinstance(x, _JSON_TYPES[name])
            and isinstance(x, bool) == (name == "boolean"))


def _children(triples, best=None):
    """The first violation at the shallowest path among `best` and the
    (key, value, check) children after it, the child's key put in front."""
    for k, value, check in triples:
        v = check(value)
        if v is not None and (best is None or len(v[0]) < len(best[0]) - 1):
            best = (k,) + v[0], v[1]
    return best


def _compile(node):
    """One closure for a SCHEMA node, x -> None or (path, message): the
    violation at the shallowest path below x, the first in key order among
    those, worded as jsonschema words it.  ValueError for a keyword that
    is not checked."""
    if node.keys() - _KEYWORDS:
        raise ValueError(f"unchecked schema keywords {sorted(node.keys() - _KEYWORDS)}")
    typ = node.get("type")
    checks = [_keyword(k, arg, node) for k, arg in node.items() if k not in ("$schema", "type")]

    def check(x):
        if typ is not None and not _is_type(x, typ):
            return (), f"{x!r} is not of type {typ!r}"
        best = None
        for c in checks:
            v = c(x)
            if v is not None and (best is None or len(v[0]) < len(best[0])):
                best = v
        return best
    return check


def _keyword(key, arg, node):
    """The check of one keyword of a node, a closure as _compile's are."""
    if key == "const":
        return lambda x: None if type(x) is type(arg) and x == arg else (
            (), f"{arg!r} was expected")
    if key == "enum":
        typed = [(type(e), e) for e in arg]
        return lambda x: None if (type(x), x) in typed else (
            (), f"{x!r} is not one of {arg!r}")
    if key == "minimum":
        return lambda x: None if x >= arg else (
            (), f"{x!r} is less than the minimum of {arg!r}")
    if key in ("minLength", "minProperties"):  # arg is 1
        return lambda x: None if len(x) >= arg else ((), f"{x!r} should be non-empty")
    if key == "pattern":
        search = re.compile(arg).search
        return lambda x: None if search(x) else ((), f"{x!r} does not match {arg!r}")
    if key == "required":
        def required(x):
            for k in arg:
                if k not in x:
                    return (), f"{k!r} is a required property"
        return required
    known = node.get("properties", {}).keys()
    if key == "additionalProperties" and arg is False:
        def closed(x):
            extra = sorted(x.keys() - known)
            return (), ("Additional properties are not allowed ("
                        f"{', '.join(map(repr, extra))} "
                        f"{'was' if len(extra) == 1 else 'were'} unexpected)")
        return lambda x: None if x.keys() <= known else closed(x)
    if key == "additionalProperties":
        sub = _compile(arg)
        return lambda x: _children((k, x[k], sub) for k in sorted(x.keys() - known))
    if key == "properties":
        subs = [(k, _compile(sub)) for k, sub in arg.items()]
        after = {k: subs[i + 1:] for i, (k, _) in enumerate(subs)}

        def properties(x):
            for k, c in subs:
                if k in x and (v := c(x[k])) is not None:
                    return _children(((j, x[j], c) for j, c in after[k] if j in x),
                                     ((k,) + v[0], v[1]))
        return properties
    if key == "items":
        # an item of a scalar leaf, an integer or a _QNUM, is tested inline,
        # and only an array with an item that fails that test goes to `sub`
        sub = _compile(arg)
        leaf = arg == _QNUM or arg.get("type") == "integer" and arg.keys() <= {"type", "minimum"}
        low = arg.get("minimum", float("-inf"))
        search = re.compile(_QNUM["anyOf"][1]["pattern"]).search if arg == _QNUM else None

        def items(x):
            if leaf:
                for item in x:
                    if not (type(item) is int and item >= low
                            or search and type(item) is str and search(item)):
                        break
                else:
                    return None
            for i, item in enumerate(x):
                if (v := sub(item)) is not None:
                    return _children(((j, x[j], sub) for j in range(i + 1, len(x))),
                                     ((i,) + v[0], v[1]))
        return items
    # anyOf: jsonschema's best match is the branch of x's type, if there is one
    subs = [(s.get("type"), _compile(s)) for s in arg]

    def any_of(x):
        typed = []
        for t, c in subs:
            if (v := c(x)) is None:
                return None
            if t is not None and _is_type(x, t):
                typed.append(v)
        return typed[0] if len(typed) == 1 else (
            (), f"{x!r} is not valid under any of the given schemas")
    return any_of


_CHECK_SCHEMA = _compile(SCHEMA)


def _check_schema(data):
    """Raise ProblemError for the first violation of SCHEMA at the shallowest path."""
    found = _CHECK_SCHEMA(data)
    if found is not None:
        where = "/".join(str(p) for p in found[0]) or "(top level)"
        raise ProblemError(f"schema violation at {where}: {found[1]}")


def parse_dict(data, cap=CLOSURE_CAP) -> Problem:
    """Validate a decoded JSON object and build the library objects."""
    _check_schema(data)
    if "invariants" in data and "horospherical" in data:
        raise ProblemError("give either invariants or horospherical, not both")

    brd = _parse_root_datum(data["root_datum"]) if "root_datum" in data else None
    action = inv = horo = hyps = coh = fan = t_inv = None
    for key, what in (("action", "an action"), ("invariants", "an invariants"),
                      ("horospherical", "a horospherical"), ("fan", "a fan")):
        if key in data and brd is None:
            raise ProblemError(f"{what} block needs a root_datum block")
    if "fan" in data and "invariants" not in data:
        raise ProblemError("a fan block needs an invariants block, whose "
                           "stated weight-lattice basis fixes the coordinates")
    if "action" in data:
        action = _parse_action(data["action"], brd, cap=cap)
    if "invariants" in data:
        inv, t_inv = _parse_invariants(data["invariants"], brd)
    if "horospherical" in data:
        horo = _parse_horospherical(data["horospherical"], brd)
    # one base field per problem: as stated in either block, else the default
    hyp_field = data.get("hypotheses", {}).get("base_field")
    coh_field = data.get("cohomology", {}).get("base_field")
    if hyp_field and coh_field and hyp_field != coh_field:
        raise ProblemError(
            f"cohomology base_field {coh_field!r} contradicts the "
            f"hypotheses base_field {hyp_field!r}")
    base_field = hyp_field or coh_field or HypothesisSet.base_field
    if "hypotheses" in data:
        # the schema admits only HypothesisSet's fields, and only valid values
        hyps = HypothesisSet(**{**data["hypotheses"], "base_field": base_field})
    if "cohomology" in data:
        coh = _parse_cohomology(data["cohomology"])
    if "fan" in data:
        fan = _parse_fan(data["fan"], t_inv, len(brd.simple_roots))
    return Problem(brd=brd, action=action, invariants=inv, horospherical=horo,
                   hypotheses=hyps, cohomology=coh, base_field=base_field, fan=fan)


def parse_text(text: str, cap=CLOSURE_CAP) -> Problem:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as e:
        raise ProblemError(
            f"invalid JSON at line {e.lineno}, column {e.colno}: {e.msg}") from None
    if not isinstance(data, dict):
        raise ProblemError("a problem file must contain a JSON object")
    return parse_dict(data, cap=cap)


class file_errors:
    """`with file_errors(path):` names the file, a str or an os.PathLike, by
    os.fspath in an error from inside: a file it cannot read, a cap hit,
    which keeps its type, and any other ValueError, as a ProblemError."""

    def __init__(self, path):
        self.label = os.fspath(path)

    def __enter__(self):
        pass

    def __exit__(self, typ, e, tb):
        if isinstance(e, OSError):
            raise ProblemError(f"cannot read {self.label}: {e.strerror}") from None
        if isinstance(e, CapExceeded):
            raise type(e)(f"{self.label}: {e}") from None
        if isinstance(e, ValueError):
            raise ProblemError(f"{self.label}: {e}") from None


def parse_file(path, cap=CLOSURE_CAP) -> Problem:
    """Parse the file at a path, a str or an os.PathLike; errors name it as
    `file_errors` does."""
    with file_errors(path):
        return parse_text(Path(path).read_text(encoding="utf-8"), cap=cap)

