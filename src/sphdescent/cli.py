"""Command-line surface: verdicts, invariance and fan checks, Weyl queries.

Exit codes: 0 for a positive or conditionally positive result, 1 for a
negative result, 2 for an inconclusive one, 64 for unreadable input.  All
numbers are printed exactly (integers or p/q fractions).  The only
environment variable honored is SPHDESCENT_CAP, which bounds group closure
and orbit enumeration sizes; it never changes a verdict, only whether big
searches are attempted.
"""
import argparse
import json
import os
import sys
from fractions import Fraction
from importlib import resources

from .checker import (
    EXISTS_IFF,
    FORM_EXISTS,
    INCONCLUSIVE,
    NO_FORM,
    invariance_entries,
    verdict,
    wonderful_stability_report,
)
from .cohomology import h2_local_vanishes, obstruction_verdict
from .cones import (
    NotStrictlyConvex,
    is_gamma_stable,
    is_valid_fan,
    is_wonderful,
    wonderful_fan,
)
from .invariants import validate_horospherical
from .problem import Problem, ProblemError, parse_file, parse_text
from .rootdata import CapExceeded, build_root_datum
from .staraction import ClosureCapExceeded
from .weyl import are_weyl_conjugate, root_subset, weyl_orbit

EX_OK, EX_NEGATIVE, EX_INCONCLUSIVE, EX_USAGE = 0, 1, 2, 64

_VERDICT_EXIT = {FORM_EXISTS: EX_OK, EXISTS_IFF: EX_OK,
                 NO_FORM: EX_NEGATIVE, INCONCLUSIVE: EX_INCONCLUSIVE}


def _fmt(x) -> str:
    f = Fraction(x)
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


def _fmt_vec(v) -> str:
    return ",".join(_fmt(x) for x in v)


def _parse_vector(text: str):
    try:
        parts = [Fraction(tok.strip()) for tok in text.split(",")]
    except (ValueError, ZeroDivisionError):
        raise ProblemError(f"cannot read {text!r} as a comma-separated "
                           "vector of exact rationals") from None
    return tuple(int(f) if f.denominator == 1 else f for f in parts)


def _parse_vector_set(text: str):
    return [_parse_vector(tok) for tok in text.split(";") if tok.strip()]


def _print_trace(entries) -> None:
    if not entries:
        return
    width = max(len(e.check) for e in entries)
    for e in entries:
        mark = "ok  " if e.ok else "FAIL"
        print(f"  [{mark}] {e.check:<{width}}  {e.detail}")


def _trace_json(entries) -> list:
    return [{"check": e.check, "ok": e.ok, "detail": e.detail} for e in entries]


# -- corpus ----------------------------------------------------------------------

def corpus_root():
    return resources.files("sphdescent") / "corpus"


def corpus_names() -> list:
    return sorted(p.name for p in corpus_root().iterdir()
                  if p.name.endswith(".json"))


def _resolve_paths(args) -> list:
    """Input files for a file-taking command, honoring --corpus."""
    if args.corpus:
        if args.file:
            name = args.file if args.file.endswith(".json") else args.file + ".json"
            entry = corpus_root() / name
            if not entry.is_file():
                raise ProblemError(
                    f"no corpus file named {name!r}; available: "
                    + ", ".join(corpus_names()))
            return [entry]
        return [corpus_root() / name for name in corpus_names()]
    if not args.file:
        raise ProblemError("give a problem file, or --corpus to use the "
                           "shipped examples")
    return [args.file]


def _load(path, cap):
    if hasattr(path, "read_text"):  # packaged corpus entry
        try:
            return parse_text(path.read_text(encoding="utf-8"), cap=cap)
        except ProblemError as e:
            raise ProblemError(f"{path.name}: {e}") from None
    return parse_file(path, cap=cap)


def _label(path) -> str:
    return path.name if hasattr(path, "name") and not isinstance(path, str) \
        else os.path.basename(str(path))


def _cap_from(args) -> int | None:
    if args.cap is not None:
        return args.cap
    env = os.environ.get("SPHDESCENT_CAP")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise ProblemError(f"SPHDESCENT_CAP must be an integer, got {env!r}") \
                from None
    return None


# -- verdict ---------------------------------------------------------------------

def _verdict_report(label: str, problem: Problem):
    missing = [name for name, blk in (
        ("action", problem.action),
        ("invariants or horospherical", problem.invariance_input),
        ("hypotheses", problem.hypotheses)) if blk is None]
    if missing:
        return None, {"file": label, "skipped": "missing " + ", ".join(missing)}
    v = verdict(problem.brd, problem.action, problem.invariance_input,
                problem.hypotheses, problem.cohomology)
    doc = {"file": label, "status": v.status, "theorem_applied": v.theorem_applied,
           "missing_hypotheses": list(v.missing),
           "obstruction": None if v.obstruction is None else
           {"status": v.obstruction.status, "reason": v.obstruction.reason},
           "trace": _trace_json(v.trace)}
    return v, doc


def cmd_verdict(args) -> int:
    cap = _cap_from(args)
    worst = EX_OK
    docs = []
    for path in _resolve_paths(args):
        problem = _load(path, cap)
        v, doc = _verdict_report(_label(path), problem)
        docs.append(doc)
        if v is None:
            if not args.json:
                print(f"{doc['file']}: skipped ({doc['skipped']})")
            continue
        worst = max(worst, _VERDICT_EXIT[v.status])
        if not args.json:
            headline = v.status
            if v.theorem_applied:
                headline += f" ({v.theorem_applied})"
            if v.missing:
                headline += "; missing: " + ", ".join(v.missing)
            if v.obstruction is not None:
                headline += (f"; obstruction: {v.obstruction.status} "
                             f"({v.obstruction.reason})")
            print(f"{doc['file']}: {headline}")
            _print_trace(v.trace)
    if args.json:
        print(json.dumps(docs[0] if len(docs) == 1 else {"results": docs},
                         indent=2))
    return worst


# -- check-invariants --------------------------------------------------------------

def cmd_check_invariants(args) -> int:
    cap = _cap_from(args)
    worst = EX_OK
    docs = []
    for path in _resolve_paths(args):
        problem = _load(path, cap)
        label = _label(path)
        if problem.action is None or problem.invariance_input is None:
            docs.append({"file": label,
                         "skipped": "needs action and invariants blocks"})
            if not args.json:
                print(f"{label}: skipped (needs action and invariants blocks)")
            continue
        ok, entries = invariance_entries(problem.action, problem.invariance_input)
        warnings = []
        if problem.horospherical is not None:
            warnings = validate_horospherical(problem.brd, problem.horospherical)
        docs.append({"file": label, "preserved": ok, "warnings": warnings,
                     "trace": _trace_json(entries)})
        worst = max(worst, EX_OK if ok else EX_NEGATIVE)
        if not args.json:
            print(f"{label}: {'preserved' if ok else 'not preserved'}")
            _print_trace(entries)
            for w in warnings:
                print(f"  warning: {w}")
    if args.json:
        print(json.dumps(docs[0] if len(docs) == 1 else {"results": docs},
                         indent=2))
    return worst


# -- check-fan -----------------------------------------------------------------------

def _fan_report(label: str, problem: Problem):
    if problem.invariants is None:
        return None, {"file": label, "skipped": "needs an invariants block"}
    vcone = problem.invariants.valuation_cone
    doc = {"file": label}
    if problem.fan is not None:
        fan = problem.fan
        fv = is_valid_fan(fan, vcone)
        doc["valid"] = fv.ok
        doc["problems"] = list(fv.problems)
        doc["wonderful"] = is_wonderful(fan, vcone)
        ok = fv.ok
    else:
        try:
            report = wonderful_stability_report(problem.invariants,
                                                problem.action) \
                if problem.action is not None else None
        except NotStrictlyConvex as e:
            return False, {"file": label, "valid": False, "problems": [str(e)]}
        if report is None:
            try:
                fan = wonderful_fan(vcone)
            except NotStrictlyConvex as e:
                return False, {"file": label, "valid": False,
                               "problems": [str(e)]}
            fv = is_valid_fan(fan, vcone)
            doc["valid"] = fv.ok
            doc["problems"] = list(fv.problems)
            doc["wonderful"] = is_wonderful(fan, vcone)
            return fv.ok, doc
        doc["valid"] = report.fan_valid
        doc["problems"] = list(report.problems)
        doc["wonderful"] = report.wonderful
        doc["stable"] = report.stable
        doc["violating_generator"] = report.violating_generator
        doc["violating_cone_rays"] = _cone_rays(report.violating_cone)
        return report.fan_valid and report.stable, doc
    if problem.action is not None:
        sv = is_gamma_stable(problem.fan, problem.action,
                             problem.invariants.weight_lattice)
        doc["stable"] = sv.stable
        doc["violating_generator"] = sv.violating_generator
        doc["violating_cone_rays"] = _cone_rays(sv.violating_cone)
        ok = ok and sv.stable
    return ok, doc


def _cone_rays(cc):
    # rays of the fan cone a generator moves off the fan, in canonical
    # coordinates, as the fan problems report them
    return None if cc is None else [list(r) for r in cc.cone.rays]


def cmd_check_fan(args) -> int:
    cap = _cap_from(args)
    worst = EX_OK
    docs = []
    for path in _resolve_paths(args):
        problem = _load(path, cap)
        ok, doc = _fan_report(_label(path), problem)
        docs.append(doc)
        if ok is None:
            if not args.json:
                print(f"{doc['file']}: skipped ({doc['skipped']})")
            continue
        worst = max(worst, EX_OK if ok else EX_NEGATIVE)
        if not args.json:
            bits = [f"valid: {'yes' if doc['valid'] else 'no'}"]
            if doc.get("problems"):
                bits.append("problems: " + "; ".join(doc["problems"]))
            if "wonderful" in doc:
                bits.append(f"wonderful: {'yes' if doc['wonderful'] else 'no'}")
            if "stable" in doc:
                bits.append(f"stable: {'yes' if doc['stable'] else 'no'}")
                if doc.get("violating_generator"):
                    bits.append(f"violated by generator "
                                f"'{doc['violating_generator']}'")
                    bits.append(f"moved cone rays: {doc['violating_cone_rays']}")
            print(f"{doc['file']}: " + ", ".join(bits))
    if args.json:
        print(json.dumps(docs[0] if len(docs) == 1 else {"results": docs},
                         indent=2))
    return worst


# -- cohomology ------------------------------------------------------------------------

def cmd_cohomology(args) -> int:
    cap = _cap_from(args)
    worst = EX_OK
    docs = []
    for path in _resolve_paths(args):
        problem = _load(path, cap)
        label = _label(path)
        if problem.cohomology is None:
            docs.append({"file": label, "skipped": "needs a cohomology block"})
            if not args.json:
                print(f"{label}: skipped (needs a cohomology block)")
            continue
        base = problem.cohomology_base_field
        if base is None and problem.hypotheses is not None:
            base = problem.hypotheses.base_field
        if base is None:
            base = "large_other"
        quasi_split = (problem.hypotheses.form_is_quasi_split
                       if problem.hypotheses is not None else False)
        a = problem.cohomology.a_module
        doc = {"file": label, "base_field": base}
        h2 = None
        if a.is_finite and base == "p_adic":
            h2 = h2_local_vanishes(a)
            fixed = a.fixed_characters()
            doc["h2_vanishes"] = h2
            doc["fixed_characters_order"] = fixed.order()
        ov = obstruction_verdict(quasi_split, kappa=problem.cohomology.kappa,
                                 a_module=a, base_field=base)
        doc["obstruction"] = {"status": ov.status, "reason": ov.reason}
        docs.append(doc)
        if ov.vanishes or h2 is True:
            code = EX_OK
        elif h2 is False:
            code = EX_NEGATIVE
        else:
            code = EX_INCONCLUSIVE
        worst = max(worst, code)
        if not args.json:
            if h2 is True:
                print(f"{label}: H^2 vanishes (fixed characters trivial)")
            elif h2 is False:
                print(f"{label}: H^2 is nonzero (fixed characters have order "
                      f"{doc['fixed_characters_order']})")
            else:
                print(f"{label}: H^2 vanishing test not applicable "
                      f"(base field {base}, "
                      f"{'finite' if a.is_finite else 'positive-dimensional'} "
                      "characters)")
            print(f"  obstruction: {ov.status} ({ov.reason})")
    if args.json:
        print(json.dumps(docs[0] if len(docs) == 1 else {"results": docs},
                         indent=2))
    return worst


# -- weyl-orbit and conjugate -------------------------------------------------------------

def cmd_weyl_orbit(args) -> int:
    brd = build_root_datum(args.type, args.rank)
    v = _parse_vector(args.vector)
    if len(v) != brd.rank:
        raise ProblemError(f"vector must have length {brd.rank}")
    kwargs = {}
    cap = _cap_from(args)
    if cap is not None:
        kwargs["cap"] = cap
    orbit = sorted(weyl_orbit(brd, v, **kwargs))
    if args.json:
        print(json.dumps({"orbit_size": len(orbit),
                          "orbit": [[_fmt(x) for x in u] for u in orbit]},
                         indent=2))
    else:
        print(f"orbit size: {len(orbit)}")
        for u in orbit:
            print(" ", _fmt_vec(u))
    return EX_OK


def cmd_conjugate(args) -> int:
    brd = build_root_datum(args.type, args.rank)
    a = root_subset(brd, _parse_vector_set(args.set_a))
    b = root_subset(brd, _parse_vector_set(args.set_b))
    kwargs = {}
    cap = _cap_from(args)
    if cap is not None:
        kwargs["cap"] = cap
    w = are_weyl_conjugate(brd, a, b, **kwargs)
    if args.json:
        print(json.dumps({"conjugate": w is not None,
                          "witness_word": None if w is None else
                          [i + 1 for i in w.word]}, indent=2))
    elif w is None:
        print("not conjugate")
    else:
        word = " ".join(f"s{i + 1}" for i in w.word) or "identity"
        print(f"conjugate via: {word}")
    return EX_OK if w is not None else EX_NEGATIVE


# -- entry point -----------------------------------------------------------------------------

def _add_file_command(sub, name, func, help_text):
    p = sub.add_parser(name, help=help_text)
    p.add_argument("file", nargs="?", help="problem file (JSON)")
    p.add_argument("--corpus", action="store_true",
                   help="read from the shipped corpus: a named entry, or all "
                        "applicable entries when no name is given")
    p.add_argument("--json", action="store_true",
                   help="emit one machine-readable JSON document")
    p.add_argument("--cap", type=int, default=None,
                   help="override enumeration caps (closure and orbit sizes)")
    p.set_defaults(func=func)
    return p


def _add_query_command(sub, name, func, help_text):
    p = sub.add_parser(name, help=help_text)
    p.add_argument("type", help="root system letter (A..G) or 'torus'")
    p.add_argument("rank", type=int)
    p.add_argument("--json", action="store_true")
    p.add_argument("--cap", type=int, default=None)
    p.set_defaults(func=func)
    return p


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sphdescent",
        description="Decide existence of equivariant forms of spherical "
                    "homogeneous spaces from exact combinatorial data.")
    sub = parser.add_subparsers(dest="command", required=True)
    _add_file_command(sub, "verdict", cmd_verdict,
                      "run the full decision procedure on a problem file")
    _add_file_command(sub, "check-invariants", cmd_check_invariants,
                      "check invariance of the combinatorial data only")
    _add_file_command(sub, "check-fan", cmd_check_fan,
                      "validate a colored fan (or the face fan of the "
                      "valuation cone) and its stability")
    _add_file_command(sub, "cohomology", cmd_cohomology,
                      "run the character-level cohomology computations")
    orbit = _add_query_command(sub, "weyl-orbit", cmd_weyl_orbit,
                               "enumerate the Weyl orbit of a vector")
    orbit.add_argument("vector", help="comma-separated exact coordinates")
    conj = _add_query_command(sub, "conjugate", cmd_conjugate,
                              "find a Weyl element mapping one root subset "
                              "onto another")
    conj.add_argument("set_a", help="semicolon-separated root vectors")
    conj.add_argument("set_b", help="semicolon-separated root vectors")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, CapExceeded, ClosureCapExceeded) as e:
        print(f"error: {e}", file=sys.stderr)
        return EX_USAGE


if __name__ == "__main__":
    sys.exit(main())
