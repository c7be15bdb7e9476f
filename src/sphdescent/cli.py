"""Command-line surface: verdicts, invariance and fan checks, Weyl queries.

Exit codes: 0 for a positive or conditionally positive result, 1 for a
negative result, 2 for an inconclusive one, 64 for unreadable input or a
command line that argparse rejects.  All numbers are printed exactly
(integers or p/q fractions).  The only environment variable honored is
SPHDESCENT_CAP, which bounds group closure, orbit and face enumeration
sizes; it never changes a verdict, only whether big searches are attempted.
"""
import argparse
import json
import os
import re
import sys
from functools import cache
from importlib import resources
from pathlib import Path

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
from .intlinalg import _exact
from .invariants import validate_horospherical
from .problem import Problem, ProblemError, _num_out, file_errors, parse_text
from .rootdata import CapExceeded, build_root_datum
from .weyl import are_weyl_conjugate, root_subset, weyl_orbit

EX_OK, EX_NEGATIVE, EX_INCONCLUSIVE, EX_USAGE = 0, 1, 2, 64

_VERDICT_EXIT = {FORM_EXISTS: EX_OK, EXISTS_IFF: EX_OK,
                 NO_FORM: EX_NEGATIVE, INCONCLUSIVE: EX_INCONCLUSIVE}


def _fmt_vec(v) -> str:
    return ",".join(str(_num_out(x)) for x in v)


def _parse_vector(text: str):
    try:
        return tuple(map(_exact, text.split(","))) if text.strip() else ()
    except (ValueError, ZeroDivisionError):
        raise ProblemError(f"cannot read {text!r} as a comma-separated "
                           "vector of exact rationals") from None


def _parse_vector_set(text: str):
    return [_parse_vector(tok) for tok in text.split(";") if tok.strip()]


def _trace_lines(entries) -> list:
    width = max((len(e.check) for e in entries), default=0)
    return [f"  [{'ok  ' if e.ok else 'FAIL'}] {e.check:<{width}}  {e.detail}"
            for e in entries]


def _trace_json(entries) -> list:
    return [{"check": e.check, "ok": e.ok, "detail": e.detail} for e in entries]


# -- corpus ----------------------------------------------------------------------

@cache  # the package's location does not move within a process
def corpus_root():
    return resources.files("sphdescent") / "corpus"


def corpus_names() -> list:
    return sorted(p.name for p in corpus_root().iterdir()
                  if p.name.endswith(".json"))


def _resolve_paths(args) -> list:
    """(name in errors, file) for each input file of a file-taking command,
    honoring --corpus: a corpus entry is named by its file name, any other
    file by its path as given."""
    if args.corpus:
        if args.file:
            name = args.file if args.file.endswith(".json") else args.file + ".json"
            entry = corpus_root() / name
            if not entry.is_file():
                raise ProblemError(
                    f"no corpus file named {name!r}; available: "
                    + ", ".join(corpus_names()))
            return [(name, entry)]
        return [(name, corpus_root() / name) for name in corpus_names()]
    if not args.file:
        raise ProblemError("give a problem file, or --corpus to use the "
                           "shipped examples")
    return [(args.file, Path(args.file))]


def _caps(args) -> dict:
    """{"cap": n} from --cap, else from SPHDESCENT_CAP, else {}; n at least 1."""
    if args.cap is not None:
        cap, source, shown = args.cap, "--cap", args.cap
    else:
        env = os.environ.get("SPHDESCENT_CAP")
        if env is None:
            return {}
        source, shown = "SPHDESCENT_CAP", repr(env)
        try:
            cap = int(env)
        except ValueError:
            raise ProblemError(f"{source} must be an integer, got {shown}") \
                from None
    if cap < 1:
        raise ProblemError(f"{source} must be a positive integer, got {shown}")
    return {"cap": cap}


def _emit(*lines, end=False) -> None:
    """Print lines (and flush at the end).  Once the reader has closed the
    pipe, stdout goes to the null device, so the rest of the output and the
    flush at exit go nowhere and the command keeps its own exit code."""
    try:
        for line in lines:
            print(line)
        if end:
            sys.stdout.flush()
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


# -- the file commands -------------------------------------------------------

def _run_batch(args) -> int:
    """Run one file command over each of its input files.

    `args.report(label, problem, **caps)`, the label the file's base name,
    returns (exit code, JSON document, text lines); a skipped file counts as
    exit 0, and an error, in the parse or the report, names the file as
    `_resolve_paths` does.  Text mode prints each file's
    lines as it goes; --json prints one document, wrapped as {"results":
    [...]} when there are several files.  The exit code is the worst one.
    """
    caps = _caps(args)
    worst = EX_OK
    docs = []
    for named, path in _resolve_paths(args):
        with file_errors(named):
            problem = parse_text(path.read_text(encoding="utf-8"), **caps)
            code, doc, lines = args.report(path.name, problem, **caps)
        docs.append(doc)
        worst = max(worst, code)
        if not args.json:
            _emit(*lines)
    if args.json:
        _emit(json.dumps(docs[0] if len(docs) == 1 else {"results": docs},
                         indent=2))
    _emit(end=True)
    return worst


def _skipped(label: str, reason: str):
    return EX_OK, {"file": label, "skipped": reason}, [f"{label}: skipped ({reason})"]


def _verdict_report(label: str, problem: Problem, **_caps):
    missing = [name for name, blk in (
        ("action", problem.action),
        ("invariants or horospherical", problem.invariance_input),
        ("hypotheses", problem.hypotheses)) if blk is None]
    if missing:
        return _skipped(label, "missing " + ", ".join(missing))
    v = verdict(problem.brd, problem.action, problem.invariance_input,
                problem.hypotheses, problem.cohomology)
    doc = {"file": label, "status": v.status, "theorem_applied": v.theorem_applied,
           "missing_hypotheses": list(v.missing),
           "obstruction": None if v.obstruction is None else
           {"status": v.obstruction.status, "reason": v.obstruction.reason},
           "trace": _trace_json(v.trace)}
    headline = v.status
    if v.theorem_applied:
        headline += f" ({v.theorem_applied})"
    if v.missing:
        headline += "; missing: " + ", ".join(v.missing)
    if v.obstruction is not None:
        headline += (f"; obstruction: {v.obstruction.status} "
                     f"({v.obstruction.reason})")
    return _VERDICT_EXIT[v.status], doc, [f"{label}: {headline}",
                                          *_trace_lines(v.trace)]


def _invariance_report(label: str, problem: Problem, **_caps):
    if problem.action is None or problem.invariance_input is None:
        return _skipped(label, "needs action and invariants blocks")
    ok, entries = invariance_entries(problem.action, problem.invariance_input)
    warnings = []
    if problem.horospherical is not None:
        warnings = validate_horospherical(problem.brd, problem.horospherical)
    doc = {"file": label, "preserved": ok, "warnings": warnings,
           "trace": _trace_json(entries)}
    lines = [f"{label}: {'preserved' if ok else 'not preserved'}",
             *_trace_lines(entries), *(f"  warning: {w}" for w in warnings)]
    return EX_OK if ok else EX_NEGATIVE, doc, lines


def _fan_report(label: str, problem: Problem, **caps):
    if problem.invariants is None:
        return _skipped(label, "needs an invariants block")
    r = wonderful_stability_report(problem.invariants, problem.action,
                                   problem.fan, **caps)
    doc = {"file": label, "valid": r.fan_valid, "problems": list(r.problems)}
    bits = [f"valid: {'yes' if r.fan_valid else 'no'}"]
    if r.problems:
        bits.append("problems: " + "; ".join(r.problems))
    if r.wonderful is not None:
        doc["wonderful"] = r.wonderful
        bits.append(f"wonderful: {'yes' if r.wonderful else 'no'}")
    if r.stable is not None:
        # rays of the fan cone a generator moves off the fan, in
        # canonical coordinates, as the fan problems report them
        rays = (None if r.violating_rays is None
                else [list(x) for x in r.violating_rays])
        doc.update(stable=r.stable, violating_generator=r.violating_generator,
                   violating_cone_rays=rays)
        bits.append(f"stable: {'yes' if r.stable else 'no'}")
        if r.violating_generator:
            bits.append(f"violated by generator '{r.violating_generator}'")
        if rays is not None:
            bits.append(f"moved cone rays: {rays}")
    code = EX_OK if r.fan_valid and r.stable is not False else EX_NEGATIVE
    return code, doc, [f"{label}: " + ", ".join(bits)]


def _cohomology_report(label: str, problem: Problem, **_caps):
    if problem.cohomology is None:
        return _skipped(label, "needs a cohomology block")
    base = problem.base_field
    quasi_split = (problem.hypotheses.form_is_quasi_split
                   if problem.hypotheses is not None else False)
    a = problem.cohomology.a_module
    doc = {"file": label, "base_field": base}
    h2 = None
    if a.is_finite and base == "p_adic":
        h2 = h2_local_vanishes(a)
        doc["h2_vanishes"] = h2
        doc["fixed_characters_order"] = a.fixed_characters.order()
    ov = obstruction_verdict(quasi_split, kappa=problem.cohomology.kappa,
                             a_module=a, base_field=base)
    doc["obstruction"] = {"status": ov.status, "reason": ov.reason}
    if h2 is True:
        headline = "H^2 vanishes (fixed characters trivial)"
    elif h2 is False:
        headline = (f"H^2 is nonzero (fixed characters have order "
                    f"{doc['fixed_characters_order']})")
    else:
        headline = (f"H^2 vanishing test not applicable (base field {base}, "
                    f"{'finite' if a.is_finite else 'positive-dimensional'} "
                    "characters)")
    if ov.vanishes:
        code = EX_OK
    elif h2 is False:
        code = EX_NEGATIVE
    else:
        code = EX_INCONCLUSIVE
    return code, doc, [f"{label}: {headline}",
                       f"  obstruction: {ov.status} ({ov.reason})"]


# -- weyl-orbit and conjugate -------------------------------------------------------------

def cmd_weyl_orbit(args) -> int:
    brd = build_root_datum(args.type, args.rank)
    v = _parse_vector(args.vector)
    if len(v) != brd.rank:
        raise ProblemError(f"vector must have length {brd.rank}")
    orbit = sorted(weyl_orbit(brd, v, **_caps(args)))
    if args.json:
        _emit(json.dumps({"orbit_size": len(orbit),
                          "orbit": [[str(_num_out(x)) for x in u] for u in orbit]},
                         indent=2), end=True)
    else:
        _emit(f"orbit size: {len(orbit)}", *(f"  {_fmt_vec(u)}" for u in orbit),
              end=True)
    return EX_OK


def cmd_conjugate(args) -> int:
    brd = build_root_datum(args.type, args.rank)
    a = root_subset(brd, _parse_vector_set(args.set_a))
    b = root_subset(brd, _parse_vector_set(args.set_b))
    w = are_weyl_conjugate(brd, a, b, **_caps(args))
    if args.json:
        _emit(json.dumps({"conjugate": w is not None,
                          "witness_word": None if w is None else
                          [i + 1 for i in w.word]}, indent=2), end=True)
    elif w is None:
        _emit("not conjugate", end=True)
    else:
        word = " ".join(f"s{i + 1}" for i in w.word) or "identity"
        _emit(f"conjugate via: {word}", end=True)
    return EX_OK if w is not None else EX_NEGATIVE


# -- entry point -----------------------------------------------------------------------------

def _add_file_command(sub, name, report, help_text):
    p = sub.add_parser(name, help=help_text)
    p.add_argument("file", nargs="?", help="problem file (JSON)")
    p.add_argument("--corpus", action="store_true",
                   help="read from the shipped corpus: a named entry, or all "
                        "applicable entries when no name is given")
    p.add_argument("--json", action="store_true",
                   help="emit one machine-readable JSON document")
    p.add_argument("--cap", type=int, default=None,
                   help="override enumeration caps (closure, orbit and "
                        "face counts)")
    p.set_defaults(func=_run_batch, report=report)


def _add_query_command(sub, name, func, help_text):
    p = sub.add_parser(name, help=help_text)
    p.add_argument("type", help="root system letter (A..G) or 'torus'")
    p.add_argument("rank", type=int)
    p.add_argument("--json", action="store_true")
    p.add_argument("--cap", type=int, default=None)
    p.set_defaults(func=func)
    return p


class _Parser(argparse.ArgumentParser):
    """argparse with usage errors on exit 64; exit 2 means inconclusive.

    A token that starts with "-" and a digit, such as the vector "-1,2,-1",
    stays positional: no option of this CLI looks like that.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"-\d")

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EX_USAGE, f"{self.prog}: error: {message}\n")


@cache
def build_parser() -> argparse.ArgumentParser:
    """Built once per process: parse_args returns a fresh Namespace each time."""
    parser = _Parser(
        prog="sphdescent",
        description="Decide existence of equivariant forms of spherical "
                    "homogeneous spaces from exact combinatorial data.")
    sub = parser.add_subparsers(dest="command", required=True)
    _add_file_command(sub, "verdict", _verdict_report,
                      "run the full decision procedure on a problem file")
    _add_file_command(sub, "check-invariants", _invariance_report,
                      "check invariance of the combinatorial data only")
    _add_file_command(sub, "check-fan", _fan_report,
                      "validate a colored fan (or the face fan of the "
                      "valuation cone) and its stability")
    _add_file_command(sub, "cohomology", _cohomology_report,
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
    except (ValueError, CapExceeded) as e:
        print(f"error: {e}", file=sys.stderr)
        return EX_USAGE


if __name__ == "__main__":
    sys.exit(main())
