"""Span tracer for the traced run: wraps public functions of sphdescent.

Each wrapped call records one span (name, start_ns, end_ns, parent, case,
extra) in memory.  `extra` carries a count taken from the result where a
per-layer metric needs one (faces returned, Weyl elements, orbit vectors,
closure size, LP feasibility).  A wrapper replaces the function in the module
that defines it and in every sphdescent module that imported it by name, so
calls through either binding are seen.  Nothing here changes what a function
returns.
"""
import functools
import gzip
import importlib
import sys
import time

# (module, attribute, span name, extractor of `extra` from the result)
TARGETS = (
    ("problem", "parse_text", "problem.parse_text", None),
    ("problem", "parse_dict", "problem.parse_dict", None),
    ("problem", "parse_file", "problem.parse_file", None),
    ("rootdata", "build_root_datum", "rootdata.build_root_datum", None),
    ("rootdata", "weyl_group", "rootdata.weyl_group", len),
    ("weyl", "weyl_orbit", "weyl.weyl_orbit", len),
    ("weyl", "are_weyl_conjugate", "weyl.are_weyl_conjugate", None),
    ("staraction", "build_action", "staraction.build_action",
     lambda a: a.order),
    ("cones", "cone_from_generators", "cones.cone_from_generators", None),
    ("cones", "cone_from_inequalities", "cones.cone_from_inequalities", None),
    ("cones", "faces", "cones.faces", len),
    ("cones", "is_valid_fan", "cones.is_valid_fan", None),
    ("cones", "meet_relative_interiors", "cones.meet_relative_interiors",
     None),
    ("cones", "is_gamma_stable", "cones.is_gamma_stable", None),
    ("ratlp", "feasible", "ratlp.feasible", lambda x: int(x is not None)),
    ("intlinalg", "hnf", "intlinalg.hnf", None),
    ("intlinalg", "kernel_lattice", "intlinalg.kernel_lattice", None),
    ("intlinalg", "snf", "intlinalg.snf", None),
    ("invariants", "preserves_invariants", "invariants.preserves_invariants",
     None),
    ("checker", "invariance_entries", "checker.invariance_entries", None),
    ("checker", "verdict", "checker.verdict", None),
    ("checker", "wonderful_stability_report",
     "checker.wonderful_stability_report", None),
    ("cohomology", "obstruction_verdict", "cohomology.obstruction_verdict",
     None),
    ("cohomology", "h2_local_vanishes", "cohomology.h2_local_vanishes", None),
    ("cli", "main", "cli.main", None),
)

SCHEMA_SPAN = "problem.schema"  # jsonschema.validate, as called by problem


class Tracer:
    """In-memory span recorder; install() patches, uninstall() restores."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.case = -1
        self._patches = []

    def _wrap(self, name, fn, extract):
        spans, stack = self.spans, self.stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            extra = 0
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
                if extract is not None:
                    extra = extract(out)
                return out
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (name, t0, t1, parent, self.case, extra)
        return wrapper

    def install(self):
        import jsonschema

        for modname, *_ in TARGETS:
            importlib.import_module(f"sphdescent.{modname}")
        modules = [m for k, m in sys.modules.items()
                   if (k == "sphdescent" or k.startswith("sphdescent."))
                   and m is not None]
        for modname, attr, name, extract in TARGETS:
            original = getattr(sys.modules[f"sphdescent.{modname}"], attr)
            wrapped = self._wrap(name, original, extract)
            for mod in modules:
                if getattr(mod, attr, None) is original:
                    self._patches.append((mod, attr, original))
                    setattr(mod, attr, wrapped)
        original = jsonschema.validate
        self._patches.append((jsonschema, "validate", original))
        jsonschema.validate = self._wrap(SCHEMA_SPAN, original, None)

    def uninstall(self):
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches.clear()

    def dump(self, path):
        """Write the spans as gzip-compressed tab-separated lines."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("name\tstart_ns\tend_ns\tparent\tcase\textra\n")
            for span in self.spans:
                fh.write("\t".join(str(x) for x in span) + "\n")


def self_times(spans):
    """Per span name: (calls, total self ns, sum of extra)."""
    child_ns = [0] * len(spans)
    for name, t0, t1, parent, case, extra in spans:
        if parent >= 0:
            child_ns[parent] += t1 - t0
    out = {}
    for i, (name, t0, t1, parent, case, extra) in enumerate(spans):
        calls, self_ns, total_extra = out.get(name, (0, 0, 0))
        out[name] = (calls + 1, self_ns + (t1 - t0 - child_ns[i]),
                     total_extra + extra)
    return out
