"""The three workloads: how each builds its cases and checks every answer.

A case is one decision a user asks for.  `run()` makes the program calls and
is the only part that is timed; `check(answer)` compares the answer with the
benchmark's own oracle and returns None or what was wrong.  Program
functions are always looked up on their module at call time, so the span
tracer's patched bindings are the ones called.

Each workload yields its cases in rounds.  A round holds the workload's
whole mix once, in a balanced order (every prefix of a round has close to
the round's share of cheap and costly cases), so a time-bounded run sees the
same mix whatever the seed.
"""
import contextlib
import io
import json
import os
import random
from fractions import Fraction
from pathlib import Path

from sphdescent import (checker, cli, cones, intlinalg, problem, rootdata,
                        staraction, weyl)

from . import corpus, fans, roots

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".sphbench"
CASE_LIMIT_S = 20.0  # wall-time limit of one case


def child_env():
    env = {k: v for k, v in os.environ.items() if k != "SPHDESCENT_CAP"}
    env["PYTHONPATH"] = str(SRC)
    return env


def balanced_order(items, cls, rng):
    """Spread each class evenly over the round, in a seeded order.

    The j-th of the c items of one class gets the position key (j + u) / c,
    with u uniform in [0, 1); sorting by key interleaves the classes."""
    groups = {}
    for item in items:
        groups.setdefault(cls(item), []).append(item)
    keyed = []
    for group in groups.values():
        rng.shuffle(group)
        for j, item in enumerate(group):
            keyed.append(((j + rng.random()) / len(group), item))
    keyed.sort(key=lambda t: t[0])
    return [item for _, item in keyed]


# -- corpus_files and cli_cold ------------------------------------------------

REPRESENTATIONS = 6  # re-presented copies of each corpus file


class CorpusInputs:
    """The 12 shipped files plus seeded re-presentations written to disk."""

    def __init__(self, seed, directory):
        rng = random.Random(f"corpus-inputs-{seed}")
        corpus_dir = SRC / "sphdescent" / "corpus"
        directory.mkdir(parents=True, exist_ok=True)
        self.paths = {}
        for name in corpus.CORPUS_FILES:
            data = json.loads((corpus_dir / name).read_text("utf-8"))
            stem = name[:-len(".json")]
            paths = []
            for i in range(REPRESENTATIONS):
                path = directory / f"{stem}.r{i}.json"
                path.write_text(json.dumps(corpus.restate(data, rng)),
                                encoding="utf-8")
                paths.append(path)
            self.paths[name] = paths

    def argv(self, rng, name, cmd):
        """Original via --corpus (one time in four), else a re-presentation."""
        variant = rng.randrange(REPRESENTATIONS + 2)
        if variant >= REPRESENTATIONS:
            return [cmd, "--corpus", name[:-len(".json")], "--json"]
        return [cmd, str(self.paths[name][variant]), "--json"]


class CliInProcess:
    def __init__(self, name, cmd, argv):
        self.name, self.cmd, self.argv = name, cmd, argv

    def run(self):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(io.StringIO()):
            try:
                code = cli.main(self.argv)
            except SystemExit as e:  # argparse rejected the command line
                code = e.code
        return code, out.getvalue()

    def check(self, answer):
        code, stdout = answer
        if code == 64:
            return "exit 64"
        return corpus.check_answer(self.name, self.cmd, code, stdout)


# Rounds by which `check-fan` runs on each file with a fan side.  Once a
# round, the three costliest check-fan files are 3 of 48 cases, so the p90 of
# case_tail_ms fell in the gap below them and jumped between about 89 and
# 113 ms from run to run; four times a round, they are 12 of 63 cases and the
# p90 lies inside their cluster.  It also makes case_tail_ms on this
# workload a measure of the cones path, as the layer table intends.
FAN_REPEATS = 4


def corpus_rounds(seed, inputs):
    rng = random.Random(f"timed-{seed}")
    while True:
        pairs = [(name, cmd) for name in corpus.CORPUS_FILES
                 for cmd in corpus.SUBCOMMANDS]
        pairs += [(name, "check-fan") for name in corpus.FAN_FILES
                  for _ in range(FAN_REPEATS - 1)]
        rng.shuffle(pairs)
        yield [CliInProcess(name, cmd, inputs.argv(rng, name, cmd))
               for name, cmd in pairs]


# -- random_fans ------------------------------------------------------------------

# Per round of 61 cases: the median case is the middle of the dimension-3
# cluster (dims 2 and 3 are 48 of 61), the p90 lies near the middle of the
# dimension-4 cluster, and dimension 5 (0.5-8 s a case) stays at about a
# third of the round's time.  With 15 dimension-3 cases a round the median
# rested on about 110 cases a run and spread 0.14 over ten seeds.
# Dimension 6 is left out: one case takes about 521 s until the
# double-description engine (ROADMAP item 2) lands.
FAN_MIX = {2: 12, 3: 36, 4: 12, 5: 1}
FAN_KINDS = ("random", "identity", "symmetric")


class FanCase:
    def __init__(self, dim, gens, m, kind):
        self.dim, self.gens, self.m, self.kind = dim, gens, m, kind

    def run(self):
        cone = cones.cone_from_generators(self.dim, self.gens)
        fan = cones.wonderful_fan(cone)
        valid = cones.is_valid_fan(fan, cone).ok
        wonderful = cones.is_wonderful(fan, cone)
        action = staraction.build_action(
            rootdata.torus(self.dim), [intlinalg.IntMatrix.from_rows(self.m)],
            names=("g",))
        sv = cones.is_gamma_stable(fan, action,
                                   intlinalg.Lattice.full(self.dim))
        return cone.rays, valid, wonderful, sv.stable, sv.violating_generator

    def check(self, answer):
        rays, valid, wonderful, stable, violator = answer
        if not (valid and wonderful):
            return f"face fan valid={valid} wonderful={wonderful}"
        if not rays or not fans.rays_are_generators(rays, self.gens):
            return f"extreme rays {rays} are not generator directions"
        fixed = fans.cone_is_fixed(self.gens, self.m)
        if stable != fixed or (violator is None) != fixed:
            return f"stable={stable} violator={violator}, oracle says {fixed}"
        return None


def fan_rounds(seed):
    rng = random.Random(f"timed-{seed}")
    counters = dict.fromkeys(FAN_MIX, 0)
    while True:
        cases = []
        for dim, count in FAN_MIX.items():
            for _ in range(count):
                c = counters[dim]
                counters[dim] += 1
                kind = FAN_KINDS[c % len(FAN_KINDS)]
                gens, m = fans.draw_case(rng, dim, dim + c % 4, kind)
                cases.append(FanCase(dim, gens, m, kind))
        yield balanced_order(cases, lambda case: case.dim, rng)


def fan_warmup(rng):
    return [FanCase(dim, *fans.draw_case(rng, dim, dim + 1, kind), kind)
            for dim in (2, 3) for kind in FAN_KINDS]


# -- root_systems ------------------------------------------------------------------

class HoroCase:
    def __init__(self, data, kind):
        self.data, self.kind = data, kind
        rd = data["root_datum"]
        self.cost = horo_cost(rd["type"], rd["rank"])

    def run(self):
        p = problem.parse_dict(self.data)
        v = checker.verdict(p.brd, p.action, p.horospherical, p.hypotheses,
                            p.cohomology)
        return v.status, v.theorem_applied, tuple((e.ok, e.detail)
                                                  for e in v.trace)

    _WANT = {"stable": ("form_exists", "horospherical-criterion", None),
             "moved_I": ("no_form", "combinatorial-invariance-necessity",
                         "moves the simple-root subset"),
             "moved_M": ("no_form", "combinatorial-invariance-necessity",
                         "moves the character group")}

    def check(self, answer):
        status, theorem, trace = answer
        want_status, want_theorem, reason = self._WANT[self.kind]
        if (status, theorem) != (want_status, want_theorem):
            return f"{status} ({theorem}), expected {want_status} " \
                   f"({want_theorem}) for a {self.kind} file"
        failed = [detail for ok, detail in trace if not ok]
        if reason is None and failed:
            return f"failed checks {failed} on a stable file"
        if reason is not None and not any(reason in d for d in failed):
            return f"trace {failed} does not say '{reason}'"
        return None


class OrbitCase:
    def __init__(self, letter, n, v):
        self.letter, self.n, self.v = letter, n, v
        self.cost = (0.25 if all(v) else 0.06) * roots.weyl_order(letter, n)

    def run(self):
        brd = rootdata.build_root_datum(self.letter, self.n)
        return weyl.weyl_orbit(brd, self.v)

    def check(self, orbit):
        """A set closed under every simple reflection with exactly one
        dominant member, the start weight, is that weight's orbit; its size
        divides |W|, and equals |W| when the weight is regular."""
        order = roots.weyl_order(self.letter, self.n)
        start = tuple(Fraction(x) for x in self.v)
        dominant = [v for v in orbit if all(x >= 0 for x in v)]
        if dominant != [start]:
            return f"dominant members {dominant}, expected only {start}"
        if order % len(orbit):
            return f"orbit size {len(orbit)} does not divide |W| = {order}"
        if all(self.v) and len(orbit) != order:
            return f"regular orbit has {len(orbit)} elements, |W| = {order}"
        simple = roots.simple_roots(self.letter, self.n)
        for v in orbit:
            for i, alpha in enumerate(simple):
                if roots.reflect(v, i, alpha) not in orbit:
                    return f"orbit not closed under s{i + 1}"
        return None


class ConjugacyCase:
    def __init__(self, letter, n, conjugate, a, b):
        self.letter, self.n, self.a, self.b = letter, n, a, b
        self.conjugate = conjugate
        self.cost = 0.25 * roots.weyl_order(letter, n)

    def run(self):
        brd = rootdata.build_root_datum(self.letter, self.n)
        w = weyl.are_weyl_conjugate(brd, weyl.root_subset(brd, self.a),
                                    weyl.root_subset(brd, self.b))
        return None if w is None else (w.word, w.matrix.entries)

    def check(self, answer):
        if not self.conjugate:
            return "found a witness for a long/short pair" if answer else None
        if answer is None:
            return "no witness for a conjugate pair"
        word, matrix = answer
        target = frozenset(self.b)
        if frozenset(roots.apply_word(self.letter, self.n, word, r)
                     for r in self.a) != target:
            return f"witness word {word} does not map a onto b"
        if frozenset(tuple(sum(x * y for x, y in zip(row, r)) for row in matrix)
                     for r in self.a) != target:
            return "witness matrix does not map a onto b"
        return None


def horo_cost(letter, n):
    """Rough milliseconds to parse a file over this datum; orders a round."""
    return 60 + 0.05 * len(roots.roots_by_length(letter, n)) * n * n


def root_rounds(seed):
    rng = random.Random(f"timed-{seed}")
    while True:
        cases = [HoroCase(*roots.horospherical_case(rng, t, n, iso))
                 for t, n in roots.TYPES
                 for iso in ("simply_connected", "adjoint")]
        for t, n in roots.weyl_types():
            cases.append(OrbitCase(t, n, roots.dominant_weight(rng, n, True)))
            cases.append(OrbitCase(t, n, roots.dominant_weight(rng, n, False)))
            for conjugate in (True, False) if t in "BCFG" else (True,):
                cases.append(ConjugacyCase(
                    t, n, conjugate,
                    *roots.conjugacy_inputs(rng, t, n, conjugate)))
        ranked = sorted(cases, key=lambda c: c.cost)
        stratum = {id(c): 8 * i // len(ranked) for i, c in enumerate(ranked)}
        yield balanced_order(cases, lambda c: stratum[id(c)], rng)


def root_warmup(rng):
    """Rank-1 and torus inputs only, so no timed root datum is built early."""
    cases = [HoroCase(*roots.horospherical_case(rng, "A", 1, iso))
             for iso in ("simply_connected", "adjoint")]
    cases.append(OrbitCase("A", 1, (1,)))
    cases.append(ConjugacyCase("A", 1, True, [(2,)], [(-2,)]))
    return cases


def build(workload, seed, warm_rng):
    """Generate a workload's inputs: (round generator, warm-up cases)."""
    if workload == "random_fans":
        return fan_rounds(seed), fan_warmup(warm_rng)
    if workload == "root_systems":
        return root_rounds(seed), root_warmup(warm_rng)
    inputs = CorpusInputs(seed, OUT / "inputs")
    pairs = [(n, c) for n in corpus.CORPUS_FILES for c in corpus.SUBCOMMANDS]
    # check-fan on every file with a fan side first, so the face cache starts
    # warm: re-presented files have the same canonical faces
    warm = [CliInProcess(n, "check-fan", [
        "check-fan", "--corpus", n[:-len(".json")], "--json"])
        for n in corpus.FAN_FILES]
    warm += [CliInProcess(n, c, inputs.argv(warm_rng, n, c))
             for n, c in warm_rng.sample(pairs, 3)]
    return corpus_rounds(seed, inputs), warm
