#!/usr/bin/env python3
"""sphdescent benchmark: time to a verdict on three workloads.

    python3 sphbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 sphbench/run.py --workload W --seed N --seconds S --steady 10

The program is imported from src/ beside this directory.  One client runs
one case at a time, in process (a closed loop).  Every answer is checked
against the benchmark's own oracle.  The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  With --trace 0 the metrics are the
end-to-end ones; their timings are normalised to the machine's usual speed
by a reference kernel sampled between cases (see "machine speed" below), and
the raw wall times are printed above the result line.  With --trace 1 every
other case is traced, and the metrics
are the per-layer ones plus the tracing overhead.  --steady N runs N seeds in turn, then one held-out
seed, and prints each end-to-end metric's median and quartiles.
sphbench/WORKLOADS.md says what each workload measures and why.
"""
import argparse
import json
import os
import random
import resource
import signal
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from itertools import chain
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOADS = ("corpus_files", "random_fans", "root_systems")
TAIL_PERCENTILE = 90  # every workload runs over 200 cases in 40 s
SETUP_REPEATS = 5     # set-ups per run; setup_s is their median
PREFILL_ROUNDS = 1    # rounds of cases generated during set-up
REF_EVERY_S = 0.25    # timed wall time between two reference samples
REF_WINDOW = 2        # reference samples each side of a case that set its speed
# Seconds the reference kernel takes at the machine's usual speed: the median
# of 20000 samples (about 30 s) on a 2-vCPU KVM guest of an Intel Xeon
# (Sapphire Rapids, 2.1 GHz).  It only sets the scale of the normalised
# times; any constant would compare commits alike.
REF_NOMINAL_S = 0.00135


class CaseTimeout(BaseException):
    """A case ran past the limit.  Not an Exception, so program code that
    catches Exception cannot swallow it."""


def _alarm(signum, frame):
    raise CaseTimeout()


# -- set-up ---------------------------------------------------------------------

def child_import_s():
    """In-process import time of sphdescent, measured in a fresh child."""
    code = ("import time; t = time.perf_counter(); import sphdescent; "
            "print(time.perf_counter() - t)")
    out = subprocess.run([sys.executable, "-c", code], env=wl.child_env(),
                         cwd=ROOT, capture_output=True, text=True,
                         timeout=60, check=True)
    return float(out.stdout.strip())


def importtime_ms():
    """Cumulative import time of the sphdescent package, from -X importtime."""
    out = subprocess.run([sys.executable, "-X", "importtime", "-c",
                          "import sphdescent"], env=wl.child_env(), cwd=ROOT,
                         capture_output=True, text=True, timeout=60,
                         check=True)
    for line in out.stderr.splitlines():
        parts = [p.strip() for p in line.split("|")]
        if len(parts) == 3 and parts[2] == "sphdescent":
            return int(parts[1]) / 1000.0
    raise RuntimeError("no sphdescent line in the -X importtime output")


def setup(workload, seed):
    """Import (in a child), generate inputs and warm up, SETUP_REPEATS
    times.  Returns (median seconds normalised like case times, the last
    set-up's rounds, warm-up failures)."""
    times, failures = [], []
    for rep in range(SETUP_REPEATS):
        speed = REF_NOMINAL_S / statistics.median(
            reference_sample() for _ in range(2 * REF_WINDOW + 1))
        imported = child_import_s()
        t1 = time.perf_counter()
        generator, warm = wl.build(workload, seed,
                                   random.Random(f"warmup-{seed}-{rep}"))
        prefill = [next(generator) for _ in range(PREFILL_ROUNDS)]
        rounds = chain(prefill, generator)
        for case in warm:
            error = run_case(case)[2]
            if error:
                failures.append(f"warm-up: {error}")
        times.append((imported + time.perf_counter() - t1, speed))
    normalised = statistics.median(t * speed for t, speed in times)
    print("set-up: median %.4f s wall, %.4f s normalised"
          % (statistics.median(t for t, _ in times), normalised))
    return normalised, rounds, failures


# -- machine speed ------------------------------------------------------------------
#
# The shared host this benchmark was tuned on changes speed in phases of about
# ten seconds to minutes: the same case, or a fixed loop, takes up to 1.5
# times as long in a slow phase as in a fast one (CPU time and wall time move
# together, so the process is not descheduled; the CPU runs slower).  A run
# therefore samples a fixed reference kernel every REF_EVERY_S seconds of the
# loop, and each case's time is also reported normalised to the kernel's
# usual speed: seconds * REF_NOMINAL_S / (median of the kernel samples around
# the case).  The end-to-end timings use the normalised times; the raw wall
# times are printed beside them.

def reference_kernel():
    """Fixed pure-Python work of the program's kind: Fraction arithmetic and
    small tuples in a dict."""
    acc, seen = Fraction(0), {}
    for i in range(1, 300):
        acc += Fraction(i % 7 - 3, i % 11 + 1)
        seen[(i % 13, i % 17)] = (acc.numerator % 97, acc.denominator)
    return acc, len(seen)


def reference_sample():
    t0 = time.perf_counter()
    reference_kernel()
    return time.perf_counter() - t0


def speeds(marks, refs):
    """Per case, REF_NOMINAL_S over the median of the reference samples
    within REF_WINDOW of the case (case i ran after refs[marks[i]])."""
    return [REF_NOMINAL_S / statistics.median(
        refs[max(0, m + 1 - REF_WINDOW):m + 1 + REF_WINDOW]) for m in marks]


# -- the closed loop ------------------------------------------------------------

def run_case(case):
    """(seconds, answer, error or None).  Only case.run() is timed."""
    signal.signal(signal.SIGALRM, _alarm)
    t0 = time.perf_counter()
    try:
        signal.setitimer(signal.ITIMER_REAL, wl.CASE_LIMIT_S)
        try:
            answer = case.run()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        elapsed = time.perf_counter() - t0
    except CaseTimeout:
        return wl.CASE_LIMIT_S, None, f"over the {wl.CASE_LIMIT_S:g} s limit"
    except Exception as e:  # a raising case is a failed case, not a crash
        return (time.perf_counter() - t0, None,
                f"raised {type(e).__name__}: {e}")
    try:
        return elapsed, answer, case.check(answer)
    except Exception as e:  # an answer the oracle cannot read is wrong
        return elapsed, answer, f"unreadable answer: {type(e).__name__}: {e}"


def loop(rounds, seconds, before_case=None):
    """Run cases until `seconds` have passed, sampling the reference kernel
    between them.  Returns [(seconds, normalised seconds, error or None)]."""
    records, marks, refs = [], [], [reference_sample()]
    deadline = time.perf_counter() + seconds
    next_ref = time.perf_counter() + REF_EVERY_S
    for case in chain.from_iterable(rounds):
        now = time.perf_counter()
        if now >= deadline:
            break
        if now >= next_ref:
            refs.append(reference_sample())
            next_ref = time.perf_counter() + REF_EVERY_S
        if before_case is not None:
            before_case(len(records))
        elapsed, _, error = run_case(case)
        records.append((elapsed, error))
        marks.append(len(refs) - 1)
    refs.append(reference_sample())
    return [(t, t * speed, error) for (t, error), speed
            in zip(records, speeds(marks, refs))]


def tail(times):
    """(value, percentile, samples beyond it) for case_tail_ms.

    The percentile is fixed, so that runs and commits compare the same point
    of the distribution.  p90 leaves at least 20 cases beyond it in a run at
    this commit's speed; p95, with about half as many, had the widest
    run-to-run spread of the timings.  A run with fewer than 10 cases beyond
    p90 falls back to the 11th-slowest case, or to the slowest when there
    are ten or fewer."""
    ordered = sorted(times)
    n = len(ordered)
    pct = TAIL_PERCENTILE
    beyond = int(n * (100 - pct) / 100)
    if beyond < 10:
        if n <= 10:
            return ordered[-1], 100.0, 0
        beyond = 10
        pct = 100.0 * (n - beyond) / n
    return ordered[n - 1 - beyond], pct, beyond


def end_to_end(records, setup_s, workload):
    n = len(records)
    failed = sum(1 for *_, error in records if error)
    timings = {}
    for label, column in (("wall", 0), ("normalised", 1)):
        times = [r[column] for r in records]
        value, pct, beyond = tail(times)
        timings[label] = (statistics.median(times) * 1000, value * 1000,
                          n / sum(times))
    print(f"{workload}: {n} cases; case_tail_ms is the p{pct:g}, with "
          f"{beyond} cases beyond it")
    print("  wall (not normalised): p50 %.3f ms, tail %.3f ms, %.4f cases/s"
          % timings["wall"])
    p50, tail_ms, cps = timings["normalised"]
    return {
        "case_p50_ms": (p50, "ms"),
        "case_tail_ms": (tail_ms, "ms"),
        "cases_per_s": (cps, "1/s"),
        "answered_share": ((n - failed) / n, "ratio"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024, "MB"),
    }


# -- the traced run -----------------------------------------------------------------

def per_layer(spans, ncases, cache, import_ms, cps_plain, cps_traced):
    st = tracing.self_times(spans)
    ncases = max(ncases, 1)

    def get(name):
        return st.get(name, (0, 0, 0))

    def calls(*names):
        return sum(get(x)[0] for x in names) / ncases

    def ms(*names):
        return sum(get(x)[1] for x in names) / 1e6 / ncases

    def extra(name):
        return get(name)[2] / ncases

    def ratio(part, whole):
        return part / whole if whole else 0.0

    per_case, count = "ms/case", "1/case"
    return {
        "problem.schema_calls": (calls("problem.schema"), count),
        "problem.schema_ms": (ms("problem.schema"), per_case),
        "problem.parse_self_ms": (ms("problem.parse_text",
                                     "problem.parse_dict",
                                     "problem.parse_file"), per_case),
        "rootdata.build_calls": (calls("rootdata.build_root_datum"), count),
        "rootdata.build_ms": (ms("rootdata.build_root_datum"), per_case),
        "rootdata.weyl_group_calls": (calls("rootdata.weyl_group"), count),
        "rootdata.weyl_elements": (extra("rootdata.weyl_group"), count),
        "rootdata.weyl_group_ms": (ms("rootdata.weyl_group"), per_case),
        "weyl.orbit_ms": (ms("weyl.weyl_orbit"), per_case),
        "weyl.orbit_vectors": (extra("weyl.weyl_orbit"), count),
        "weyl.conjugate_ms": (ms("weyl.are_weyl_conjugate"), per_case),
        "staraction.build_action_ms": (ms("staraction.build_action"),
                                       per_case),
        "staraction.closure_elements": (extra("staraction.build_action"),
                                        count),
        "cones.convert_calls": (calls("cones.cone_from_generators",
                                      "cones.cone_from_inequalities"), count),
        "cones.convert_ms": (ms("cones.cone_from_generators",
                                "cones.cone_from_inequalities"), per_case),
        "cones.faces_calls": (calls("cones.faces"), count),
        "cones.faces_out": (extra("cones.faces"), count),
        "cones.faces_ms": (ms("cones.faces"), per_case),
        "cones.fan_valid_ms": (ms("cones.is_valid_fan"), per_case),
        "cones.meet_calls": (calls("cones.meet_relative_interiors"), count),
        "cones.stable_ms": (ms("cones.is_gamma_stable"), per_case),
        "cones.ray_cache_hit_ratio": (ratio(cache[0], cache[0] + cache[1]),
                                      "ratio"),
        "ratlp.feasible_calls": (calls("ratlp.feasible"), count),
        "ratlp.feasible_ms": (ms("ratlp.feasible"), per_case),
        "ratlp.feasible_yes_ratio": (ratio(get("ratlp.feasible")[2],
                                           get("ratlp.feasible")[0]),
                                     "ratio"),
        "intlinalg.hnf_calls": (calls("intlinalg.hnf"), count),
        "intlinalg.hnf_ms": (ms("intlinalg.hnf"), per_case),
        "intlinalg.kernel_calls": (calls("intlinalg.kernel_lattice"), count),
        "intlinalg.kernel_ms": (ms("intlinalg.kernel_lattice"), per_case),
        "intlinalg.snf_ms": (ms("intlinalg.snf"), per_case),
        "invariants.preserves_ms": (ms("invariants.preserves_invariants"),
                                    per_case),
        "checker.invariance_ms": (ms("checker.invariance_entries"),
                                  per_case),
        "checker.verdict_self_ms": (ms("checker.verdict"), per_case),
        "checker.wonderful_report_self_ms": (
            ms("checker.wonderful_stability_report"), per_case),
        "cohomology.ms": (ms("cohomology.obstruction_verdict",
                             "cohomology.h2_local_vanishes"), per_case),
        "cli.main_self_ms": (ms("cli.main"), per_case),
        "cli.import_ms": (import_ms, "ms"),
        "trace.untraced_cases_per_s": (cps_plain, "1/s"),
        "trace.traced_cases_per_s": (cps_traced, "1/s"),
        "trace.overhead": (ratio(cps_plain, cps_traced), "ratio"),
    }


def traced_run(workload, rounds, seconds):
    """Trace every other case, so that traced and untraced cases see the
    same mix and the same machine.  Replaying the same cases traced would
    instead find the program's caches warm.  Returns all records and the
    per-layer metrics."""
    from sphdescent import cones
    import_ms = statistics.median(importtime_ms() for _ in range(3))
    tracer = tracing.Tracer()
    cache = [0, 0]  # face-cache hits and misses during traced cases
    info = None

    def switch(on):
        nonlocal info
        if on == (info is not None):
            return
        now = cones._cone_from_ray_tuple.cache_info()
        if on:
            tracer.install()
            info = now
        else:
            tracer.uninstall()
            cache[0] += now.hits - info.hits
            cache[1] += now.misses - info.misses
            info = None

    def before_case(idx):
        switch(idx % 2 == 1)
        tracer.case = idx

    try:
        records = loop(rounds, seconds, before_case)
    finally:
        switch(False)
    tracer.dump(wl.OUT / f"spans-{workload}.tsv.gz")
    plain, traced = records[0::2], records[1::2]
    cps = [len(recs) / sum(r[1] for r in recs) if recs else 0.0
           for recs in (plain, traced)]
    return records, per_layer(tracer.spans, len(traced), cache, import_ms,
                              *cps)


# -- entry points --------------------------------------------------------------------

def bench(args):
    wl.OUT.mkdir(exist_ok=True)
    setup_s, rounds, failures = setup(args.workload, args.seed)
    if args.trace:
        records, metrics = traced_run(args.workload, rounds, args.seconds)
    else:
        records = loop(rounds, args.seconds)
        metrics = end_to_end(records, setup_s, args.workload)
    errors = [error for *_, error in records if error]
    for message in (failures + errors)[:10]:
        print(f"FAILED: {message}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:36s} {value:14.6f} {unit}")
    print(json.dumps({
        "correct": not errors and not failures,
        "attempted": len(records),
        "failed": len(errors),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


def steady(args):
    """Run N seeds in turn, then one held-out seed, one process each."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    def one(seed):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload",
               args.workload, "--seed", str(seed), "--seconds",
               str(args.seconds), "--trace", "0"]
        out = subprocess.run(cmd, capture_output=True, text=True, check=True)
        result = json.loads(out.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            print(out.stdout)
        return result

    runs = []
    for i in range(args.steady):
        runs.append(one(args.seed + i))
        print(f"  seed {args.seed + i}: " + ", ".join(
            f"{name} {runs[-1]['metrics'][name]['value']:.4g}"
            for name in bounds), flush=True)
    heldout = one(args.heldout)
    print(f"{args.workload}: {args.steady} seeds from {args.seed}, "
          f"held-out seed {args.heldout}, {args.seconds} s each; "
          f"all correct: {all(r['correct'] for r in runs + [heldout])}")
    print(f"  {'metric':16s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
          f"{'spread':>7s} {'bound':>6s} {'held-out':>12s}")
    for name, bound in bounds.items():
        values = [r["metrics"][name]["value"] for r in runs]
        q1, med, q3 = statistics.quantiles(values, n=4)
        held = heldout["metrics"][name]["value"]
        spread = (q3 - q1) / med if med else 0.0
        print(f"  {name:16s} {med:12.4f} {q1:12.4f} {q3:12.4f} "
              f"{spread:7.3f} {bound:6.2f} {held:12.4f}"
              f"{'' if abs(held - med) <= bound * med else '  (outside)'}")
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steady", type=int, default=0, metavar="N",
                        help="run N seeds and a held-out one; print quartiles")
    parser.add_argument("--heldout", type=int, default=None,
                        help="held-out seed for --steady (default seed+1000)")
    args = parser.parse_args(argv)
    os.environ.pop("SPHDESCENT_CAP", None)  # it would change what is run
    if args.steady:
        if args.heldout is None:
            args.heldout = args.seed + 1000
        return steady(args)
    return bench(args)


if __name__ == "__main__":
    if not (SRC / "sphdescent" / "__init__.py").is_file():
        sys.exit(f"error: no sphdescent sources under {SRC}")
    sys.path[:0] = [str(SRC), str(ROOT)]
    from sphbench import tracer as tracing
    from sphbench import workloads as wl
    sys.exit(main())
