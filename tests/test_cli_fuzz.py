"""Mutation fuzz of the CLI contract: whatever the input, a command exits 0,
1, 2 or 64; its `--json` output parses unless it exits 64; exit 64 writes
exactly one `error: ...` line and nothing else; no exception escapes `main`;
and no run takes long.

File commands run on mutants of the corpus and `tests/data` documents: an
integer nudged, a list item dropped or duplicated, a key deleted, or a value
swapped with another.  Many mutants still pass the schema, so the parser's
own checks and the library behind it are reached, not only the schema's.
`weyl-orbit` and `conjugate` run on random types, ranks and vectors.
"""
import contextlib
import copy
import io
import json
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from sphdescent.cli import corpus_names, corpus_root, main
from sphdescent.rootdata import build_root_datum
from sphdescent.weyl import roots_and_coroots

DOCS = [json.loads(p.read_text("utf-8")) for p in
        [corpus_root() / name for name in corpus_names()]
        + sorted((Path(__file__).parent / "data").glob("*.json"))]
FILE_COMMANDS = ("verdict", "check-invariants", "check-fan", "cohomology")
SECONDS = 5.0  # per run; a run of a mutant takes milliseconds


def run(*argv):
    """Run main in process and check the contract."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    assert time.perf_counter() - start < SECONDS, argv
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 1, 2, 64), (argv, code)
    if code == 64:
        assert out == "", (argv, out)
        assert err.startswith("error: ") and err.count("\n") == 1 \
            and err.endswith("\n"), (argv, err)
    else:
        assert err == "", (argv, err)
        if "--json" in argv:
            json.loads(out)


def _paths(x, path=()):
    """The path of every value below x, x's own () first."""
    yield path
    items = x.items() if isinstance(x, dict) else enumerate(x) if isinstance(x, list) else ()
    for key, value in items:
        yield from _paths(value, path + (key,))


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


@st.composite
def mutants(draw):
    doc = copy.deepcopy(draw(st.sampled_from(DOCS)))
    for _ in range(draw(st.integers(1, 3))):
        paths = list(_paths(doc))[1:]
        op = draw(st.sampled_from(["nudge", "drop", "duplicate", "swap"]))
        if op == "nudge":
            paths = [p for p in paths if type(_at(doc, p)) is int]
        elif op == "duplicate":
            paths = [p for p in paths if type(p[-1]) is int]
        if not paths:
            continue
        path = draw(st.sampled_from(paths))
        parent, key = _at(doc, path[:-1]), path[-1]
        if op == "nudge":
            parent[key] += draw(st.sampled_from([-2, -1, 1, 2]))
        elif op == "drop":
            del parent[key]
        elif op == "duplicate":
            parent.insert(key, copy.deepcopy(parent[key]))
        else:
            other = draw(st.sampled_from(paths))
            other_parent, other_key = _at(doc, other[:-1]), other[-1]
            value, other_value = parent[key], copy.deepcopy(other_parent[other_key])
            if path[:len(other)] != other and other[:len(path)] != path:
                other_parent[other_key] = value  # neither holds the other
            parent[key] = other_value
    return doc


@pytest.fixture(scope="module")
def mutant_file(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "mutant.json"


@settings(max_examples=400, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(doc=mutants())
def test_file_commands_keep_the_contract_on_mutants(mutant_file, doc):
    mutant_file.write_text(json.dumps(doc), encoding="utf-8")
    for command in FILE_COMMANDS:
        for extra in ((), ("--json",)):
            run(command, str(mutant_file), "--cap", "2000", *extra)


TYPES = ("A", "B", "C", "D", "E", "F", "G", "torus", "H")
DATA = ([("A", n) for n in range(1, 9)] + [(t, n) for t in "BC" for n in range(2, 9)]
        + [("D", n) for n in range(3, 9)] + [("E", 6), ("E", 7), ("E", 8), ("F", 4),
                                             ("G", 2)] + [("torus", n) for n in range(4)])
ENTRIES = st.one_of(st.integers(-3, 3).map(str),
                    st.builds("{}/{}".format, st.integers(-3, 3), st.integers(1, 3)))


def _roots(typ, rank):
    try:
        return tuple(sorted(roots_and_coroots(build_root_datum(typ, rank))[0]))
    except ValueError:
        return ()


@st.composite
def vectors(draw, typ, rank):
    """A vector of about `rank` entries, or a root of the datum when it has one."""
    roots = _roots(typ, rank)
    if roots and draw(st.booleans()):
        return ",".join(map(str, draw(st.sampled_from(roots))))
    size = max(0, rank + draw(st.sampled_from([0, 0, 0, -1, 1])))
    return ",".join(draw(st.lists(ENTRIES, min_size=size, max_size=size)))


@st.composite
def queries(draw):
    # half of the (type, rank) pairs name a root datum, the rest mostly none
    typ, rank = draw(st.one_of(st.sampled_from(DATA),
                               st.tuples(st.sampled_from(TYPES), st.integers(-1, 8))))
    cap = str(draw(st.integers(1, 500)))
    json_flag = draw(st.sampled_from([(), ("--json",)]))
    if draw(st.booleans()):
        return ("weyl-orbit", typ, str(rank), draw(vectors(typ, rank)), "--cap", cap,
                *json_flag)
    sets = [";".join(draw(st.lists(vectors(typ, rank), max_size=3))) for _ in range(2)]
    return ("conjugate", typ, str(rank), *sets, "--cap", cap, *json_flag)


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(argv=queries())
def test_weyl_commands_keep_the_contract(argv):
    run(*argv)
