"""CLI output over the shipped corpus is byte-identical to a recorded snapshot.

`golden_cli_corpus.json` holds stdout, stderr and the exit code of every
corpus file under each file subcommand, and of each subcommand's batch run
over the whole corpus, in text and `--json` form.  After an intended change
of output, regenerate it with

    PYTHONPATH=src python tests/test_golden_cli.py

and review the diff of the snapshot.
"""
import contextlib
import io
import json
from pathlib import Path

import pytest

from sphdescent.cli import corpus_names, main

SNAPSHOT = Path(__file__).with_name("golden_cli_corpus.json")
COMMANDS = ("verdict", "check-invariants", "check-fan", "cohomology")


def cases():
    for name in corpus_names():
        stem = name.removesuffix(".json")
        for command in COMMANDS:
            for form in ((), ("--json",)):
                yield [command, "--corpus", stem, *form]
    for command in COMMANDS:
        for form in ((), ("--json",)):
            yield [command, "--corpus", *form]


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return {"argv": argv, "exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


@pytest.fixture(scope="module")
def snapshot():
    return json.loads(SNAPSHOT.read_text())


def test_snapshot_covers_every_case(snapshot):
    assert [entry["argv"] for entry in snapshot] == list(cases())
    assert len(snapshot) == 12 * 4 * 2 + 4 * 2


@pytest.mark.parametrize("argv", list(cases()), ids=" ".join)
def test_cli_output_matches_the_snapshot(argv, snapshot):
    assert run(argv) == next(entry for entry in snapshot if entry["argv"] == argv)


if __name__ == "__main__":
    SNAPSHOT.write_text(json.dumps([run(argv) for argv in cases()], indent=1) + "\n")
