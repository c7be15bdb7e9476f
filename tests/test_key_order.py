"""JSON objects are unordered: permuting the keys of every object in a
problem file, arrays left in order, changes no file command's stdout,
stderr or exit code, in text or with `--json`.

The inputs are the corpus and `tests/data` documents, plus `sl2_torus`
with a second action generator `u` and both cohomology modules keyed
`{s, v}`: its modules name other generators than the action, and whether
kappa's source and target agree must not hang on the order of their keys.
"""
import contextlib
import io
import json
import random

import pytest

from sphdescent.cli import corpus_root, main
from test_cli_fuzz import DOCS, FILE_COMMANDS

TWO_GENERATORS = json.loads((corpus_root() / "sl2_torus.json").read_text("utf-8"))
TWO_GENERATORS["action"]["generators"].append({"name": "u", "matrix_on_X": [[1]]})
for _module in ("A_characters", "Z_characters"):
    TWO_GENERATORS["cohomology"][_module]["action"] = {"s": [[1]], "v": [[1]]}


def permuted(x, rng):
    """x with the keys of every object reordered: reversed when rng is
    None, else shuffled; arrays keep their order."""
    if isinstance(x, list):
        return [permuted(v, rng) for v in x]
    if not isinstance(x, dict):
        return x
    keys = list(x)
    if rng is None:
        keys.reverse()
    else:
        rng.shuffle(keys)
    return {k: permuted(x[k], rng) for k in keys}


def outputs(tmp_path, monkeypatch, doc):
    """(exit code, stdout, stderr) of every file command on doc, in text
    and with --json, the file named doc.json in the working directory."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "doc.json").write_text(json.dumps(doc), "utf-8")
    result = {}
    for command in FILE_COMMANDS:
        for flags in ((), ("--json",)):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main([command, "doc.json", *flags])
            result[command, flags] = code, out.getvalue(), err.getvalue()
    return result


@pytest.mark.parametrize("doc", DOCS + [TWO_GENERATORS],
                         ids=[f"doc{i}" for i in range(len(DOCS))] + ["two_generators"])
def test_key_order_never_matters(doc, tmp_path, monkeypatch):
    expected = outputs(tmp_path, monkeypatch, doc)
    for rng in (None, random.Random(1), random.Random(2), random.Random(3)):
        assert outputs(tmp_path, monkeypatch, permuted(doc, rng)) == expected
