"""The decision path reads only the based root datum, never the root set.

With `weyl.roots_and_coroots` made to raise, every file subcommand over the
corpus must still print its recorded golden output, and `weyl-orbit` must
print what it prints with the root sets in place.
"""
import json

import pytest

from sphdescent import rootdata, weyl
from test_golden_cli import SNAPSHOT, cases, run

ORBIT = ["weyl-orbit", "D", "4", "0,1,0,0"]


def test_file_commands_and_orbits_never_build_the_root_table(monkeypatch):
    orbit_runs = [run([*ORBIT, *form]) for form in ((), ("--json",))]

    def search(brd):
        raise AssertionError("root sets built")
    monkeypatch.setattr(weyl, "roots_and_coroots", search)
    d4 = rootdata.build_root_datum("D", 4)
    with pytest.raises(AssertionError, match="root sets built"):
        weyl.root_subset(d4, d4.simple_roots)
    snapshot = json.loads(SNAPSHOT.read_text())
    for argv, entry in zip(cases(), snapshot, strict=True):
        assert run(argv) == entry, argv
    assert [run([*ORBIT, *form]) for form in ((), ("--json",))] == orbit_runs
    assert json.loads(orbit_runs[1]["stdout"])["orbit_size"] == 24
