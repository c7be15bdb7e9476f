"""The public surface: every name in `sphdescent.__all__` is defined, and
listed once, so that `from sphdescent import *` works."""
import sphdescent


def test_every_public_name_resolves_once():
    names = sphdescent.__all__
    assert len(set(names)) == len(names)
    assert [name for name in names if not hasattr(sphdescent, name)] == []
    namespace = {}
    exec("from sphdescent import *", namespace)
    assert set(names) <= namespace.keys()
