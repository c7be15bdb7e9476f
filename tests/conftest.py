"""Fixtures shared by the whole suite."""
import pytest

from sphdescent import intlinalg, rootdata, weyl


@pytest.fixture(autouse=True)
def cold_root_data():
    """Empty the intern cache of root data and the caches of their root sets,
    reflection maps, Gram matrices and compiled orbit walks before each test,
    so a test that probes a datum's first build (its root sets, its lifts)
    gets a fresh datum whatever ran before it in the process."""
    rootdata._interned_datum.cache_clear()
    weyl.roots_and_coroots.cache_clear()
    weyl._simple_reflections.cache_clear()
    weyl._gram_matrix.cache_clear()
    weyl._walker.cache_clear()


@pytest.fixture()
def solve_widths(monkeypatch):
    """The width of the right-hand block of every solve_fraction_free call,
    through intlinalg or rootdata; the unimodularity test has width 0."""
    widths = []
    original = intlinalg.solve_fraction_free

    def counted(a, r):
        widths.append(len(r[0]) if r else 0)
        return original(a, r)

    for module in (intlinalg, rootdata):
        monkeypatch.setattr(module, "solve_fraction_free", counted)
    return widths
