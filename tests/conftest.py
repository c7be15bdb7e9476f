"""Fixtures shared by the whole suite."""
import pytest

from sphdescent import rootdata, weyl


@pytest.fixture(autouse=True)
def cold_root_data():
    """Empty the intern cache of root data and the caches of their root sets
    and reflection maps before each test, so a test that probes a datum's
    first build (its root sets, its lifts) gets a fresh datum whatever ran
    before it in the process."""
    rootdata._interned_datum.cache_clear()
    weyl.roots_and_coroots.cache_clear()
    weyl._simple_reflections.cache_clear()
