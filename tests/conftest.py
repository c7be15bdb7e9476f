"""Fixtures shared by the whole suite."""
import pytest

from sphdescent import rootdata


@pytest.fixture(autouse=True)
def cold_root_data():
    """Empty the intern cache of root data before each test, so a test that
    probes a datum's first build (its root table, its lifts) gets a fresh
    datum whatever ran before it in the process."""
    rootdata._interned_datum.cache_clear()
