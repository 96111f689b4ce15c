"""Fixtures shared by the test modules."""

import pytest

from mixident import montecarlo, pushforward


@pytest.fixture(autouse=True)
def empty_row_cache():
    """Every test starts with no cached pure rows, so that a row another
    test computed never stands in for a kernel call this one patches."""
    pushforward._ROW_CACHE.clear()


@pytest.fixture
def fake_pool(monkeypatch):
    """An in-process stand-in for the process pool, on a 4-CPU budget.

    Returns the list of ``max_workers`` of every pool built; its ``maps``
    attribute lists, for each ``map`` call, the sizes of the blocks it was
    given.  No process starts.
    """

    class Built(list):
        maps: list[list[int]]

    built = Built()
    built.maps = []

    class FakePool:
        def __init__(self, max_workers):
            built.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, blocks):
            blocks = list(blocks)
            assert all(indices for _, indices in blocks), "empty block submitted"
            built.maps.append([len(indices) for _, indices in blocks])
            return map(fn, blocks)

    monkeypatch.setattr(montecarlo, "ProcessPoolExecutor", FakePool)
    monkeypatch.setattr(montecarlo, "_usable_cpus", lambda: 4)
    return built
