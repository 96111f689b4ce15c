"""Fixtures shared by the test modules."""

import tracemalloc

import pytest

from mixident import montecarlo, pushforward


@pytest.fixture(autouse=True)
def empty_row_cache():
    """Every test starts with no cached pure rows and no bracket tables, so
    that a row another test computed never stands in for a kernel call this
    one patches."""
    pushforward._ROW_CACHE.clear()
    pushforward._bracket_table.cache_clear()


@pytest.fixture(autouse=True)
def no_worker_pool():
    """Every test starts with no worker pool, and the pool a test started,
    real or fake, is shut down when it ends, so no worker outlives it."""
    yield
    montecarlo._close_pool()


@pytest.fixture
def traced_peak():
    """Returns ``peak(fn, *args)``: the peak of the memory that tracemalloc
    traces while ``fn(*args)`` runs, in bytes."""

    def peak(fn, *args):
        tracemalloc.start()
        try:
            fn(*args)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    return peak


@pytest.fixture
def fake_pool(monkeypatch):
    """An in-process stand-in for the process pool, on a 4-CPU budget.

    Returns the list of ``max_workers`` of every pool built; its ``maps``
    attribute lists, for each ``map`` call, the sizes of the blocks of the
    tasks it was given, in task order; its ``tasks`` attribute, the same
    sizes grouped by task; and its ``closed`` attribute the ``max_workers``
    of every pool shut down.  No process starts.
    """

    class Built(list):
        maps: list[list[int]]
        tasks: list[list[list[int]]]
        closed: list[int]

    built = Built()
    built.maps = []
    built.tasks = []
    built.closed = []

    class FakePool:
        def __init__(self, max_workers):
            self.max_workers = max_workers
            built.append(max_workers)

        def shutdown(self):
            built.closed.append(self.max_workers)

        def map(self, fn, tasks):
            tasks = list(tasks)
            sizes = [[len(indices) for _, indices, _ in task] for task in tasks]
            assert all(sizes), "empty task submitted"
            assert all(all(task) for task in sizes), "empty block submitted"
            built.maps.append([size for task in sizes for size in task])
            built.tasks.append(sizes)
            return map(fn, tasks)

    monkeypatch.setattr(montecarlo, "ProcessPoolExecutor", FakePool)
    monkeypatch.setattr(montecarlo, "_usable_cpus", lambda: 4)
    return built
