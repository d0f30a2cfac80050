import pytest

from apportion import VoteTally, oracle


@pytest.fixture
def worked_example():
    """Three parties splitting 1000 votes with integer ideal seat counts."""
    return VoteTally(("A", "B", "C"), (600, 300, 100))


@pytest.fixture
def three_way():
    """Fractional quotas everywhere; methods disagree at N=10."""
    return VoteTally(("A", "B", "C"), (53, 24, 23))


@pytest.fixture
def close_race():
    """Two small and two large parties; remainder and divisor logic split."""
    return VoteTally(("A", "B", "C", "D"), (78, 78, 422, 422))


@pytest.fixture
def inline_pool(monkeypatch):
    """Suites run their chunks in-process on a pretend 3-CPU machine.

    Replaces ``oracle.ProcessPoolExecutor``, so no worker is ever started,
    and returns the list of pool sizes the suites asked for.
    """
    sizes = []

    class InlinePool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return list(map(fn, items))

    monkeypatch.setattr(oracle, "ProcessPoolExecutor", InlinePool)
    monkeypatch.setattr(oracle.os, "cpu_count", lambda: 3)
    return sizes
