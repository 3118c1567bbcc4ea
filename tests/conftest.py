"""Fixtures shared by the test modules."""

import tracemalloc

import pytest


def _traced_peak(fn, *args):
    """``(fn(*args), the tracemalloc peak in bytes while it ran)``."""
    tracemalloc.start()
    try:
        out = fn(*args)
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture
def traced_peak():
    return _traced_peak
