"""Fixtures shared by the test modules."""

import tracemalloc

import pytest


@pytest.fixture
def peak_bytes():
    """``measure(fn, *args)``: fn(*args) and the peak bytes allocated during the call, as tracemalloc sees them.

    tracemalloc sees numpy's arrays and every Python object, but not the
    buffers that LAPACK or numpy's linalg allocate with plain malloc.
    """

    def measure(fn, *args):
        was_tracing = tracemalloc.is_tracing()
        if not was_tracing:
            tracemalloc.start()
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        try:
            result = fn(*args)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            if not was_tracing:
                tracemalloc.stop()
        return result, peak

    return measure
