"""Fixtures shared by the test modules."""

import tracemalloc

import pytest


@pytest.fixture
def peak_bytes():
    """``measure(fn, *args)``: fn(*args) and the peak bytes allocated during the call, as tracemalloc sees them.

    tracemalloc sees numpy's arrays and every Python object, but not the
    buffers that BLAS, LAPACK or numpy's linalg allocate with plain malloc:
    numpy's eigh, eigvalsh and svd copy their input and size their LAPACK
    workspace out of its sight.  ``spectral._eigh_owned`` makes its workspace
    numpy arrays and solves in its input's memory, so tracemalloc sees every
    buffer it asks for.
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
