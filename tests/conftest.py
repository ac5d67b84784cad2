"""Fixtures shared by the test modules."""

import ctypes
import tracemalloc
import warnings

import pytest

from rmtlab import seeds


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


@pytest.fixture
def openblas_lacking(monkeypatch):
    """``lack(*symbols)``: from then on numpy's OpenBLAS lacks ``symbols``, or cannot be loaded when none are given.

    Patches ``ctypes.CDLL`` and clears the cache of ``seeds._openblas_function``,
    so every binding is looked up again, under the patch and after the test.
    """

    class Lacking(ctypes.CDLL):
        def __getattr__(self, name):
            if name in hidden:
                raise AttributeError(name)
            return super().__getattr__(name)

    def no_library(*args, **kwargs):
        raise OSError("no such library")

    hidden = set()

    def lack(*symbols):
        hidden.update(symbols)
        monkeypatch.setattr(ctypes, "CDLL", Lacking if symbols else no_library)
        seeds._openblas_function.cache_clear()

    yield lack
    seeds._openblas_function.cache_clear()


@pytest.fixture
def thread_control():
    """(get, set) thread-count functions of numpy's OpenBLAS, bound past the lookup's cache; skips without them."""
    with warnings.catch_warnings():  # the uncached lookup: its warning, if any, is not the test's
        warnings.simplefilter("ignore")
        get = seeds._openblas_function.__wrapped__("scipy_openblas_get_num_threads64_", (), ctypes.c_int, "")
        set_threads = seeds._openblas_function.__wrapped__("scipy_openblas_set_num_threads64_", (ctypes.c_int,), None, "")
    if get is None or set_threads is None:
        pytest.skip("numpy is not built on its bundled OpenBLAS")
    return get, set_threads
