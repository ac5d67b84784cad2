"""Deterministic 64-bit seed derivation for parallel trial streams.

``map_trials(trial, count, base_seed, workers)`` is the one trial engine and
the one seed rule: trial i runs as ``trial(i, derive_seed(base_seed, i))``.
The mixing function is a splitmix64-style avalanche, so trial seeds are
reproducible across platforms and independent of thread scheduling.  Trials
fan out to a pool of threads and come back in index order, so a reduction
over them is the same for any worker count.  Trials return their records as
columns: a dict of equal-length 1-D arrays keyed by column name, which
``concat_columns`` joins in trial order.  ``one_blas_thread`` pins numpy's
bundled OpenBLAS to one thread for a block of code and restores the setting
after; the setting is one per process, and the ``tail`` statistic holds the
pin around its whole fan-out, so its values do not depend on the worker or
core count, while every other trial keeps the process's BLAS thread setting.
``_openblas`` loads numpy's bundled OpenBLAS once for the process, and both
the thread pin and the in-place eigensolver of ``rmtlab.spectral`` take
their functions from it through ``_openblas_functions``.
"""

import contextlib
import functools
import warnings
from concurrent import futures

import numpy as np

MASK64 = (1 << 64) - 1

_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


def splitmix64(state: int) -> int:
    """One splitmix64 output step for the given 64-bit state."""
    z = (state + _GOLDEN) & MASK64
    z = ((z ^ (z >> 30)) * _MIX1) & MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & MASK64
    return z ^ (z >> 31)


def derive_seed(base: int, index: int) -> int:
    """Seed for stream ``index`` of a run with seed ``base``.

    Counter-mix construction: the index advances the splitmix counter, then
    the base is folded in through a second avalanche round.  Injective in
    ``index`` for fixed ``base`` up to 64-bit collisions (never observed in
    practice; not asserted).
    """
    state = (base & MASK64) ^ splitmix64(index & MASK64)
    return splitmix64(state)


def map_trials(trial, count: int, base_seed: int, workers: int = 1) -> list:
    """``[trial(i, derive_seed(base_seed, i)) for i in range(count)]``, on up to ``workers`` threads.

    Runs in the calling thread when ``workers <= 1`` or ``count <= 1``.
    Results come back in index order whatever the worker count.  A trial's
    LAPACK, BLAS and generator fills release the GIL, so threads run them
    in parallel.  All threads share the process's one BLAS thread setting,
    so ``eigh`` and ``svd`` give the same bits on any worker count.  A caller
    that needs a fixed thread count holds ``one_blas_thread`` around the
    whole call, never inside a trial: one trial's restore would un-pin another.
    """
    seeds = [derive_seed(base_seed, i) for i in range(count)]
    if workers <= 1 or count <= 1:
        return list(map(trial, range(count), seeds))
    with futures.ThreadPoolExecutor(max_workers=min(workers, count)) as pool:
        return list(pool.map(trial, range(count), seeds))


def concat_columns(parts: list[dict]) -> dict:
    """Join column records (dicts of equal-length 1-D arrays with the same keys) end to end, in order."""
    return {name: np.concatenate([part[name] for part in parts]) for name in parts[0]}


@functools.cache
def _openblas():
    """numpy's bundled OpenBLAS as a ``ctypes.CDLL``, or None where it cannot be loaded.

    Its symbols are reached through numpy's core extension module, which
    links the library; ctypes loads only here, on first use.
    """
    import ctypes

    try:
        from numpy._core import _multiarray_umath

        return ctypes.CDLL(_multiarray_umath.__file__)
    except (ImportError, OSError):
        return None


def _openblas_functions(signatures: dict, missing: str) -> list | None:
    """numpy's OpenBLAS functions by symbol name, each given its ``(argtypes, restype)`` from ``signatures``.

    None, after a RuntimeWarning that reads ``missing``, where the library or a symbol is not found.
    """
    lib = _openblas()
    if lib is None or not all(hasattr(lib, name) for name in signatures):
        warnings.warn(missing, RuntimeWarning)
        return None
    functions = [getattr(lib, name) for name in signatures]
    for fn, (argtypes, restype) in zip(functions, signatures.values()):
        fn.argtypes, fn.restype = argtypes, restype
    return functions


@functools.cache
def _openblas_threads():
    """(get, set) thread-count functions of numpy's bundled OpenBLAS, or None after one warning."""
    import ctypes

    return _openblas_functions(
        {
            "scipy_openblas_get_num_threads64_": ([], ctypes.c_int),
            "scipy_openblas_set_num_threads64_": ([ctypes.c_int], None),
        },
        "numpy's OpenBLAS thread control was not found; BLAS products run unpinned, "
        "so their last bits may depend on the core count",
    )


@contextlib.contextmanager
def one_blas_thread():
    """Run the block with numpy's OpenBLAS on one thread, then restore its setting.

    Without the thread control (numpy built on another BLAS) it warns once
    per process and runs the block unpinned.
    """
    calls = _openblas_threads()
    if calls is None:
        yield
        return
    get, set_threads = calls
    before = get()
    set_threads(1)
    try:
        yield
    finally:
        set_threads(before)
