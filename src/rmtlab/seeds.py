"""Deterministic 64-bit seed derivation for parallel trial streams.

Every Monte Carlo trial gets its own seed via ``derive_seed(base, index)``.
The mixing function is a splitmix64-style avalanche, so trial seeds are
reproducible across platforms and independent of thread scheduling.
``map_trials`` is the one place trials fan out, to a pool of threads; it
returns results in job order, so a reduction over them is the same for any
worker count.  Trials return their records as columns: a dict of
equal-length 1-D arrays keyed by column name, which ``concat_columns``
joins in trial order.  ``one_blas_thread`` pins numpy's bundled OpenBLAS
to one thread for a block of code and restores the setting after; the
setting is one per process, and the ``tail`` statistic holds the pin around
its whole fan-out, so its values do not depend on the worker or core count,
while every other trial keeps the process's BLAS thread setting.
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


def map_trials(fn, jobs, workers: int = 1) -> list:
    """``[fn(job) for job in jobs]``, on up to ``workers`` threads.

    Runs in the calling thread when ``workers <= 1`` or there is at most one job.
    Results come back in job order whatever the worker count.  A trial's
    LAPACK, BLAS and generator fills release the GIL, so threads run them
    in parallel.  All threads share the process's one BLAS thread setting,
    so ``eigh`` and ``svd`` give the same bits on any worker count.  A caller
    that needs a fixed thread count holds ``one_blas_thread`` around the
    whole call, never inside a job: one job's restore would un-pin another.
    """
    jobs = list(jobs)
    if workers <= 1 or len(jobs) <= 1:
        return [fn(job) for job in jobs]
    with futures.ThreadPoolExecutor(max_workers=min(workers, len(jobs))) as pool:
        return list(pool.map(fn, jobs))


def concat_columns(parts: list[dict]) -> dict:
    """Join column records (dicts of equal-length 1-D arrays with the same keys) end to end, in order."""
    return {name: np.concatenate([part[name] for part in parts]) for name in parts[0]}


def _find_openblas():
    """(get, set) thread-count functions of numpy's bundled OpenBLAS, or None.

    The symbols are looked up through numpy's core extension module, which
    links the library; ctypes loads only here, on first use.
    """
    import ctypes

    try:
        from numpy._core import _multiarray_umath

        lib = ctypes.CDLL(_multiarray_umath.__file__)
        get, set_threads = lib.scipy_openblas_get_num_threads64_, lib.scipy_openblas_set_num_threads64_
    except (ImportError, OSError, AttributeError):
        return None
    get.argtypes, get.restype = [], ctypes.c_int
    set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
    return get, set_threads


@functools.cache
def _openblas_threads():
    calls = _find_openblas()
    if calls is None:
        warnings.warn(
            "numpy's OpenBLAS thread control was not found; BLAS products run unpinned, "
            "so their last bits may depend on the core count",
            RuntimeWarning,
        )
    return calls


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
