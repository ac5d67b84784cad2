"""Deterministic 64-bit seed derivation for parallel trial streams.

``map_trials(trial, count, base_seed, workers)`` is the one trial engine and
the one seed rule: trial i runs as ``trial(i, derive_seed(base_seed, i))``.
The mixing function is a splitmix64-style avalanche, so trial seeds are
reproducible across platforms and independent of thread scheduling.  Trials
fan out to a pool of at most ``workers`` threads, never more than the trials
or the CPUs the process may run on, and come back in index order, so a
reduction over them is the same for any worker count.  Trials return their
records as columns: a dict of equal-length 1-D arrays keyed by column name,
which ``concat_columns`` joins in trial order.  ``one_blas_thread`` pins numpy's
bundled OpenBLAS to one thread for a block of code and restores the setting
after; the setting is one per process, and the ``tail`` statistic holds the
pin around its whole fan-out, so its values do not depend on the worker or
core count, while every other trial keeps the process's BLAS thread setting.
``_openblas_function`` is the one lookup of numpy's bundled OpenBLAS
through ctypes: it binds a symbol to its signature once per process, or
warns once and returns None.  The thread pin, the in-place eigensolver of
``rmtlab.spectral`` and the tail's ``dtrmm`` in ``rmtlab.concentration``
take their functions from it.
"""

import contextlib
import functools
import os
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

    The pool has ``min(workers, count, CPUs)`` threads, CPUs being those the
    process may run on, so a mistyped ``workers`` starts no more threads than
    can run at once; the trials run in the calling thread when that is at
    most 1.  Results come back in index order whatever the worker count.  A
    trial's LAPACK, BLAS and generator fills release the GIL, so threads run
    them in parallel.
    All threads share the process's one BLAS thread setting, so ``eigh`` and
    ``svd`` give the same bits on any worker count.  A caller that needs a
    fixed thread count holds ``one_blas_thread`` around the whole call,
    never inside a trial: one trial's restore would un-pin another.
    """
    seeds = [derive_seed(base_seed, i) for i in range(count)]
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    threads = min(workers, count, cpus)
    if threads <= 1:
        return list(map(trial, range(count), seeds))
    with futures.ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(trial, range(count), seeds))


def concat_columns(parts: list[dict]) -> dict:
    """Join column records (dicts of equal-length 1-D arrays with the same keys) end to end, in order."""
    return {name: np.concatenate([part[name] for part in parts]) for name in parts[0]}


@functools.cache
def _openblas_function(name: str, argtypes: tuple, restype, missing: str):
    """numpy's bundled OpenBLAS function ``name``, given the ctypes signature ``argtypes`` -> ``restype``.

    None, after a RuntimeWarning that reads ``missing``, where the library
    or the symbol is not found; cached, so each lookup warns once per
    process.  The symbol is reached through numpy's core extension module,
    which links the library; ctypes loads only here, on first use.
    """
    import ctypes

    try:
        from numpy._core import _multiarray_umath

        function = getattr(ctypes.CDLL(_multiarray_umath.__file__), name)
    except (ImportError, OSError, AttributeError):
        warnings.warn(missing, RuntimeWarning)
        return None
    function.argtypes, function.restype = argtypes, restype
    return function


@contextlib.contextmanager
def one_blas_thread():
    """Run the block with numpy's OpenBLAS on one thread, then restore its setting.

    Without the thread control (numpy built on another BLAS) it warns once
    per process and runs the block unpinned.
    """
    import ctypes

    missing = (
        "numpy's OpenBLAS thread control was not found; BLAS products run unpinned, "
        "so their last bits may depend on the core count"
    )
    get = _openblas_function("scipy_openblas_get_num_threads64_", (), ctypes.c_int, missing)
    # set is looked up only where get was found, so a missing library warns once
    set_threads = get and _openblas_function("scipy_openblas_set_num_threads64_", (ctypes.c_int,), None, missing)
    if set_threads is None:
        yield
        return
    before = get()
    set_threads(1)
    try:
        yield
    finally:
        set_threads(before)
