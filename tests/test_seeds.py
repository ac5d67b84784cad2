import os
import statistics
import time
import warnings

import numpy as np
import pytest

from rmtlab.concentration import empirical_tail
from rmtlab.ensembles import DistSpec
from rmtlab.seeds import MASK64, derive_seed, map_trials, one_blas_thread, splitmix64


def test_splitmix64_reference_stream():
    # first outputs of the reference splitmix64 generator seeded at 0 and 1
    assert splitmix64(0) == 0xE220A8397B1DCDAF
    assert splitmix64(1) == 0x910A2DEC89025CC1
    assert splitmix64(0x123456789ABCDEF) == 0x157A3807A48FAA9D


def test_derive_seed_frozen_values():
    assert derive_seed(0, 0) == 0xA706DD2F4D197E6F
    assert derive_seed(0, 1) == 0x5E41AB087439611E
    assert derive_seed(1, 0) == 0x08B4FDA8C892B50E
    assert derive_seed(2**64 - 1, 2**64 - 1) == 0x6309143E67A47936


def test_derive_seed_range_and_determinism():
    for base, idx in [(0, 0), (17, 3), (2**63, 2**40)]:
        s = derive_seed(base, idx)
        assert 0 <= s <= MASK64
        assert s == derive_seed(base, idx)


def test_derive_seed_distinct_streams():
    seen = {derive_seed(42, i) for i in range(100_000)}
    assert len(seen) == 100_000
    # different bases give different streams
    assert derive_seed(1, 5) != derive_seed(2, 5)


def test_derive_seed_avalanche():
    # flipping any single index bit flips at least 20 output bits on average-case input
    flips = []
    for b in range(64):
        a = derive_seed(12345, 777)
        c = derive_seed(12345, 777 ^ (1 << b))
        flips.append(bin(a ^ c).count("1"))
    assert min(flips) >= 20
    assert 24 <= statistics.mean(flips) <= 40


def test_map_trials_keeps_job_order_with_more_workers_than_jobs():
    jobs = [5, 0, 3]
    assert map_trials(lambda i, _: splitmix64(jobs[i]), len(jobs), 0, workers=8) == [splitmix64(j) for j in jobs]


def test_map_trials_empty_jobs():
    assert map_trials(lambda i, seed: seed, 0, 0, workers=1) == []
    assert map_trials(lambda i, seed: seed, 0, 0, workers=4) == []


def test_map_trials_single_worker_runs_in_process():
    seen = []

    def record(i, _):  # runs in the calling thread, so the calls come in index order
        seen.append(i)
        return os.getpid(), i * i

    assert map_trials(record, 4, 0, workers=1) == [(os.getpid(), i * i) for i in range(4)]
    assert seen == [0, 1, 2, 3]


def test_map_trials_runs_workers_as_threads_of_this_process():
    def record(i, _):  # a closure: a process pool could not pickle it
        return os.getpid(), i

    assert map_trials(record, 7, 0, workers=3) == [(os.getpid(), i) for i in range(7)]


@pytest.mark.parametrize("count", [0, 1, 7])
@pytest.mark.parametrize("workers", [1, 3, 8])
def test_map_trials_gives_trial_i_its_derived_seed_on_any_worker_count(workers, count):
    base = 0x0123456789ABCDEF

    def trial(i, seed):
        time.sleep(0.001 * (count - i))  # later trials finish first on a pool
        return i, seed

    assert map_trials(trial, count, base, workers) == [(i, derive_seed(base, i)) for i in range(count)]


def test_map_trials_worker_exception_reaches_the_caller():
    raised = ValueError("trial 4 failed")

    def trial(i, _):
        if i == 4:
            raise raised
        return i

    with pytest.raises(ValueError) as info:
        map_trials(trial, 7, 0, workers=3)
    assert info.value is raised


def test_one_blas_thread_sets_and_restores(thread_control):
    get, set_threads = thread_control
    original = get()
    set_threads(3)  # a count other than 1 even on a one-core machine
    try:
        with one_blas_thread():
            assert get() == 1
        assert get() == 3
        a = np.diag(np.linspace(-1.0, 1.0, 8))
        empirical_tail(a, DistSpec("rademacher"), np.array([0.0, 1.0]), 300, 0)
        assert get() == 3
    finally:
        set_threads(original)


def test_one_blas_thread_without_openblas_warns_once_and_runs(openblas_lacking):
    # a library without either thread function: set is looked up only where get was found, so one warning;
    # the tail's dtrmm is still found
    openblas_lacking("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with one_blas_thread():
            pass
        a = np.diag(np.linspace(-1.0, 1.0, 8))
        tail = empirical_tail(a, DistSpec("rademacher"), np.array([0.0, 1.0]), 600, 0)
    assert [w.category for w in caught] == [RuntimeWarning]
    assert "OpenBLAS thread control was not found" in str(caught[0].message)
    assert tail.survival[0] == 1.0
