import os
import statistics
import warnings

import numpy as np
import pytest

from rmtlab import seeds
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
    assert map_trials(splitmix64, jobs, workers=8) == [splitmix64(j) for j in jobs]


def test_map_trials_empty_jobs():
    assert map_trials(splitmix64, [], workers=1) == []
    assert map_trials(splitmix64, [], workers=4) == []


def test_map_trials_single_worker_runs_in_process():
    seen = []

    def record(job):  # runs in the calling thread, so the calls come in job order
        seen.append(job)
        return os.getpid(), job * job

    assert map_trials(record, range(4), workers=1) == [(os.getpid(), j * j) for j in range(4)]
    assert seen == [0, 1, 2, 3]


def test_map_trials_runs_workers_as_threads_of_this_process():
    def record(job):  # a closure: a process pool could not pickle it
        return os.getpid(), job

    assert map_trials(record, range(7), workers=3) == [(os.getpid(), j) for j in range(7)]


def test_one_blas_thread_sets_and_restores():
    calls = seeds._find_openblas()
    if calls is None:
        pytest.skip("numpy is not built on its bundled OpenBLAS")
    get, set_threads = calls
    original = get()
    set_threads(3)  # a count other than 1 even on a one-core machine
    try:
        with one_blas_thread():
            assert get() == 1
        assert get() == 3
        a = np.diag(np.linspace(-1.0, 1.0, 8))
        empirical_tail("quadratic", DistSpec("rademacher"), np.array([0.0, 1.0]), 300, 0, matrix=a)
        assert get() == 3
    finally:
        set_threads(original)


def test_one_blas_thread_without_openblas_warns_once_and_runs(monkeypatch):
    monkeypatch.setattr(seeds, "_find_openblas", lambda: None)
    seeds._openblas_threads.cache_clear()
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with one_blas_thread():
                pass
            a = np.diag(np.linspace(-1.0, 1.0, 8))
            tail = empirical_tail("quadratic", DistSpec("rademacher"), np.array([0.0, 1.0]), 600, 0, matrix=a)
        assert [w.category for w in caught] == [RuntimeWarning]
        assert tail.survival[0] == 1.0
    finally:
        seeds._openblas_threads.cache_clear()
