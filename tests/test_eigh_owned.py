"""The in-place eigensolver of trial matrices against numpy's eigh and LAPACK's two-stage values-only solve.

``spectral._eigh_owned`` runs OpenBLAS on the matrix's own memory, read as
column-major, so it reads the upper triangle where numpy reads the lower;
the two agree when the matrix equals its own transpose bit for bit, which
the trial matrices (Wigner draws and SYRK Gram products) do.  With vectors
it runs numpy's dsyevd, and its bits are ``np.linalg.eigh``'s.  Values
alone take dsyevd_2stage: its bits are those of ``reference.two_stage_eigvalsh``
on a column-major copy, and within n eps max(1, |lambda|_max) of ``eigvalsh``;
a numpy without that symbol falls back to ``eigvalsh``'s bits on a copy.  Any
input but a C-contiguous, writable, real float64 square matrix is refused.
"""

import warnings

import numpy as np
import pytest
from reference import two_stage_eigvalsh

from rmtlab.covariance import gram_triplets
from rmtlab.ensembles import KINDS, DistSpec, sample_rect, sample_wigner
from rmtlab.seeds import one_blas_thread
from rmtlab.spectral import ContractError, _eigh_owned

SIZES = [1, 2, 3, 16, 500]


def _wigner(kind, n):
    return sample_wigner(DistSpec(kind), n, 100 + n)


def _gram(kind, n):
    m = sample_rect(DistSpec(kind), n, 2 * n, 200 + n)
    return m @ m.conj().T  # as gram_triplets forms it


MATRICES = {"wigner": _wigner, "gram": _gram}


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("source", MATRICES)
def test_trial_matrices_equal_their_transpose_bit_for_bit(source, kind, n):
    # the condition the in-place solver's uplo choice rests on: its upper triangle is numpy's lower one
    a = MATRICES[source](kind, n)
    assert a.flags.c_contiguous and a.tobytes() == np.ascontiguousarray(a.T).tobytes()


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("source", MATRICES)
def test_owned_eigh_matches_numpy_eigh_bit_for_bit(source, kind, n):
    a = MATRICES[source](kind, n)
    expected = np.linalg.eigh(a)
    vals, vecs = _eigh_owned(a)
    assert np.shares_memory(vecs, a)  # the vectors are the overwritten matrix, no separate U
    assert vals.tobytes() == expected.eigenvalues.tobytes()
    assert vecs.tobytes() == expected.eigenvectors.tobytes()


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("source", MATRICES)
def test_owned_eigvalsh_is_dsyevd_2stage_bit_for_bit(source, kind, n):
    a = MATRICES[source](kind, n)
    expected = two_stage_eigvalsh(a)
    assert _eigh_owned(a, vectors=False).tobytes() == expected.tobytes()


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("source", MATRICES)
def test_owned_eigvalsh_matches_numpy_eigvalsh_bit_for_bit(source, kind, n, openblas_lacking):
    # a numpy without dsyevd_2stage: the values-only solve is numpy's eigvalsh on a copy, so its bits are
    # eigvalsh's and the matrix is left as it was, not overwritten by an in-place call
    a = MATRICES[source](kind, n)
    before = a.copy()
    expected = np.linalg.eigvalsh(a)
    openblas_lacking("scipy_dsyevd_2stage_64_")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        vals = _eigh_owned(a, vectors=False)
    assert [w.category for w in caught] == [RuntimeWarning]
    assert "dsyevd_2stage was not found" in str(caught[0].message)
    assert vals.tobytes() == expected.tobytes()
    assert a.tobytes() == before.tobytes()


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("source", MATRICES)
def test_owned_eigvalsh_is_within_n_eps_of_numpy_eigvalsh(source, kind, n):
    # both solves are backward stable, so they differ on the scale of the norm |lambda|_max, not of each lambda
    a = MATRICES[source](kind, n)
    expected = np.linalg.eigvalsh(a)
    vals = _eigh_owned(a, vectors=False)
    scale = max(1.0, np.max(np.abs(expected)))
    assert np.max(np.abs(vals - expected)) <= n * np.finfo(np.float64).eps * scale


@pytest.mark.parametrize(("p", "n"), [(1, 3), (16, 40), (200, 400)])
@pytest.mark.parametrize("kind", KINDS)
def test_gram_triplets_match_the_numpy_eigh_route_bit_for_bit(kind, p, n):
    # U comes back as the overwritten Gram matrix read as columns, a Fortran-ordered view; M* U must not depend on it
    m = sample_rect(DistSpec(kind), p, n, 300 + p)
    s2, left = np.linalg.eigh(m @ m.T)
    right = m.T @ left
    right /= np.linalg.norm(right, axis=0)
    trip = gram_triplets(m)
    assert trip.sigma.tobytes() == np.sqrt(s2).tobytes()
    assert trip.left.tobytes() == left.tobytes()
    assert trip.right.tobytes() == right.tobytes()


def _read_only(a):
    a.flags.writeable = False
    return a


@pytest.mark.parametrize(
    "a",
    [
        np.array([[2.0, 1.0 - 1.0j], [1.0 + 1.0j, 3.0]]),  # complex
        np.asfortranarray(_wigner("gaussian", 5)),  # not C-contiguous
        _wigner("gaussian", 6)[::2, ::2],  # a strided view
        np.stack([_wigner("gaussian", 4), _wigner("rademacher", 4)]),  # a stack
        np.array([[2, 1], [1, 3]]),  # integers
        _read_only(_wigner("gaussian", 5)),  # read-only
    ],
    ids=["complex", "fortran", "view", "stack", "int", "read-only"],
)
def test_owned_eigh_refuses_other_input_and_leaves_it_untouched(a, openblas_lacking):
    def refused_untouched():
        for vectors in (True, False):
            with pytest.raises(ContractError, match="C-contiguous, writable, real float64 square"):
                _eigh_owned(a, vectors)
        return a.tobytes() == before.tobytes()

    before = a.copy()
    assert refused_untouched()
    openblas_lacking()  # the input is checked before the routine is looked up, so a numpy without it refuses alike
    assert refused_untouched()


def test_owned_eigh_without_dsyevd_warns_once_and_gives_numpys_bits(openblas_lacking):
    a = _wigner("gaussian", 40)
    expected, expected_vals = np.linalg.eigh(a), np.linalg.eigvalsh(a)
    openblas_lacking()  # the library cannot be loaded
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        vals, vecs = _eigh_owned(a.copy())
    assert [w.category for w in caught] == [RuntimeWarning]
    assert "dsyevd was not found" in str(caught[0].message)
    assert vals.tobytes() == expected.eigenvalues.tobytes()
    assert vecs.tobytes() == expected.eigenvectors.tobytes()
    # each solver symbol warns once: the values-only solve names its own, and neither warns again
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        values_only = _eigh_owned(a.copy(), vectors=False)
        values_again = _eigh_owned(a.copy(), vectors=False)
        _, vecs_again = _eigh_owned(a.copy())
    assert [w.category for w in caught] == [RuntimeWarning]
    assert "dsyevd_2stage was not found" in str(caught[0].message)
    assert values_only.tobytes() == values_again.tobytes() == expected_vals.tobytes()
    assert vecs_again.tobytes() == expected.eigenvectors.tobytes()


def test_owned_eigvalsh_without_dsyevd_2stage_warns_once_and_gives_numpys_values(openblas_lacking):
    a = _wigner("rademacher", 60)
    expected = np.linalg.eigvalsh(a)
    openblas_lacking("scipy_dsyevd_2stage_64_")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        values_only = [_eigh_owned(a.copy(), vectors=False) for _ in range(2)]
        vals, _ = _eigh_owned(a.copy())  # dsyevd is still there
    assert [w.category for w in caught] == [RuntimeWarning]
    assert "dsyevd_2stage was not found" in str(caught[0].message)
    assert all(v.tobytes() == expected.tobytes() for v in values_only)
    assert vals.tobytes() == np.linalg.eigh(a).eigenvalues.tobytes()


def test_owned_eigh_without_dsyevd_in_a_loaded_library_warns_once_while_the_thread_pin_holds(
    openblas_lacking, thread_control
):
    # one missing symbol costs its own binding only: the thread functions of the same library still bind
    a = _wigner("gaussian", 40)
    expected = np.linalg.eigh(a)
    get, set_threads = thread_control
    original = get()
    openblas_lacking("scipy_dsyevd_64_")
    set_threads(3)
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with one_blas_thread():
                pinned = get()
                vals, vecs = _eigh_owned(a.copy())
        assert [w.category for w in caught] == [RuntimeWarning]
        assert "dsyevd was not found" in str(caught[0].message)
        assert pinned == 1 and get() == 3
        assert vals.tobytes() == expected.eigenvalues.tobytes()
        assert vecs.tobytes() == expected.eigenvectors.tobytes()
    finally:
        set_threads(original)


def test_owned_eigvalsh_allocates_under_n_squared_bytes(peak_bytes):
    # dsyevd_2stage without vectors wants a band of 32 columns and its own workspace, about 0.85 n^2 bytes at
    # n = 1000 (0.42 n^2 at 2000); numpy's eigvalsh copies the whole 8 n^2-byte matrix first, outside
    # tracemalloc's sight
    n = 1000
    a = _wigner("rademacher", n)
    vals, peak = peak_bytes(_eigh_owned, a, False)
    assert vals.shape == (n,)
    assert peak < n * n
