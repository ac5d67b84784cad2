"""The in-place eigensolver of trial matrices against numpy's eigh and eigvalsh.

``spectral._eigh_owned`` runs OpenBLAS's dsyevd on the matrix's own memory,
read as column-major, so it reads the upper triangle where numpy reads the
lower.  Its bits equal numpy's when the matrix equals its own transpose bit
for bit, which the trial matrices (Wigner draws and SYRK Gram products) do.
"""

import warnings

import numpy as np
import pytest

from rmtlab import seeds, spectral
from rmtlab.covariance import gram_triplets
from rmtlab.ensembles import KINDS, DistSpec, sample_rect, sample_wigner
from rmtlab.spectral import _eigh_owned

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
def test_owned_eigvalsh_matches_numpy_eigvalsh_bit_for_bit(source, kind, n):
    a = MATRICES[source](kind, n)
    expected = np.linalg.eigvalsh(a)
    assert _eigh_owned(a, vectors=False).tobytes() == expected.tobytes()


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


@pytest.mark.parametrize(
    "a",
    [
        np.array([[2.0, 1.0 - 1.0j], [1.0 + 1.0j, 3.0]]),  # complex
        np.asfortranarray(_wigner("gaussian", 5)),  # not C-contiguous
        _wigner("gaussian", 6)[::2, ::2],  # a strided view
        np.stack([_wigner("gaussian", 4), _wigner("rademacher", 4)]),  # a stack
        np.array([[2, 1], [1, 3]]),  # integers
    ],
    ids=["complex", "fortran", "view", "stack", "int"],
)
def test_owned_eigh_leaves_other_input_to_numpy_untouched(a):
    before = a.copy()
    expected, got = np.linalg.eigh(a), _eigh_owned(a)
    assert got[0].tobytes() == expected.eigenvalues.tobytes()
    assert got[1].tobytes() == expected.eigenvectors.tobytes()
    assert _eigh_owned(a, vectors=False).tobytes() == np.linalg.eigvalsh(a).tobytes()
    assert a.tobytes() == before.tobytes()


def test_owned_eigh_without_dsyevd_warns_once_and_gives_numpys_bits(monkeypatch):
    a = _wigner("gaussian", 40)
    expected, expected_vals = np.linalg.eigh(a), np.linalg.eigvalsh(a)
    monkeypatch.setattr(seeds, "_openblas", lambda: None)
    spectral._syevd.cache_clear()
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            vals, vecs = _eigh_owned(a.copy())
            values_only = _eigh_owned(a.copy(), vectors=False)
        assert [w.category for w in caught] == [RuntimeWarning]
        assert "dsyevd was not found" in str(caught[0].message)
        assert vals.tobytes() == expected.eigenvalues.tobytes()
        assert vecs.tobytes() == expected.eigenvectors.tobytes()
        assert values_only.tobytes() == expected_vals.tobytes()
    finally:
        spectral._syevd.cache_clear()


def test_owned_eigvalsh_allocates_under_n_squared_bytes(peak_bytes):
    # dsyevd without vectors wants about n (block size + 2) doubles of workspace; numpy's eigvalsh copies the
    # whole 8 n^2-byte matrix first, outside tracemalloc's sight
    n = 1000
    a = _wigner("rademacher", n)
    vals, peak = peak_bytes(_eigh_owned, a, False)
    assert vals.shape == (n,)
    assert peak < n * n
