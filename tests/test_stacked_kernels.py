"""Each stack-aware kernel, fed a stack of inputs, gives the bits of one call per input.

The identities experiment calls each kernel once per shape group, on a stack
laid out by ``spectral._aligned`` (every matrix on a 16-byte boundary, as a
lone array is); these tests build their stacks the same way and compare
``tobytes()`` against single calls.  Wigner sizes n in {1, 2, 3, 16}, factor
shapes p x pn with p = pn and p < pn, real and complex entries.
"""

import math

import numpy as np
import pytest

from rmtlab.covariance import covariance_schur_residual, singular_identities, singular_triplets
from rmtlab.delocalization import _minor_identity, _pole_sums, wigner_identities
from rmtlab.ensembles import form_gram
from rmtlab.locallaw import _schur_residual, schur_identity_residual
from rmtlab.spectral import _aligned, eig_decompose

SIZES = [1, 2, 3, 16]
FACTOR_SHAPES = [(1, 1), (2, 2), (3, 3), (16, 16), (2, 5), (3, 16)]
STACK = 5
Z = 0.3 + 0.7j


def _draw(rng, shape, complex_entries):
    entries = rng.standard_normal(shape)
    return entries + 1j * rng.standard_normal(shape) if complex_entries else entries


def _hermitian_stack(n, complex_entries, seed, batch=(STACK,)):
    g = _draw(np.random.default_rng(seed), (*batch, n, n), complex_entries)
    return _aligned((g + np.conj(np.swapaxes(g, -1, -2))) / 2)


def _factor_stack(p, pn, complex_entries, seed):
    return _aligned(_draw(np.random.default_rng(seed), (STACK, p, pn), complex_entries))


def _assert_stacked(stacked, singles):
    """``stacked`` (an array or a tuple of arrays) holds ``singles``, one call's result per matrix, bit for bit."""
    if not isinstance(stacked, tuple):
        stacked, singles = (stacked,), [(single,) for single in singles]
    for k, result in enumerate(stacked):
        flat = np.reshape(result, (len(singles), *np.shape(singles[0][k])))
        for row, single in zip(flat, singles):
            assert np.asarray(single[k]).dtype == row.dtype
            assert np.asarray(single[k]).tobytes() == row.tobytes()


@pytest.mark.parametrize("n", SIZES)
def test_pole_sums_and_minor_identity_stack(n):
    rng = np.random.default_rng(n)
    m = n - 1
    weights, poles, mvals = rng.random((STACK, m)), rng.standard_normal((STACK, m)), rng.standard_normal((STACK, m))
    vals, coord, diag = rng.standard_normal((STACK, n)), rng.standard_normal((STACK, n)), rng.standard_normal(STACK)
    if m:
        vals[0, 0] = mvals[0, 0]  # a point on a pole: inf or nan, alike in both
    for power in (1, 2):
        singles = [_pole_sums(weights[j], poles[j], vals[j], power) for j in range(STACK)]
        _assert_stacked(_pole_sums(weights, poles, vals, power), singles)
    singles = [_minor_identity(vals[j], coord[j], mvals[j], weights[j], float(diag[j])) for j in range(STACK)]
    with np.errstate(divide="ignore", invalid="ignore"):
        _assert_stacked(_minor_identity(vals, coord, mvals, weights, diag), singles)


@pytest.mark.parametrize("complex_entries", [False, True], ids=["real", "complex"])
@pytest.mark.parametrize("n", SIZES)
def test_wigner_kernels_stack(n, complex_entries):
    w = _hermitian_stack(n, complex_entries, seed=10 + n)
    decomp = eig_decompose(w)
    singles = [eig_decompose(one) for one in w]
    _assert_stacked(tuple(decomp), [tuple(one) for one in singles])
    _assert_stacked(wigner_identities(w, decomp), [wigner_identities(one, d) for one, d in zip(w, singles)])
    m = math.sqrt(n) * w
    eigs = decomp.eigenvalues
    _assert_stacked(schur_identity_residual(m, Z, eigs), [schur_identity_residual(a, Z, e) for a, e in zip(m, eigs)])
    _assert_stacked(_schur_residual(w, Z, eigs), [_schur_residual(a, Z, e) for a, e in zip(w, eigs)])


@pytest.mark.parametrize("complex_entries", [False, True], ids=["real", "complex"])
@pytest.mark.parametrize("p, pn", FACTOR_SHAPES)
def test_factor_kernels_stack(p, pn, complex_entries):
    m = _factor_stack(p, pn, complex_entries, seed=100 * p + pn)
    trip = singular_triplets(m)
    singles = [singular_triplets(one) for one in m]
    for side in ("right", "left"):
        stacked = singular_identities(m, trip, side)
        _assert_stacked(stacked, [singular_identities(one, t, side) for one, t in zip(m, singles)])
    gram_eigs = trip.sigma**2 / pn
    stacked = covariance_schur_residual(m, Z, gram_eigs)
    _assert_stacked(stacked, [covariance_schur_residual(one, Z, e) for one, e in zip(m, gram_eigs)])
    _assert_stacked(form_gram(m), [form_gram(one) for one in m])


def test_two_batch_axes_and_a_lone_matrix():
    w = _hermitian_stack(6, False, seed=3, batch=(2, 3))
    decomp = eig_decompose(w)
    flat = w.reshape(-1, 6, 6)
    _assert_stacked(wigner_identities(w, decomp), [wigner_identities(one, eig_decompose(one)) for one in flat])
    residual = schur_identity_residual(w, Z, np.linalg.eigvalsh(w / math.sqrt(6)))
    assert residual.shape == (2, 3) and np.all(residual < 1e-12)
    # a lone matrix is the no-batch case: scalars and 1-D arrays as before
    lone = schur_identity_residual(w[0, 0], Z, np.linalg.eigvalsh(w[0, 0] / math.sqrt(6)))
    assert np.ndim(lone) == 0 and isinstance(lone, float)
    assert all(np.shape(out) == (6,) for out in wigner_identities(w[0, 0], eig_decompose(w[0, 0])))


def test_aligned_keeps_values_and_layout():
    rng = np.random.default_rng(0)
    c_order = rng.standard_normal((3, 5, 3))  # 15 doubles a matrix: every other one off a 16-byte boundary
    f_order = np.swapaxes(rng.standard_normal((3, 3, 5)), -1, -2)  # each matrix in F order
    for a, layout in ((c_order, "C_CONTIGUOUS"), (f_order, "F_CONTIGUOUS"), (c_order[..., :1], "C_CONTIGUOUS")):
        out = _aligned(a)
        assert np.array_equal(out, a) and out[0].flags[layout]
        assert all(one.ctypes.data % 16 == 0 for one in out)
    lone = rng.standard_normal((4, 4))
    assert _aligned(lone) is lone
