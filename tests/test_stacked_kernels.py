"""Each stack-aware kernel, fed a stack of inputs, gives the bits of one call per input.

The identities experiment calls each kernel once per shape group, on a
plain ``np.stack`` of its draws; these tests build their stacks the same way,
and again one float64 into a buffer, and compare ``tobytes()`` against single
calls on fresh copies.  Wigner sizes n in {1, 2, 3, 16}, factor shapes p x pn
with p = pn and p < pn, real and complex entries.  The experiment also
stacks matrices of different roles and instances that share a shape, one
LAPACK call per shape: a factor beside other factors' column and row minors,
a Wigner matrix beside a quadratic form's matrix and a larger one's minor.
The last test runs the experiment itself: a group's stack height moves with
the instance count, and an instance's rows must not.
"""

import numpy as np
import pytest
from reference import eig_decompose, minor_eigh, minor_triplets, singular_triplets

from rmtlab.covariance import _thin_svd, covariance_schur_residual, singular_identities
from rmtlab.delocalization import _minor_identity, _pole_sums, wigner_identities
from rmtlab.ensembles import form_gram
from rmtlab.harness import _gather, _per_shape, _records_text, config_from_dict, run_experiment
from rmtlab.locallaw import schur_identity_residual

SIZES = [1, 2, 3, 16]
FACTOR_SHAPES = [(1, 1), (2, 2), (3, 3), (16, 16), (2, 5), (3, 16)]
STACK = 5
Z = 0.3 + 0.7j


def _draw(rng, shape, complex_entries):
    entries = rng.standard_normal(shape)
    return entries + 1j * rng.standard_normal(shape) if complex_entries else entries


def _hermitian_stack(n, complex_entries, seed, batch=(STACK,)):
    g = _draw(np.random.default_rng(seed), (*batch, n, n), complex_entries)
    return np.stack(list((g + np.conj(np.swapaxes(g, -1, -2))) / 2))


def _factor_stack(p, pn, complex_entries, seed):
    return np.stack(list(_draw(np.random.default_rng(seed), (STACK, p, pn), complex_entries)))


def _offset(a):
    """A copy of ``a`` that starts one float64 into its buffer, where no fresh array starts."""
    out = np.empty(a.nbytes // 8 + 1)[1:].view(a.dtype).reshape(a.shape)
    out[...] = a
    return out


def _assert_stacked(stacked, singles):
    """``stacked`` (an array or a tuple of arrays) holds ``singles``, one call's result per matrix, bit for bit."""
    if not isinstance(stacked, tuple):
        stacked, singles = (stacked,), [(single,) for single in singles]
    for k, result in enumerate(stacked):
        flat = np.reshape(result, (len(singles), *np.shape(singles[0][k])))
        for row, single in zip(flat, singles):
            assert np.asarray(single[k]).dtype == row.dtype
            assert np.asarray(single[k]).tobytes() == row.tobytes()


def _check_pole_sums_and_minor_identity(n, place):
    rng = np.random.default_rng(n)
    m = n - 1
    weights, poles, mvals = rng.random((STACK, m)), rng.standard_normal((STACK, m)), rng.standard_normal((STACK, m))
    vals, coord, diag = rng.standard_normal((STACK, n)), rng.standard_normal((STACK, n)), rng.standard_normal(STACK)
    if m:
        vals[0, 0] = mvals[0, 0]  # a point on a pole: inf or nan, alike in both
    weights, poles, mvals, vals, coord, diag = map(place, (weights, poles, mvals, vals, coord, diag))
    for power in (1, 2):
        singles = [_pole_sums(weights[j], poles[j], vals[j], power) for j in range(STACK)]
        _assert_stacked(_pole_sums(weights, poles, vals, power), singles)
    singles = [_minor_identity(vals[j], coord[j], mvals[j], weights[j], float(diag[j])) for j in range(STACK)]
    with np.errstate(divide="ignore", invalid="ignore"):
        _assert_stacked(_minor_identity(vals, coord, mvals, weights, diag), singles)


def _check_wigner_kernels(w):
    n = w.shape[-1]
    decomp = eig_decompose(w)
    lone = [one.copy() for one in w]
    singles = [eig_decompose(one) for one in lone]
    _assert_stacked(tuple(decomp), [tuple(one) for one in singles])
    one_by_one = [wigner_identities(one, d, minor_eigh(one)) for one, d in zip(lone, singles)]
    _assert_stacked(wigner_identities(w, decomp, minor_eigh(w)), one_by_one)
    eigs = decomp.eigenvalues
    singles = [schur_identity_residual(a, Z, e) for a, e in zip(lone, eigs)]
    _assert_stacked(schur_identity_residual(w, Z, eigs), singles)


def _check_factor_kernels(m):
    pn = m.shape[-1]
    trip = singular_triplets(m)
    lone = [one.copy() for one in m]
    singles = [singular_triplets(one) for one in lone]
    for side in ("right", "left"):
        stacked = singular_identities(m, trip, side, minor_triplets(m, side))
        one_by_one = [singular_identities(one, t, side, minor_triplets(one, side)) for one, t in zip(lone, singles)]
        _assert_stacked(stacked, one_by_one)
    gram_eigs = trip.sigma**2 / pn
    stacked = covariance_schur_residual(m, Z, gram_eigs)
    _assert_stacked(stacked, [covariance_schur_residual([one], Z, e[None]) for one, e in zip(lone, gram_eigs)])
    _assert_stacked(form_gram(m), [form_gram(one) for one in lone])


@pytest.mark.parametrize("n", SIZES)
def test_pole_sums_and_minor_identity_stack(n):
    _check_pole_sums_and_minor_identity(n, np.asarray)


@pytest.mark.parametrize("complex_entries", [False, True], ids=["real", "complex"])
@pytest.mark.parametrize("n", SIZES)
def test_wigner_kernels_stack(n, complex_entries):
    _check_wigner_kernels(_hermitian_stack(n, complex_entries, seed=10 + n))


@pytest.mark.parametrize("complex_entries", [False, True], ids=["real", "complex"])
@pytest.mark.parametrize("p, pn", FACTOR_SHAPES)
def test_factor_kernels_stack(p, pn, complex_entries):
    _check_factor_kernels(_factor_stack(p, pn, complex_entries, seed=100 * p + pn))


# the same checks on stacks one float64 into their buffer: each matrix sits 8 bytes from where a plain stack puts it
@pytest.mark.parametrize("n", SIZES)
def test_pole_sums_and_minor_identity_offset_stack(n):
    _check_pole_sums_and_minor_identity(n, _offset)


@pytest.mark.parametrize("complex_entries", [False, True], ids=["real", "complex"])
@pytest.mark.parametrize("n", SIZES)
def test_wigner_kernels_offset_stack(n, complex_entries):
    _check_wigner_kernels(_offset(_hermitian_stack(n, complex_entries, seed=10 + n)))


@pytest.mark.parametrize("complex_entries", [False, True], ids=["real", "complex"])
@pytest.mark.parametrize("p, pn", FACTOR_SHAPES)
def test_factor_kernels_offset_stack(p, pn, complex_entries):
    _check_factor_kernels(_offset(_factor_stack(p, pn, complex_entries, seed=100 * p + pn)))


@pytest.mark.parametrize("complex_entries", [False, True], ids=["real", "complex"])
@pytest.mark.parametrize("p, pn", [(1, 4), (3, 5), (2, 16)])
def test_stacks_mixing_roles_keep_lone_bits(p, pn, complex_entries):
    # a p x pn factor shares one SVD with the column minor of a p x (pn + 1) factor and the row minor of a
    # (p + 1) x pn one; a Wigner matrix of size pn shares one eigh with a quadratic form's matrix and the minor of
    # a size pn + 1 Wigner matrix. Each row is a lone call's, and the identities read the minors' rows as their own
    rng = np.random.default_rng(100 * p + pn)
    wide, tall = _draw(rng, (p, pn + 1), complex_entries), _draw(rng, (p + 1, pn), complex_entries)
    factors = {"factor": _draw(rng, (p, pn), complex_entries), "right": wide[:, :-1], "left": tall[:-1]}
    big_w = _hermitian_stack(pn + 1, complex_entries, seed=p, batch=(1,))[0]
    hermitians = {"w": _hermitian_stack(pn, complex_entries, seed=p + 1, batch=(1,))[0], "minor": big_w[:-1, :-1]}
    hermitians["a"] = _hermitian_stack(pn, complex_entries, seed=p + 2, batch=(1,))[0]
    svds, eighs = _per_shape(_thin_svd, factors), _per_shape(np.linalg.eigh, hermitians)
    for solve, matrices, solved in ((_thin_svd, factors, svds), (np.linalg.eigh, hermitians, eighs)):
        assert len({id(result) for result, _ in solved.values()}) == 1  # one call for the whole stack
        for key, matrix in matrices.items():
            _assert_stacked(tuple(_gather(solved, [key])), [tuple(solve(matrix.copy()))])
    for side, m in (("right", wide), ("left", tall)):
        lone = m.copy()
        stacked = singular_identities(m[None], singular_triplets(m[None]), side, _gather(svds, [side]))
        _assert_stacked(stacked, [singular_identities(lone, singular_triplets(lone), side, minor_triplets(lone, side))])
    lone = big_w.copy()
    stacked = wigner_identities(big_w[None], eig_decompose(big_w[None]), _gather(eighs, ["minor"]))
    _assert_stacked(stacked, [wigner_identities(lone, eig_decompose(lone), minor_eigh(lone))])


def test_two_batch_axes_and_a_lone_matrix():
    w = _hermitian_stack(6, False, seed=3, batch=(2, 3))
    decomp = eig_decompose(w)
    flat = w.reshape(-1, 6, 6)
    singles = [wigner_identities(one, eig_decompose(one), minor_eigh(one)) for one in flat]
    _assert_stacked(wigner_identities(w, decomp, minor_eigh(w)), singles)
    residual = schur_identity_residual(w, Z, np.linalg.eigvalsh(w))
    assert residual.shape == (2, 3) and np.all(residual < 1e-12)
    # a lone matrix is the no-batch case: scalars and 1-D arrays as before
    lone = schur_identity_residual(w[0, 0], Z, np.linalg.eigvalsh(w[0, 0]))
    assert np.ndim(lone) == 0 and isinstance(lone, float)
    assert all(np.shape(out) == (6,) for out in wigner_identities(w[0, 0], eig_decompose(w[0, 0]), minor_eigh(w[0, 0])))


@pytest.mark.parametrize("base_seed, kind", [(1, "rademacher"), (3, "gaussian")])
def test_identity_rows_do_not_depend_on_the_run(base_seed, kind):
    # a run of k instances stacks fewer matrices in each shape group than a run of 60, and gives the same rows
    def records(trials):
        raw = dict(experiment="identities", trials=trials, base_seed=base_seed, dist={"kind": kind})
        return run_experiment(config_from_dict(raw), write=False).records

    big = records(60)
    for k in (1, 7, 20, 59):
        first = big["instance"] < k
        assert _records_text({name: column[first] for name, column in big.items()}) == _records_text(records(k))
