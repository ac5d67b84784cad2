"""Reference formulas the tests check the library against; no run calls them.

Each is the plain per-draw or one-call form of something ``rmtlab``
computes another way: the projection and quadratic-form deviations of one
vector (the tail computes both in blocks of draws), the projection lemma's
envelope with its explicit constants, the truncation standardizer, one
generator call per kind (``ensembles._fill`` streams the same bits in
chunks), the checked eigh and SVD of one matrix or a stack (the trials
solve in place with ``spectral._eigh_owned``, through ``gram_triplets``, or
in one stacked LAPACK call per shape), and LAPACK's two-stage values-only
solve on a column-major copy (``_eigh_owned`` runs it in the matrix's own
memory).
"""

import ctypes
import math

import numpy as np

from rmtlab.concentration import TailEnvelope, WeightedFrame
from rmtlab.covariance import SingularTriplets, _thin_svd
from rmtlab.ensembles import _SIGNS, UNIFORM_BOUND, DistSpec, ParameterError, TruncationReport
from rmtlab.spectral import ContractError, check_hermitian


def weighted_projection(x: np.ndarray, frame: WeightedFrame) -> float:
    """f(X) = sqrt(sum_j c_j |u_j* X|^2)."""
    x = np.asarray(x)
    if x.shape[0] != frame.basis.shape[0]:
        raise ContractError("vector and frame dimensions differ")
    coeffs = np.abs(np.conj(frame.basis).T @ x) ** 2
    return float(np.sqrt(np.sum(frame.weights * coeffs)))


def projection_deviation(x: np.ndarray, frame: WeightedFrame) -> float:
    """Signed deviation f(X) - sqrt(sum_j c_j)."""
    return weighted_projection(x, frame) - math.sqrt(float(np.sum(frame.weights)))


def quadratic_deviation(x: np.ndarray, a: np.ndarray) -> complex:
    """X* A X - trace(A)."""
    x = np.asarray(x)
    a = np.asarray(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] != x.shape[0]:
        raise ContractError("matrix must be square and match the vector length")
    return complex(np.conj(x) @ (a @ x) - np.trace(a))


def lemma_projection_envelope(K: float) -> TailEnvelope:
    """The projection bound with its explicit constants, 10 exp(-t^2/(20 K^2))."""
    return TailEnvelope(kind="projection", C=10.0, Cprime=1.0 / 20.0, K=K)


def standardize_truncated(x: np.ndarray, report: TruncationReport) -> np.ndarray:
    """Truncate at K, recenter by mu and rescale by sigma.

    Entries with |x_i| > K are replaced by 0 before standardizing, so each
    output entry is (x_i 1_{|x_i|<=K} - mu)/sigma, bounded by 2K whenever
    eps2, eps3 <= 1/2.
    """
    if report.sigma2 <= 0:
        raise ParameterError("truncated distribution is degenerate (sigma2 <= 0)")
    clipped = np.where(np.abs(x) <= report.K, x, 0.0)
    return (clipped - report.mu) / math.sqrt(report.sigma2)


def one_call_draw(dist: DistSpec, size, rng: np.random.Generator) -> np.ndarray:
    """The former per-kind body of ``ensembles._draw``, kept as the oracle of ``_fill``: each kind in one call."""
    if dist.kind == "gaussian":
        return rng.standard_normal(size)
    if dist.kind == "bounded_uniform":
        return rng.uniform(-UNIFORM_BOUND, UNIFORM_BOUND, size=size)
    sign = _SIGNS.take(rng.integers(0, 2, size=size))
    if dist.kind == "rademacher":
        return sign
    # subexp: sign * E^alpha, standardized
    return sign * rng.standard_exponential(size) ** dist.alpha / dist.subexp_scale


def eig_decompose(w: np.ndarray):
    """numpy's ``EighResult`` of a Hermitian matrix: ascending ``eigenvalues`` and matching ``eigenvectors`` columns.

    A stack of matrices gives stacked results, with the bits of one eigh per matrix.
    """
    check_hermitian(w)
    return np.linalg.eigh(w)


def singular_triplets(m: np.ndarray) -> SingularTriplets:
    """The SVD's triplets of a p x n factor (p <= n), or of a stack of them (leading axes)."""
    p, n = m.shape[-2:]
    if p > n:
        raise ContractError("factor must have p <= n")
    return _thin_svd(m)


def two_stage_eigvalsh(a: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of a real symmetric matrix from numpy's OpenBLAS ``dsyevd_2stage`` (jobz 'N').

    The call reads the lower triangle of a Fortran-ordered copy, as numpy's
    eigvalsh hands LAPACK its input, and sizes its workspace by LAPACK's
    query; ``a`` is left as it was.
    """
    from numpy._core import _multiarray_umath

    syevd = ctypes.CDLL(_multiarray_umath.__file__).scipy_dsyevd_2stage_64_
    # jobz, uplo, n, a, lda, w, work, lwork, iwork, liwork, info, then the lengths of jobz and uplo
    syevd.argtypes = (ctypes.c_char_p,) * 2 + (ctypes.c_void_p,) * 9 + (ctypes.c_size_t,) * 2
    syevd.restype = None
    copy = np.array(a, dtype=np.float64, order="F")
    n = copy.shape[0]
    w = np.empty(n)
    info = ctypes.c_int64(0)

    def call(work, iwork, lwork, liwork):
        sizes = [ctypes.c_int64(k) for k in (n, max(n, 1), lwork, liwork)]
        syevd(
            b"N", b"L", ctypes.byref(sizes[0]), copy.ctypes.data, ctypes.byref(sizes[1]), w.ctypes.data,
            work.ctypes.data, ctypes.byref(sizes[2]), iwork.ctypes.data, ctypes.byref(sizes[3]),
            ctypes.byref(info), 1, 1,
        )
        assert info.value == 0, f"dsyevd_2stage info {info.value}"

    work, iwork = np.empty(1), np.empty(1, dtype=np.int64)
    call(work, iwork, -1, -1)  # the query: LAPACK writes the sizes it wants
    lwork, liwork = int(work[0]), int(iwork[0])
    call(np.empty(lwork), np.empty(liwork, dtype=np.int64), lwork, liwork)
    return w
