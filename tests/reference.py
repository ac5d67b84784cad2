"""Reference formulas the tests check the library against; no run calls them.

Each is the plain per-draw or one-call form of something ``rmtlab``
computes another way: the projection and quadratic-form deviations of one
vector (the tail computes both in blocks of draws), the projection lemma's
envelope with its explicit constants, the truncation standardizer, and one
generator call per kind (``ensembles._fill`` streams the same bits in
chunks).
"""

import math

import numpy as np

from rmtlab.concentration import TailEnvelope, WeightedFrame
from rmtlab.ensembles import _SIGNS, UNIFORM_BOUND, DistSpec, ParameterError, TruncationReport
from rmtlab.spectral import ContractError


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
