"""Local semicircle law machinery.

Schur-complement resolvent terms of the diagonal expansion of a Hermitian h,

    s_h(z) = (1/n) sum_k 1/(h_kk - z - Y_k),
    Y_k    = a_k* (h_minor - z)^-1 a_k,

with a_k the k-th column of h without h_kk (the sign of the diagonal term
is fixed by requiring the expansion to be an exact identity).  One private
kernel serves both ensembles: the Wigner functions here pass h = M/sqrt(n),
so h_kk = zeta_kk/sqrt(n), and ``rmtlab.covariance`` passes the Gram matrix
h = MM*/n.  The two-route residuals take h's eigenvalues from the caller.

Also: self-consistent-equation residuals, sliding-window count deviation at
a given interval scale, and the empirical threshold-scale scan.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ensembles import DistSpec, ParameterError, sample_wigner
from .seeds import derive_seed, map_trials
from .spectral import (
    ContractError,
    DomainError,
    mp_interval_mass,
    sc_interval_mass,
    stieltjes_empirical,
)

STRIDE_FRAC = 0.25  # window stride of the count scans, as a fraction of the window length


@dataclass(frozen=True)
class SchurTerms:
    """Index-k terms of the diagonal resolvent expansion at a point z."""

    k: int
    diag: float  # zeta_kk / sqrt(n)
    yk: complex
    s_minor: complex  # Stieltjes transform of the k-th minor
    expected_yk: complex  # (1 - 1/n) * s_minor


def _check_z(z: complex) -> complex:
    z = complex(z)
    if z.imag <= 0:
        raise DomainError("Im z must be positive")
    return z


def _minor_parts(h: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray, float]:
    """(minor, a_k, h_kk) of a Hermitian h: a_k is column k of h without h_kk."""
    n = h.shape[0]
    if not 0 <= k < n:
        raise ContractError("index k out of range")
    keep = np.arange(n) != k
    return h[np.ix_(keep, keep)], h[keep, k], float(np.real(h[k, k]))


def _schur_parts(h: np.ndarray, z: complex, k: int) -> tuple[float, complex, complex]:
    """(h_kk, Y_k, s_minor) of a Hermitian h: Y_k = a_k* (minor - z)^-1 a_k by one solve.

    s_minor is the minor's Stieltjes transform from its eigenvalues, 0 for an
    empty minor.
    """
    z = _check_z(z)
    minor, a_k, h_kk = _minor_parts(h, k)
    yk = complex(np.conj(a_k) @ np.linalg.solve(minor - z * np.eye(a_k.size), a_k))
    s_minor = complex(np.mean(1.0 / (np.linalg.eigvalsh(minor) - z))) if a_k.size else 0.0j
    return h_kk, yk, s_minor


def _schur_residual(h: np.ndarray, z: complex, eigs: np.ndarray) -> float:
    """|(1/n) sum_k 1/(h_kk - z - Y_k) - s_h(z)|, all n minors in one stacked solve; eigs are h's."""
    z = _check_z(z)
    n = h.shape[0]
    if np.shape(eigs) != (n,):
        raise ContractError("need one eigenvalue per row of the matrix")
    rest = np.nonzero(~np.eye(n, dtype=bool))[1].reshape(n, n - 1)  # row k: every index but k
    cols = np.take_along_axis(h.T, rest, axis=1)  # row k: column k of h without h_kk
    minors = h[rest[:, :, None], rest[:, None, :]] - z * np.eye(n - 1)
    solves = np.linalg.solve(minors, cols[..., None])[..., 0]
    total = 0.0j
    for h_kk, a_k, solve in zip(np.real(np.diag(h)).tolist(), cols, solves):
        total += 1.0 / (h_kk - z - complex(np.conj(a_k) @ solve))
    return abs(total / n - stieltjes_empirical(eigs, z))


def schur_terms(m: np.ndarray, z: complex, k: int) -> SchurTerms:
    """Y_k and companions for row/column k of the unnormalized matrix M (W = M/sqrt(n))."""
    n = m.shape[0]
    diag, yk, s_minor = _schur_parts(m / math.sqrt(n), z, k)
    return SchurTerms(k=k, diag=diag, yk=yk, s_minor=s_minor, expected_yk=(1.0 - 1.0 / n) * s_minor)


def schur_identity_residual(m: np.ndarray, z: complex, eigs: np.ndarray) -> float:
    """|two-route gap| of the diagonal expansion of W = M/sqrt(n): the k-sum versus s_n(z) of eigs(W)."""
    return _schur_residual(m / math.sqrt(m.shape[0]), z, eigs)


def yk_r_decomposition(m: np.ndarray, z: complex, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Minor eigenvalues and overlap residuals R_j = |u_j* X_k|^2 - 1.

    X_k = sqrt(n) a_k, so (1/n) sum_j R_j/(lambda_j - z) recombines to
    Y_k - E(Y_k | minor).
    """
    z = _check_z(z)
    n = m.shape[0]
    w_minor, a_k, _ = _minor_parts(m / math.sqrt(n), k)
    vals, vecs = np.linalg.eigh(w_minor)
    x_k = math.sqrt(n) * a_k
    r = np.abs(np.conj(vecs).T @ x_k) ** 2 - 1.0
    return vals, r


def yk_deviation(m: np.ndarray, z: complex, k: int) -> complex:
    """Y_k - E(Y_k | minor) = (1/n) sum_j R_j / (lambda_j - z)."""
    terms = schur_terms(m, z, k)
    return terms.yk - terms.expected_yk


def self_consistency_residual(eigs: np.ndarray, z: complex) -> float:
    """|s_n(z) + 1/(z + s_n(z))|, the defining-equation residual."""
    z = _check_z(z)
    s = stieltjes_empirical(eigs, z)
    denom = z + s
    if denom == 0:
        raise DomainError("z + s_n(z) vanishes")
    return abs(s + 1.0 / denom)


def _interval_mass(density, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    if density == "semicircle":
        return sc_interval_mass(lo, hi)
    kind, y = density
    if kind != "mp":
        raise ParameterError(f"unknown density {density!r}")
    return mp_interval_mass(lo, hi, y)


@dataclass(frozen=True)
class LawDeviation:
    """Sliding-window count deviation from a reference density.

    ``windows`` is a structured array with one element per window and the
    fields window_lo, window_hi, N_I (the count), expected_mass and rel_dev.
    """

    max_rel_dev: float
    windows: np.ndarray


def _window_starts(lo: float, hi: float, stride: float) -> np.ndarray:
    """lo, lo + stride, ... up to at least hi, each with the bits of repeated float addition."""
    return np.cumsum(np.r_[lo, np.full(int(math.ceil((hi - lo) / stride)) + 1, stride)])


def law_deviation(eigs: np.ndarray, density, scale: float, bulk: tuple[float, float]) -> LawDeviation:
    """Worst window-count deviation at interval length ``scale``.

    Windows of length ``scale`` slide across ``bulk`` with stride
    ``STRIDE_FRAC * scale``; the last one is clipped at the bulk's upper
    end.  The expected count is n * integral of the density over the
    window, n = len(eigs); windows of zero expected count are skipped.
    """
    if scale <= 0:
        raise ParameterError("scale must be positive")
    eigs = np.sort(np.asarray(eigs))
    n = eigs.size
    lo, hi = bulk
    if not lo < hi:
        raise ContractError("bulk interval needs lo < hi")
    starts = _window_starts(lo, hi, STRIDE_FRAC * scale)
    w_lo = starts[: np.argmax(starts + scale >= hi - 1e-12) + 1]  # up to the first reaching hi
    w_hi = np.minimum(w_lo + scale, hi)
    count = np.searchsorted(eigs, w_hi) - np.searchsorted(eigs, w_lo)
    mass = n * _interval_mass(density, w_lo, w_hi)
    keep = mass > 0
    w_lo, w_hi, count, mass = w_lo[keep], w_hi[keep], count[keep], mass[keep]
    rel = np.abs(count - mass) / mass
    names = "window_lo,window_hi,N_I,expected_mass,rel_dev"
    windows = np.rec.fromarrays([w_lo, w_hi, count, mass, rel], names=names)
    return LawDeviation(max_rel_dev=float(np.max(rel, initial=0.0)), windows=windows)


def crude_count_check(eigs: np.ndarray, n: int, scale: float) -> float:
    """max over windows of N_I / (n |I|) on [min eig, max eig]."""
    if scale <= 0:
        raise ParameterError("scale must be positive")
    eigs = np.sort(np.asarray(eigs))
    lo, hi = float(eigs[0]), float(eigs[-1])
    w_lo = _window_starts(lo - scale / 2.0, hi, scale / 4.0)
    w_lo = w_lo[w_lo < hi]
    count = np.searchsorted(eigs, w_lo + scale) - np.searchsorted(eigs, w_lo)
    return int(count.max()) / (n * scale)


@dataclass(frozen=True)
class ThresholdEstimate:
    """Per-scale worst deviation and the smallest scale meeting the target."""

    scales: np.ndarray
    max_rel_dev: np.ndarray
    delta: float
    threshold_scale: float | None
    per_trial: list  # per trial, one LawDeviation per scale


def _scan_trial(args) -> list[LawDeviation]:
    """Sample one normalized Wigner matrix and scan the semicircle law at each scale."""
    dist, n, scales, bulk, seed = args
    eigs = np.linalg.eigvalsh(sample_wigner(dist, n, seed, normalize=True))
    return [law_deviation(eigs, "semicircle", s, bulk) for s in scales]


def threshold_scan(
    dist: DistSpec,
    n: int,
    scales,
    delta: float,
    trials: int,
    bulk: tuple[float, float],
    base_seed: int,
    workers: int = 1,
) -> ThresholdEstimate:
    """Scan interval scales for the smallest one where the count law holds.

    For each scale, the deviation is maximized over windows and over
    ``trials`` independent seeded matrices; the threshold is the smallest
    scanned scale whose worst deviation is at most ``delta`` (None if no
    scanned scale qualifies).  Trial t uses seed derive_seed(base_seed, t);
    its per-scale deviations, windows included, are kept in ``per_trial``.
    """
    scales = np.asarray(scales, dtype=np.float64)
    if np.any(np.diff(scales) <= 0):
        raise ParameterError("scales must be strictly ascending")
    if trials < 1:
        raise ParameterError("need at least one trial")
    jobs = [(dist, n, scales, bulk, derive_seed(base_seed, t)) for t in range(trials)]
    per_trial = map_trials(_scan_trial, jobs, workers)
    worst = np.max([[dev.max_rel_dev for dev in devs] for devs in per_trial], axis=0)
    threshold = None
    for s, dev in zip(scales, worst):
        if dev <= delta:
            threshold = float(s)
            break
    return ThresholdEstimate(
        scales=scales, max_rel_dev=worst, delta=delta, threshold_scale=threshold, per_trial=per_trial
    )


__all__ = [
    "STRIDE_FRAC",
    "LawDeviation",
    "SchurTerms",
    "ThresholdEstimate",
    "crude_count_check",
    "law_deviation",
    "schur_identity_residual",
    "schur_terms",
    "self_consistency_residual",
    "threshold_scan",
    "yk_deviation",
    "yk_r_decomposition",
]
