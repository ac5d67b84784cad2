"""Local semicircle law machinery.

Schur-complement resolvent terms of the diagonal expansion of a Hermitian h,

    s_h(z) = (1/n) sum_k 1/(h_kk - z - Y_k),
    Y_k    = a_k* (h_minor - z)^-1 a_k,

with a_k the k-th column of h without h_kk (the sign of the diagonal term
is fixed by requiring the expansion to be an exact identity).  One private
kernel, ``_schur_residual``, serves both ensembles: the Wigner residual here
passes h = M/sqrt(n), so h_kk = zeta_kk/sqrt(n), and ``rmtlab.covariance``
passes the Gram matrix h = MM*/n.  The two-route residuals take h's
eigenvalues from the caller.

Also: sliding-window count deviation at a given interval scale, and the
threshold-scale scan, a reduction over spectra the caller has already
drawn.  Both take the law as its mass function, ``interval_mass(lo, hi)``
applied elementwise on arrays: ``spectral.sc_interval_mass`` for Wigner
spectra, ``functools.partial(spectral.mp_interval_mass, y=y)`` for Gram
spectra.  Nothing here samples a matrix or runs trials.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ensembles import ParameterError
from .spectral import ContractError, _check_z, stieltjes_empirical

STRIDE_FRAC = 0.25  # window stride of the count scans, as a fraction of the window length
SCAN_WINDOWS_PER_N = 100  # the most windows per eigenvalue that one scale of a count scan may slide across its bulk


def _schur_residual(h: np.ndarray, z: complex, eigs: np.ndarray):
    """|(1/n) sum_k 1/(h_kk - z - Y_k) - s_h(z)|, all n minors in one stacked solve; eigs are h's.

    Leading axes before h's last two index a stack of matrices, with eigs
    stacked alike: one solve serves the whole stack and the result is an
    array over the stack, each value with the bits of one call per matrix.
    The k-sum runs left to right in Python complex arithmetic.
    """
    z = _check_z(z)
    n = h.shape[-1]
    if np.shape(eigs) != h.shape[:-1]:
        raise ContractError("need one eigenvalue per row of the matrix")
    rest = np.nonzero(~np.eye(n, dtype=bool))[1].reshape(n, n - 1)  # row k: every index but k
    # row k: column k of h without h_kk, in C order: on a stack the fancy index returns another layout,
    # whose BLAS dots below would sum in another order
    cols = np.ascontiguousarray(np.swapaxes(h, -1, -2)[..., np.arange(n)[:, None], rest])
    minors = h[..., rest[:, :, None], rest[:, None, :]] - z * np.eye(n - 1)
    solves = np.linalg.solve(minors, cols[..., None])
    yk = (np.conj(cols)[..., None, :] @ solves)[..., 0, 0]  # a_k* (h_minor - z)^-1 a_k, one dot per k
    terms = np.real(np.diagonal(h, axis1=-2, axis2=-1)) - z - yk
    residuals = []
    for row, row_eigs in zip(terms.reshape(-1, n).tolist(), np.reshape(eigs, (-1, n))):
        total = 0.0j
        for term in row:
            total += 1.0 / term
        residuals.append(abs(total / n - stieltjes_empirical(row_eigs, z)))
    return np.reshape(residuals, h.shape[:-2])[()]


def schur_identity_residual(m: np.ndarray, z: complex, eigs: np.ndarray):
    """|two-route gap| of the diagonal expansion of W = M/sqrt(n): the k-sum versus s_n(z) of eigs(W).

    A stack of matrices M (leading axes) with eigs stacked alike gives an array of gaps.
    """
    return _schur_residual(m / math.sqrt(m.shape[-1]), z, eigs)


@dataclass(frozen=True)
class LawDeviation:
    """Sliding-window count deviation from a reference law.

    ``windows`` is a structured array with one element per window and the
    fields window_lo, window_hi, N_I (the count), expected_mass and rel_dev.
    """

    max_rel_dev: float
    windows: np.ndarray


def _window_starts(lo: float, hi: float, stride: float) -> np.ndarray:
    """lo, lo + stride, ... up to at least hi, each with the bits of repeated float addition."""
    return np.cumsum(np.r_[lo, np.full(int(math.ceil((hi - lo) / stride)) + 1, stride)])


def least_scale(n: int, bulk: tuple[float, float]) -> float:
    """The finest window length ``law_deviation`` takes for n eigenvalues over ``bulk``.

    At stride STRIDE_FRAC times the length, a finer window would slide more
    than SCAN_WINDOWS_PER_N * n windows across the bulk (n = 1 for an empty
    spectrum).
    """
    lo, hi = bulk
    return (hi - lo) / (SCAN_WINDOWS_PER_N * max(n, 1) * STRIDE_FRAC)


def law_deviation(eigs: np.ndarray, interval_mass, scale: float, bulk: tuple[float, float]) -> LawDeviation:
    """Worst window-count deviation at interval length ``scale``.

    Windows of length ``scale`` slide across ``bulk`` with stride
    ``STRIDE_FRAC * scale``; the last one is clipped at the bulk's upper
    end.  The expected count is n * interval_mass(lo, hi) of the window,
    n = len(eigs), called once on the arrays of all window ends; windows of
    zero expected count are skipped.  A scale below ``least_scale(n, bulk)``
    raises ParameterError before any window is laid out.
    """
    if scale <= 0:
        raise ParameterError("scale must be positive")
    eigs = np.sort(np.asarray(eigs))
    n = eigs.size
    lo, hi = bulk
    if not lo < hi:
        raise ContractError("bulk interval needs lo < hi")
    least = least_scale(n, bulk)
    if scale < least:
        raise ParameterError(
            f"scale {scale:g} is below {least:.3g}: its windows over the bulk ({lo:g}, {hi:g})"
            f" would number more than {SCAN_WINDOWS_PER_N} per eigenvalue"
        )
    starts = _window_starts(lo, hi, STRIDE_FRAC * scale)
    w_lo = starts[: np.argmax(starts + scale >= hi - 1e-12) + 1]  # up to the first reaching hi
    w_hi = np.minimum(w_lo + scale, hi)
    count = np.searchsorted(eigs, w_hi) - np.searchsorted(eigs, w_lo)
    mass = n * interval_mass(w_lo, w_hi)
    keep = mass > 0
    w_lo, w_hi, count, mass = w_lo[keep], w_hi[keep], count[keep], mass[keep]
    rel = np.abs(count - mass) / mass
    names = "window_lo,window_hi,N_I,expected_mass,rel_dev"
    windows = np.rec.fromarrays([w_lo, w_hi, count, mass, rel], names=names)
    return LawDeviation(max_rel_dev=float(np.max(rel, initial=0.0)), windows=windows)


@dataclass(frozen=True)
class ThresholdEstimate:
    """Per-scale worst deviation and the smallest scale meeting the target."""

    scales: np.ndarray
    max_rel_dev: np.ndarray
    threshold_scale: float | None
    per_trial: list  # per spectrum, one LawDeviation per scale


def threshold_scan(spectra, interval_mass, scales, delta: float, bulk: tuple[float, float]) -> ThresholdEstimate:
    """Scan interval scales for the smallest one where the count law holds.

    ``spectra`` holds one eigenvalue array per trial, and ``interval_mass``
    is the law's mass function, as ``law_deviation`` takes it.  For each
    scale, the ``law_deviation`` is maximized over windows and over spectra;
    the threshold is the smallest scanned scale whose worst deviation is at
    most ``delta`` (None if no scanned scale qualifies).
    Each spectrum's per-scale deviations, windows included, are kept in
    ``per_trial``, in the order of ``spectra``.
    """
    scales = np.asarray(scales, dtype=np.float64)
    if np.any(np.diff(scales) <= 0):
        raise ParameterError("scales must be strictly ascending")
    if not len(spectra):
        raise ParameterError("need at least one spectrum")
    per_trial = [[law_deviation(eigs, interval_mass, s, bulk) for s in scales] for eigs in spectra]
    worst = np.max([[dev.max_rel_dev for dev in devs] for devs in per_trial], axis=0)
    threshold = next((float(s) for s, dev in zip(scales, worst) if dev <= delta), None)
    return ThresholdEstimate(scales=scales, max_rel_dev=worst, threshold_scale=threshold, per_trial=per_trial)


__all__ = [
    "SCAN_WINDOWS_PER_N",
    "STRIDE_FRAC",
    "LawDeviation",
    "ThresholdEstimate",
    "law_deviation",
    "least_scale",
    "schur_identity_residual",
    "threshold_scan",
]
