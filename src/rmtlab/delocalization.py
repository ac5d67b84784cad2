"""Eigenvector infinity-norm statistics and the exact minor identities.

Bulk eigenvectors of a normalized Wigner matrix should have infinity norm
of order sqrt(log n / n); edge eigenvectors of order log n / sqrt(n).  The
records produced here are columns (a dict of 1-D arrays, one row per
eigenvalue) carrying both scalings, so an n-grid scan can check the growth
rate directly.

The minor identities return arrays over every index i from one
eigendecomposition of W and one of its minor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .spectral import ContractError, SpectralDecomposition, check_hermitian

DEGENERACY_GAP = 1e-10


def classify_region(lam, eps: float):
    """'bulk' for |lam| <= 2 - eps, 'edge' up to 2 + eps, 'outside' beyond; elementwise on arrays."""
    if not 0 < eps < 2:
        raise ContractError("eps must lie in (0, 2)")
    size = np.abs(lam)
    return np.select([size <= 2.0 - eps, size <= 2.0 + eps], ["bulk", "edge"], "outside")[()]


def eigvec_inf_norms(decomp: SpectralDecomposition, n: int, seed: int, eps: float = 0.1) -> dict:
    """Delocalization columns, one row per eigenvalue of an n x n normalized Wigner matrix.

    Columns n, seed (uint64), index, lambda, region, inf_norm, scaled_bulk,
    scaled_edge and degenerate.  scaled_bulk = sqrt(n) * inf_norm / sqrt(log n)
    and scaled_edge = sqrt(n) * inf_norm / log n are O(1) under the bulk and
    edge bounds respectively.  ``degenerate`` flags eigenvalues whose gap to
    a neighbor is below 1e-10 (any orthonormal eigenbasis is accepted there).
    """
    vals = np.asarray(decomp.eigenvalues)
    logn = math.log(n)
    close = np.diff(vals) < DEGENERACY_GAP
    inf_norms = np.abs(decomp.eigenvectors).max(axis=0)
    return {
        "n": np.full(vals.size, n),
        "seed": np.full(vals.size, seed, dtype=np.uint64),
        "index": np.arange(vals.size),
        "lambda": vals,
        "region": classify_region(vals, eps),
        "inf_norm": inf_norms,
        "scaled_bulk": math.sqrt(n) * inf_norms / math.sqrt(logn),
        "scaled_edge": math.sqrt(n) * inf_norms / logn,
        "degenerate": np.r_[False, close] | np.r_[close, False],
    }


def _pole_sums(weights: np.ndarray, poles: np.ndarray, points, power: int) -> np.ndarray:
    """sum_j weights_j / (poles_j - x)^power for each x in points; inf or nan at a pole."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.array([np.sum(weights / (poles - x) ** power) for x in points])


def _minor_terms(vals: np.ndarray, w_minor: np.ndarray, y: np.ndarray):
    """(|u_j(minor)* Y|^2, minor eigenvalues, distance from each vals[i] to the nearest)."""
    mvals, mvecs = np.linalg.eigh(w_minor)
    overlaps = np.abs(np.conj(mvecs).T @ y) ** 2
    gap = np.min(np.abs(mvals[None, :] - vals[:, None]), axis=1, initial=np.inf)
    return overlaps, mvals, gap


def entry_identity(w: np.ndarray):
    """First-coordinate identity for every unit eigenvector of W at once.

    Returns arrays (lhs, rhs, collision_gap) indexed by i, where
    lhs_i = |u_i(W)[0]|^2 and

        rhs_i = 1 / (1 + sum_j |u_j(minor)* Y|^2 / (lambda_j(minor) - lambda_i)^2)

    with the minor W with its first row and column removed and Y the first
    column of W below the diagonal.  collision_gap_i is the distance from
    lambda_i to the nearest minor eigenvalue (inf for n = 1); the identity
    is ill-conditioned where it is tiny and not finite where it is 0.
    """
    check_hermitian(w)
    vals, vecs = np.linalg.eigh(w)
    overlaps, mvals, gap = _minor_terms(vals, w[1:, 1:], w[1:, 0])
    return np.abs(vecs[0]) ** 2, 1.0 / (1.0 + _pole_sums(overlaps, mvals, vals, 2)), gap


def interlacing_identity(w: np.ndarray):
    """Last-coordinate interlacing identity for W = M/sqrt(n), every i at once.

    Returns arrays (lhs, rhs, collision_gap) indexed by i, the two sides of

        sum_j |u_j(minor)* Y|^2 / (lambda_j(minor) - lambda_i) = W[n-1,n-1] - lambda_i

    where the minor removes the last row/column and Y is the last column of
    W with its last entry dropped.  The right side is zeta_nn/sqrt(n) written
    directly through the normalized matrix.  collision_gap is as in
    ``entry_identity``.
    """
    check_hermitian(w)
    vals = np.linalg.eigvalsh(w)
    overlaps, mvals, gap = _minor_terms(vals, w[:-1, :-1], w[:-1, -1])
    return _pole_sums(overlaps, mvals, vals, 1), np.real(w[-1, -1]) - vals, gap


@dataclass(frozen=True)
class ScalingFit:
    """Per-n bulk/edge extremes and the fitted log-log growth slope."""

    bulk_table: dict  # n -> max scaled_bulk over bulk records
    edge_table: dict  # n -> max scaled_edge over edge records (may be empty)
    slope: float  # slope of log(max sqrt(n)*inf_norm) vs log log n; 0.5 if ~ sqrt(log n)


def deloc_scaling_fit(records: dict) -> ScalingFit:
    """Least-squares growth fit of bulk infinity norms across an n-grid.

    ``records`` holds the columns n, region, inf_norm, scaled_bulk and
    scaled_edge, as ``eigvec_inf_norms`` returns them.
    """
    sizes = np.unique(records["n"]).tolist()
    if len(sizes) < 3:
        raise ContractError("need at least 3 distinct n values")
    bulk_table = {}
    edge_table = {}
    xs, ys = [], []
    for n in sizes:
        at_n = records["n"] == n
        bulk = at_n & (records["region"] == "bulk")
        edge = at_n & (records["region"] == "edge")
        if not bulk.any():
            raise ContractError(f"no bulk records at n={n}")
        bulk_table[n] = float(records["scaled_bulk"][bulk].max())
        if edge.any():
            edge_table[n] = float(records["scaled_edge"][edge].max())
        peak = float((math.sqrt(n) * records["inf_norm"][bulk]).max())
        xs.append(math.log(math.log(n)))
        ys.append(math.log(peak))
    slope = float(np.polyfit(xs, ys, 1)[0])
    return ScalingFit(bulk_table=bulk_table, edge_table=edge_table, slope=slope)


__all__ = [
    "DEGENERACY_GAP",
    "ScalingFit",
    "classify_region",
    "deloc_scaling_fit",
    "eigvec_inf_norms",
    "entry_identity",
    "interlacing_identity",
]
