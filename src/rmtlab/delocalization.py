"""Eigenvector infinity-norm statistics and the exact minor identities.

Bulk eigenvectors of a normalized Wigner matrix should have infinity norm
of order sqrt(log n / n); edge eigenvectors of order log n / sqrt(n).  The
records produced here are columns (a dict of 1-D arrays, one row per
eigenvalue) carrying both scalings, so an n-grid scan can check the growth
rate directly.  The region rule and the scalings serve the singular vectors
of ``rmtlab.covariance`` too, against the Marchenko-Pastur support.

The minor identities of a Hermitian H with coordinate k deleted,

    |u_i(H)_k|^2 = 1 / (1 + sum_j w_j / (mu_j - lambda_i)^2),
    sum_j w_j / (mu_j - lambda_i) = H_kk - lambda_i,

with mu_j the minor's eigenvalues and w_j = |u_j(minor)* y|^2 for y column k
of H without H_kk, go through one kernel for every index i at once: the
Wigner identities here, and those of ``rmtlab.covariance`` for H = MM* or M*M.
The kernels for stacks of matrices sum by one rule, never by a BLAS vector
product: an elementwise product in C order, ``np.sum`` along its last axis
(``_overlaps``), which numpy reduces row by row as it reduces a lone vector.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .spectral import SC_EDGES, ContractError, check_hermitian


def classify_region(lam, edges, eps: float):
    """Region of lam against the support [lo, hi] = edges; elementwise on arrays.

    ``edges`` is ``SC_EDGES`` for the semicircle or ``mp_edges(y)``.  'bulk'
    is [lo + eps, hi - eps]; 'edge' is within eps of hi, or of lo unless lo
    is the hard edge 0 (the MP support at y = 1); 'outside' is the rest.
    """
    lo, hi = edges
    if not 0 < eps < (hi - lo) / 2:
        raise ContractError(f"eps must lie in (0, {(hi - lo) / 2:g})")
    lam = np.asarray(lam)
    bulk = (lo + eps <= lam) & (lam <= hi - eps)
    edge = (hi - eps <= lam) & (lam <= hi + eps)
    if lo != 0.0:
        edge |= (lo - eps <= lam) & (lam <= lo + eps)
    return np.select([bulk, edge], ["bulk", "edge"], "outside")[()]


def eigvec_inf_norms(decomp, seed: int, eps: float = 0.1) -> dict:
    """Delocalization columns, one row per eigenvalue of an n x n normalized Wigner matrix.

    ``decomp`` has the fields ``eigenvalues`` and ``eigenvectors``: the
    ``EighResult`` of ``eig_decompose``, or what ``spectral._eigh_owned``
    returns for a trial's own matrix.  Columns n, seed
    (uint64), index, lambda, region (against the semicircle support [-2, 2])
    and those of ``_inf_norm_columns``.
    """
    vals = np.asarray(decomp.eigenvalues)
    return {
        "n": np.full(vals.size, vals.size),
        "seed": np.full(vals.size, seed, dtype=np.uint64),
        "index": np.arange(vals.size),
        "lambda": vals,
        "region": classify_region(vals, SC_EDGES, eps),
        **_inf_norm_columns(decomp.eigenvectors),
    }


def _inf_norm_columns(vectors: np.ndarray) -> dict:
    """inf_norm, scaled_bulk and scaled_edge of each unit column in C^d.

    scaled_bulk = sqrt(d) * inf_norm / sqrt(log d) and scaled_edge =
    sqrt(d) * inf_norm / log d are O(1) under the bulk and edge bounds
    respectively; log d reads as 1 at d = 1.
    """
    d = vectors.shape[0]
    logd = math.log(d) if d > 1 else 1.0
    inf_norm = _column_inf_norms(vectors)
    return {
        "inf_norm": inf_norm,
        "scaled_bulk": math.sqrt(d) * inf_norm / math.sqrt(logd),
        "scaled_edge": math.sqrt(d) * inf_norm / logd,
    }


def _column_inf_norms(v: np.ndarray) -> np.ndarray:
    """max_k |v_k| of each column; a real block is read twice in place of an |v| copy."""
    if np.iscomplexobj(v):
        return np.abs(v).max(axis=0)
    return np.maximum(v.max(axis=0), -v.min(axis=0))


def _abs2(v: np.ndarray) -> np.ndarray:
    """|v|^2 elementwise: re^2 + im^2, or v^2 for a real v.

    numpy's complex abs rounds by the layout of its input, so a row of a stack could differ from the row alone.
    """
    return v.real**2 + v.imag**2 if np.iscomplexobj(v) else v**2


def _overlaps(vecs: np.ndarray, y: np.ndarray) -> np.ndarray:
    """|v_j* y|^2 for each column v_j of vecs, over any leading batch axes, by the rule for stacks above."""
    return _abs2(np.sum(np.multiply(np.conj(vecs).swapaxes(-1, -2), y[..., None, :], order="C"), axis=-1))


def _pole_sums(weights: np.ndarray, poles: np.ndarray, points: np.ndarray, power: int) -> np.ndarray:
    """sum_j weights_j / (poles_j - x)^power for each x in points, over any leading batch axes; inf or nan at a pole."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.sum(weights[..., None, :] / (poles[..., None, :] - points[..., :, None]) ** power, axis=-1)


def _minor_identity(vals, coord, mvals, overlaps, diag):
    """(entry_lhs, entry_rhs, interlacing_lhs, interlacing_rhs, collision_gap) for every i.

    ``vals`` and ``coord`` are H's eigenvalues and coordinate k of its
    eigenvectors, ``mvals`` and ``overlaps`` the mu_j and w_j above, ``diag``
    is H_kk; leading axes, on all of them alike, index a stack of matrices.
    The gap is the distance from vals_i to the nearest mu_j (inf for an empty
    minor); the identities are ill-conditioned where it is tiny.
    """
    gap = np.min(np.abs(mvals[..., None, :] - vals[..., :, None]), axis=-1, initial=np.inf)
    entry_rhs = 1.0 / (1.0 + _pole_sums(overlaps, mvals, vals, 2))
    interlacing_rhs = np.expand_dims(diag, -1) - vals
    return _abs2(coord), entry_rhs, _pole_sums(overlaps, mvals, vals, 1), interlacing_rhs, gap


def wigner_identities(w: np.ndarray, decomp, minor=None):
    """The minor identities of a Hermitian W with its last coordinate deleted, every i at once.

    ``decomp`` is ``eig_decompose(w)``, and ``minor`` the eigh of W's leading
    (n-1) x (n-1) minor when the caller has it; else the minor takes one more
    eigh here.  Returns arrays (entry_lhs, entry_rhs, interlacing_lhs,
    interlacing_rhs, collision_gap) indexed by i, the identities above with
    H = W and k = n - 1.  A stack of matrices (leading axes before the last
    two) gives a stack of each array, with the bits of one call per matrix.
    """
    check_hermitian(w)
    vals, vecs = decomp.eigenvalues, decomp.eigenvectors
    if vals.shape != w.shape[:-1]:
        raise ContractError("decomposition does not match the matrix size")
    y = w[..., :-1, -1]
    mvals, mvecs = np.linalg.eigh(w[..., :-1, :-1]) if minor is None else minor
    if mvals.shape != y.shape:
        raise ContractError("minor decomposition does not match the minor's size")
    return _minor_identity(vals, vecs[..., -1, :], mvals, _overlaps(mvecs, y), np.real(w[..., -1, -1]))


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
    "ScalingFit",
    "classify_region",
    "deloc_scaling_fit",
    "eigvec_inf_norms",
    "wigner_identities",
]
