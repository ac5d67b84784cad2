"""Sample covariance matrices: singular triplets, Schur residual, identities.

Conventions for a p x n factor M (p <= n): W = M* M / n carries the
Marchenko-Pastur spectrum on its top p eigenvalues, the compact Gram matrix
MM*/n carries the same nonzero spectrum, and sigma_i(M) = sqrt(n *
lambda_i(W)).  Singular values are kept ascending throughout, matching the
eigenvalue ordering used elsewhere.

Two routes give the triplets.  ``gram_triplets`` takes one eigh of the
p x p Gram matrix MM* and one product M* U; the covariance trial uses it,
being several times cheaper than the SVD of M for p well below n.  A real
MM* is solved in its own memory by ``spectral._eigh_owned``, which
overwrites it with the eigenvectors U, and M* U is normalized in place, its
squares taken in row blocks of at most ``ensembles._CHUNK`` entries.  With
M the factor's size and G the Gram matrix's, a call's arrays then peak at
the larger of two steps: the eigh, M + 3G (the factor, MM* becoming U, and
dsyevd's workspace of about 2G, all numpy arrays), and the normalization,
2M + G and one block (the factor, U and M* U).  ``gram_triplets`` hands a
complex MM* to numpy's eigh, which adds its own copy of MM* and a separate U.
The other route is the thin SVD (``_thin_svd``), which the identities
runner takes for a factor and its two minors, stacked with other matrices
of their shape.  ``singular_identities`` takes the triplets of M and of
its minor and returns the entry and interlacing identities over every
index i through the minor-identity kernel of ``rmtlab.delocalization``; its
overlaps and ||X||^2 are sums by that module's rule for stacks.  The
covariance Schur residual is ``locallaw.schur_identity_residual`` of the
Gram matrices MM*/n of factors of one height.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .delocalization import _abs2, _inf_norm_columns, _minor_identity, _overlaps, classify_region
from .ensembles import _CHUNK, ParameterError, form_gram
from .locallaw import schur_identity_residual
from .spectral import ContractError, _check_z, _eigh_owned, _pv_quad, mp_edges, rho_mp, stieltjes_empirical


class SingularTriplets(NamedTuple):
    """Ascending singular values with matching left/right singular vectors.

    ``left`` is p x p (columns in C^p), ``right`` is n x p (columns in C^n);
    M right_i = sigma_i left_i and M* left_i = sigma_i right_i.
    """

    sigma: np.ndarray
    left: np.ndarray
    right: np.ndarray


def gram_triplets(m: np.ndarray) -> SingularTriplets:
    """Triplets of a p x n factor (p <= n) from one eigh of the p x p Gram matrix MM*.

    sigma^2 and the left vectors are the eigenpairs of MM*; each right
    vector is M* left_i scaled to unit norm.  For a real M, MM* is the
    product of M with its own transpose, which numpy sends to SYRK (half
    the flops of a GEMM, no conjugate copy) and mirrors into an exactly
    symmetric matrix, solved in place; a complex M takes the conjugate, and
    numpy's eigh.  When sigma_min is at rounding level
    relative to sigma_max, M* left_i carries no direction, so such factors
    take the SVD instead.  The right vectors are M* U divided in place by
    its column norms, which ``_column_norms`` sums in bounded row blocks
    with the bits of ``np.linalg.norm(M* U, axis=0)``: no n x p temporary.
    """
    p, n = m.shape
    if p > n:
        raise ContractError("factor must have p <= n")
    # the product is a temporary, so a real one is solved in place
    s2, left = _eigh_owned(m @ m.T) if np.isrealobj(m) else np.linalg.eigh(m @ m.conj().T)
    if s2[0] <= 1e3 * p * np.finfo(float).eps * s2[-1]:
        return _thin_svd(m)
    right = m.conj().T @ left
    right /= _column_norms(right)
    return SingularTriplets(sigma=np.sqrt(s2), left=left, right=right)


def _column_norms(x: np.ndarray) -> np.ndarray:
    """``np.linalg.norm(x, axis=0)`` of an n x p array, squared in row blocks of at most ``_CHUNK`` entries or one row.

    numpy adds the rows of a reduction over the outer axis in order, so the
    blocks, each reduced with the running sum folded into its first row, give
    norm's bits.  A single column (p = 1) numpy sums pairwise, so it is
    squared whole: n entries, the size of the factor itself.  The squares are
    norm's own, the real part of conj(x) * x (|x|^2 for complex entries),
    made in one reused block buffer.
    """
    n, p = x.shape
    rows = n if p == 1 else max(1, _CHUNK // p)
    buffer = np.empty((min(rows, n), p), dtype=x.dtype)
    total = np.zeros(p)
    for start in range(0, n, rows):
        block = x[start : start + rows]
        squares = np.conjugate(block, out=buffer[: len(block)])
        squares *= block
        squares = squares.real
        squares[0] += total
        np.add.reduce(squares, axis=0, out=total)
    return np.sqrt(total, out=total)


def _thin_svd(m: np.ndarray) -> SingularTriplets:
    """Triplets of a matrix of any shape, or of a stack of them; min(p, n) of them, ascending."""
    u, s, vh = np.linalg.svd(m, full_matrices=False)
    # numpy returns descending; flip to ascending
    return SingularTriplets(sigma=s[..., ::-1], left=u[..., ::-1], right=np.swapaxes(vh[..., ::-1, :], -1, -2).conj())


def covariance_schur_residual(factors, z: complex, gram_eigs: np.ndarray) -> np.ndarray:
    """Two-route gaps of a sequence of factors M of one height p and any widths, from one stacked solve.

    Each gap is the k-sum of M's Gram matrix MM*/n versus the Stieltjes
    transform of its row of gram_eigs, its sigma_i^2/n.
    """
    return schur_identity_residual(np.stack([form_gram(m) for m in factors]), z, gram_eigs)


def mp_self_consistency_residual(gram_eigs: np.ndarray, z: complex, y: float) -> float:
    """|s + 1/(y + z - 1 + y z s)| for the empirical transform of MM*/n."""
    z = _check_z(z)
    s = stieltjes_empirical(gram_eigs, z)
    return abs(s + 1.0 / (y + z - 1.0 + y * z * s))


def singular_identities(m: np.ndarray, trip: SingularTriplets, side: str, minor: SingularTriplets):
    """Deleted-coordinate and interlacing identities for every singular triplet at once.

    ``trip`` holds the singular triplets of the p x n factor M (p <= n).
    side='right': split M = [M' X] by removing the last column; with the
    left singular vectors v_j of M' and the weights
    w_j = sigma_j(M')^2 |v_j(M')* X|^2, the two identities read

        |last coordinate of the i-th right singular vector|^2
            = 1 / (1 + sum_j w_j / (sigma_j(M')^2 - sigma_i^2)^2),
        sum_j w_j / (sigma_j(M')^2 - sigma_i^2) = ||X||^2 - sigma_i^2.

    side='left' is the row-deleted mirror, using right singular vectors of
    the row minor.  Both are the minor identities of ``rmtlab.delocalization``
    for H = M*M (right) or MM* (left) and use its kernel, fed ``minor``,
    the thin SVD's triplets of that minor (M' or its row mirror).  Returns
    arrays (entry_lhs, entry_rhs, interlacing_lhs, interlacing_rhs,
    collision_gap) indexed by i; the gap is min_j |sigma_j(M')^2 - sigma_i^2|
    / max(1, sigma_i^2).  A stack of factors (leading axes) with their
    stacked triplets gives a stack of each array, with one call's bits each.
    """
    p, n = m.shape[-2:]
    if p > n:
        raise ContractError("factor must have p <= n")
    if side == "right":
        x, vecs, basis = m[..., :, -1], trip.right, minor.left  # X the last column
    elif side == "left":
        x, vecs, basis = np.conj(m[..., -1, :]), trip.left, minor.right  # Y* the last row
    else:
        raise ParameterError("side must be 'left' or 'right'")
    if basis.shape[:-1] != x.shape:
        raise ContractError(f"the minor's triplets do not fit the {side} minor of the factor")
    msig2 = minor.sigma**2
    weighted = msig2 * _overlaps(basis, x)
    norm2 = np.sum(_abs2(x), axis=-1)  # ||X||^2
    sig2 = trip.sigma**2
    entry_lhs, entry_rhs, inter_lhs, inter_rhs, gap = _minor_identity(sig2, vecs[..., -1, :], msig2, weighted, norm2)
    return entry_lhs, entry_rhs, inter_lhs, inter_rhs, gap / np.maximum(1.0, sig2)


def pv_mp(lam: float, y: float) -> float:
    """Numerical principal value of y * int_a^b x rho_MP(x)/(x - lam) dx, by QUADPACK's Cauchy-weight rule.

    At the support edges the integrand is integrable and the value equals
    +sqrt(y) at a and -sqrt(y) at b.
    """
    return _pv_quad(lambda x: y * x * rho_mp(x, y), lam, mp_edges(y))


def singular_vec_inf_norms(trip: SingularTriplets, eps: float = 0.1) -> dict:
    """Delocalization columns for the left and right singular vectors of M.

    ``trip`` holds the singular triplets of the p x n factor M.  Two rows
    per index i, left then right, with the columns side, dim, index, lambda
    (sigma_i^2/n), region (of sigma_i^2/n against the MP edges at aspect
    ratio y = p/n) and those of ``delocalization._inf_norm_columns``.  Right
    vectors live in C^n and are scaled with sqrt(n); left vectors live in
    C^p and are scaled with sqrt(p) (the paper-normalized sqrt(n) value is
    recoverable as scaled * sqrt(n/p)).
    """
    p, n = trip.left.shape[0], trip.right.shape[0]
    lam_w = trip.sigma**2 / n
    left, right = _inf_norm_columns(trip.left), _inf_norm_columns(trip.right)
    return {
        "side": np.tile(["left", "right"], p),
        "dim": np.tile([p, n], p),
        "index": np.repeat(np.arange(p), 2),
        "lambda": np.repeat(lam_w, 2),
        "region": np.repeat(classify_region(lam_w, mp_edges(p / n), eps), 2),
        **{name: np.column_stack([left[name], right[name]]).ravel() for name in left},
    }


__all__ = [
    "SingularTriplets",
    "covariance_schur_residual",
    "gram_triplets",
    "mp_self_consistency_residual",
    "pv_mp",
    "singular_identities",
    "singular_vec_inf_norms",
]
