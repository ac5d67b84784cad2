"""Sample covariance matrices: singular triplets, Schur residual, identities.

Conventions for a p x n factor M (p <= n): W = M* M / n carries the
Marchenko-Pastur spectrum on its top p eigenvalues, the compact Gram matrix
MM*/n carries the same nonzero spectrum, and sigma_i(M) = sqrt(n *
lambda_i(W)).  Singular values are kept ascending throughout, matching the
eigenvalue ordering used elsewhere.

Two routes give the triplets.  ``gram_triplets`` takes one eigh of the
p x p Gram matrix MM* and one product M* U; the covariance trial uses it,
being several times cheaper than the SVD of M for p well below n.
``singular_triplets`` is the SVD: the accuracy reference in the tests, and
the route of ``singular_identities``, which takes the triplets of M and
returns the entry and interlacing identities over every index i from one SVD
of the minor, through the minor-identity kernel of ``rmtlab.delocalization``.
The covariance Schur residual is the Schur kernel of ``rmtlab.locallaw``
applied to the Gram matrix MM*/n.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .delocalization import _abs2, _inf_norm_columns, _minor_identity, classify_region
from .ensembles import ParameterError, form_gram
from .locallaw import _schur_residual
from .spectral import ContractError, _aligned, _check_z, _pv_quad, mp_edges, rho_mp, stieltjes_empirical


@dataclass(frozen=True)
class SingularTriplets:
    """Ascending singular values with matching left/right singular vectors.

    ``left`` is p x p (columns in C^p), ``right`` is n x p (columns in C^n);
    M right_i = sigma_i left_i and M* left_i = sigma_i right_i.
    """

    sigma: np.ndarray
    left: np.ndarray
    right: np.ndarray


def singular_triplets(m: np.ndarray) -> SingularTriplets:
    """The SVD's triplets of a p x n factor (p <= n), or of a stack of them (leading axes)."""
    p, n = m.shape[-2:]
    if p > n:
        raise ContractError("factor must have p <= n")
    return _thin_svd(m)


def gram_triplets(m: np.ndarray) -> SingularTriplets:
    """Triplets of a p x n factor (p <= n) from one eigh of the p x p Gram matrix MM*.

    sigma^2 and the left vectors are the eigenpairs of MM*; each right
    vector is M* left_i scaled to unit norm.  For a real M, ``m.conj()`` is
    M itself, so MM* is the product of M with its own transpose, which
    numpy sends to SYRK (half the flops of a GEMM, no conjugate copy); a
    complex M takes the conjugate.  When sigma_min is at rounding level
    relative to sigma_max, M* left_i carries no direction, so such factors
    take the SVD instead.
    """
    p, n = m.shape
    if p > n:
        raise ContractError("factor must have p <= n")
    s2, left = np.linalg.eigh(m @ m.conj().T)
    if s2[0] <= 1e3 * p * np.finfo(float).eps * s2[-1]:
        return _thin_svd(m)
    right = m.conj().T @ left
    right /= np.linalg.norm(right, axis=0)
    return SingularTriplets(sigma=np.sqrt(s2), left=left, right=right)


def _thin_svd(m: np.ndarray) -> SingularTriplets:
    """Triplets of a matrix of any shape, or of a stack of them; min(p, n) of them, ascending."""
    u, s, vh = np.linalg.svd(m, full_matrices=False)
    # numpy returns descending; flip to ascending
    return SingularTriplets(sigma=s[..., ::-1], left=u[..., ::-1], right=np.swapaxes(vh[..., ::-1, :], -1, -2).conj())


def covariance_schur_residual(m: np.ndarray, z: complex, gram_eigs: np.ndarray):
    """Two-route gap: the k-sum versus the Stieltjes transform of gram_eigs, the sigma_i^2/n.

    A stack of factors M (leading axes) with gram_eigs stacked alike gives an array of gaps.
    """
    return _schur_residual(form_gram(m), z, gram_eigs)


def mp_self_consistency_residual(gram_eigs: np.ndarray, z: complex, y: float) -> float:
    """|s + 1/(y + z - 1 + y z s)| for the empirical transform of MM*/n."""
    z = _check_z(z)
    s = stieltjes_empirical(gram_eigs, z)
    return abs(s + 1.0 / (y + z - 1.0 + y * z * s))


def singular_identities(m: np.ndarray, trip: SingularTriplets, side: str):
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
    for H = M*M (right) or MM* (left) and use its kernel.  Returns arrays
    (entry_lhs, entry_rhs, interlacing_lhs, interlacing_rhs, collision_gap)
    indexed by i, from one SVD of the minor; the gap is
    min_j |sigma_j(M')^2 - sigma_i^2| / max(1, sigma_i^2).  A stack of
    factors (leading axes) with their stacked triplets gives a stack of each
    array, with the bits of one call per factor.
    """
    p, n = m.shape[-2:]
    if p > n:
        raise ContractError("factor must have p <= n")
    if side == "right":
        x, minor = m[..., :, -1:], _thin_svd(m[..., :, :-1])  # X as a column
        vecs, basis = trip.right, minor.left
    elif side == "left":
        x, minor = _aligned(np.conj(m[..., -1:, :]).swapaxes(-1, -2)), _thin_svd(m[..., :-1, :])  # Y* the last row
        vecs, basis = trip.left, minor.right
    else:
        raise ParameterError("side must be 'left' or 'right'")
    msig2 = minor.sigma**2
    weighted = msig2 * _abs2((_aligned(np.conj(basis)).swapaxes(-1, -2) @ x)[..., 0])
    norm2 = np.real(x.swapaxes(-1, -2).conj() @ x)[..., 0, 0]  # ||X||^2: a real X is not copied for its conjugate
    sig2 = _squares(trip.sigma)
    entry_lhs, entry_rhs, inter_lhs, inter_rhs, gap = _minor_identity(sig2, vecs[..., -1, :], msig2, weighted, norm2)
    return entry_lhs, entry_rhs, inter_lhs, inter_rhs, gap / np.maximum(1.0, sig2)


def _squares(sigma: np.ndarray) -> np.ndarray:
    """sigma_i^2 squared one scalar at a time: the array square rounds a few values differently."""
    return np.array([s**2 for s in sigma.ravel()]).reshape(sigma.shape)


def pv_mp(lam: float, y: float) -> float:
    """Numerical principal value of y * int_a^b x rho_MP(x)/(x - lam) dx.

    Symmetric excision of width 1e-5 around the pole with one Richardson
    step in the excision width.  Near the support edges the integrand is
    integrable and the value approaches +sqrt(y) at a and -sqrt(y) at b.
    """
    a, b = mp_edges(y)
    return _pv_quad(lambda x: y * x * rho_mp(x, y) / (x - lam), lam, (a, b), 1e-5, 1e-11)


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
    lam_w = _squares(trip.sigma) / n
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
    "singular_triplets",
    "singular_vec_inf_norms",
]
