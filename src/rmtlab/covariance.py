"""Sample covariance matrices: singular triplets, Schur terms, identities.

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
of the minor.  The covariance Schur expansion is the Schur kernel of
``rmtlab.locallaw`` applied to the Gram matrix MM*/n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import integrate

from .delocalization import DelocRecord, _pole_sums
from .ensembles import ParameterError, form_gram
from .locallaw import _check_z, _schur_parts, _schur_residual
from .spectral import ContractError, mp_edges, rho_mp


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
    p, n = m.shape
    if p > n:
        raise ContractError("factor must have p <= n")
    return _thin_svd(m)


def gram_triplets(m: np.ndarray) -> SingularTriplets:
    """Triplets of a p x n factor (p <= n) from one eigh of the p x p Gram matrix MM*.

    sigma^2 and the left vectors are the eigenpairs of MM*; each right
    vector is M* left_i scaled to unit norm.  When sigma_min is at rounding
    level relative to sigma_max, M* left_i carries no direction, so such
    factors take the SVD instead.
    """
    p, n = m.shape
    if p > n:
        raise ContractError("factor must have p <= n")
    s2, left = np.linalg.eigh(m @ np.conj(m).T)
    if s2[0] <= 1e3 * p * np.finfo(float).eps * s2[-1]:
        return _thin_svd(m)
    right = np.conj(m).T @ left
    right /= np.linalg.norm(right, axis=0)
    return SingularTriplets(sigma=np.sqrt(s2), left=left, right=right)


def _thin_svd(m: np.ndarray) -> SingularTriplets:
    """Triplets of a matrix of any shape; min(p, n) of them, ascending."""
    u, s, vh = np.linalg.svd(m, full_matrices=False)
    # numpy returns descending; flip to ascending
    return SingularTriplets(sigma=s[::-1], left=u[:, ::-1], right=vh[::-1].T.conj())


@dataclass(frozen=True)
class CovSchurTerms:
    """Index-k terms of the covariance diagonal resolvent expansion.

    The expansion reads s(z) = (1/p) sum_k 1/(xi_kk - z - Y_k) for the
    Stieltjes transform of MM*/n, with xi_kk = ||X_k||^2/n for the k-th row
    X_k of M, a_k = M_minor X_k / n, and Y_k = a_k* (W_minor - z)^-1 a_k.
    """

    k: int
    xi_kk: float
    yk: complex
    s_minor: complex
    expected_yk: complex  # ((p-1)/n) * (1 + z * s_minor)


def covariance_schur_terms(m: np.ndarray, z: complex, k: int) -> CovSchurTerms:
    z = _check_z(z)
    p, n = m.shape
    xi_kk, yk, s_minor = _schur_parts(form_gram(m), z, k)
    expected = ((p - 1) / n) * (1.0 + z * s_minor)
    return CovSchurTerms(k=k, xi_kk=xi_kk, yk=yk, s_minor=s_minor, expected_yk=expected)


def covariance_schur_residual(m: np.ndarray, z: complex) -> float:
    """Two-route gap: the k-sum versus the Gram matrix's Stieltjes transform."""
    return _schur_residual(form_gram(m), z)


def mp_self_consistency_residual(gram_eigs: np.ndarray, z: complex, y: float) -> float:
    """|s + 1/(y + z - 1 + y z s)| for the empirical transform of MM*/n."""
    z = _check_z(z)
    s = complex(np.mean(1.0 / (np.asarray(gram_eigs) - z)))
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
    the row minor.  Returns arrays (entry_lhs, entry_rhs, interlacing_lhs,
    interlacing_rhs, collision_gap) indexed by i, from one SVD of the minor;
    the gap is min_j |sigma_j(M')^2 - sigma_i^2| / max(1, sigma_i^2).
    """
    p, n = m.shape
    if p > n:
        raise ContractError("factor must have p <= n")
    if side == "right":
        x, minor = m[:, -1], _thin_svd(m[:, :-1])
        vecs, basis = trip.right, minor.left
    elif side == "left":
        x, minor = np.conj(m[-1, :]), _thin_svd(m[:-1, :])  # Y with Y* the last row
        vecs, basis = trip.left, minor.right
    else:
        raise ParameterError("side must be 'left' or 'right'")
    msig2 = minor.sigma**2
    weighted = msig2 * np.abs(np.conj(basis).T @ x) ** 2
    sig2 = np.array([s**2 for s in trip.sigma])  # scalar squares: the array square rounds a few differently
    gap = np.min(np.abs(msig2[None, :] - sig2[:, None]), axis=1, initial=np.inf) / np.maximum(1.0, sig2)
    entry_rhs = 1.0 / (1.0 + _pole_sums(weighted, msig2, sig2, 2))
    interlacing_lhs = _pole_sums(weighted, msig2, sig2, 1)
    return np.abs(vecs[-1]) ** 2, entry_rhs, interlacing_lhs, np.real(np.vdot(x, x)) - sig2, gap


def pv_mp(lam: float, y: float, excision: float = 1e-5) -> float:
    """Numerical principal value of y * int_a^b x rho_MP(x)/(x - lam) dx.

    Symmetric excision around the pole with one Richardson step in the
    excision width.  Near the support edges the integrand is integrable
    and the value approaches +sqrt(y) at a and -sqrt(y) at b.
    """
    if excision <= 0:
        raise ParameterError("excision must be positive")
    a, b = mp_edges(y)

    def f(x):
        return y * x * rho_mp(x, y) / (x - lam)

    def integral(eps: float) -> float:
        total = 0.0
        for lo, hi in ((a, lam - eps), (lam + eps, b)):
            lo, hi = max(lo, a), min(hi, b)
            if lo < hi:
                val, _ = integrate.quad(f, lo, hi, limit=400, epsabs=1e-11, epsrel=1e-11)
                total += val
        return total

    if lam < a - excision or lam > b + excision:
        return integral(0.0)
    return 2.0 * integral(excision / 2.0) - integral(excision)


def classify_mp_region(lam_w: float, y: float, eps: float) -> str:
    """Region of a covariance eigenvalue sigma^2/n relative to the MP edges.

    Soft edges get the usual eps-windows.  At the hard edge (a = 0 when
    y = 1) only [4 - eps, 4] counts as edge; everything near 0 is 'outside'.
    """
    a, b = mp_edges(y)
    hard_edge = a == 0.0  # exact when y == 1
    if a + eps <= lam_w <= b - eps:
        return "bulk"
    if hard_edge:
        if b - eps <= lam_w <= b:
            return "edge"
        return "outside"
    if a - eps <= lam_w <= a + eps or b - eps <= lam_w <= b + eps:
        return "edge"
    return "outside"


def singular_vec_inf_norms(trip: SingularTriplets, eps: float = 0.1, seed: int = 0) -> list[DelocRecord]:
    """Delocalization records for the left and right singular vectors of M.

    ``trip`` holds the singular triplets of the p x n factor M.  The region
    is classified on sigma_i^2/n against the MP edges at aspect ratio
    y = p/n.  Right vectors live in C^n and are scaled with sqrt(n); left
    vectors live in C^p and are scaled with sqrt(p) (the paper-normalized
    sqrt(n) value is recoverable as scaled * sqrt(n/p)).
    """
    p, n = trip.left.shape[0], trip.right.shape[0]
    y = p / n
    logn = math.log(n)
    logp = math.log(p) if p > 1 else 1.0
    sides = [
        ("left", np.abs(trip.left).max(axis=0).tolist(), p, logp),
        ("right", np.abs(trip.right).max(axis=0).tolist(), n, logn),
    ]
    records = []
    for i, sig in enumerate(trip.sigma):
        lam_w = sig**2 / n
        region = classify_mp_region(lam_w, y, eps)
        for side, inf_norms, dim, logd in sides:
            inf_norm = inf_norms[i]
            records.append(
                DelocRecord(
                    n=dim,
                    seed=seed,
                    index=i,
                    lam=lam_w,
                    region=region,
                    inf_norm=inf_norm,
                    scaled_bulk=math.sqrt(dim) * inf_norm / math.sqrt(logd),
                    scaled_edge=math.sqrt(dim) * inf_norm / logd,
                    side=side,
                )
            )
    return records


__all__ = [
    "CovSchurTerms",
    "SingularTriplets",
    "classify_mp_region",
    "covariance_schur_residual",
    "covariance_schur_terms",
    "gram_triplets",
    "mp_self_consistency_residual",
    "pv_mp",
    "singular_identities",
    "singular_triplets",
    "singular_vec_inf_norms",
]
