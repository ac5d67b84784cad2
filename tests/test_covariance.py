import functools
import math

import numpy as np
import pytest
from reference import eig_decompose, singular_triplets

from rmtlab.covariance import (
    covariance_schur_residual,
    gram_triplets,
    mp_self_consistency_residual,
    pv_mp,
    singular_identities,
    singular_vec_inf_norms,
)
from rmtlab.delocalization import classify_region, wigner_identities
from rmtlab.ensembles import _CHUNK, DistSpec, ParameterError, form_gram, sample_rect
from rmtlab.spectral import ContractError, DomainError, mp_edges


def _factor(p, n, seed, dist=DistSpec("gaussian")):
    return sample_rect(dist, p, n, seed)


@pytest.mark.parametrize("triplets", [singular_triplets, gram_triplets], ids=["svd", "gram"])
def test_singular_triplets_reconstruct(triplets):
    # a real factor, and a complex one, which takes the conjugate in MM* and M* U
    for m in (_factor(4, 7, 0), _factor(4, 7, 0) + 1j * _factor(4, 7, 5)):
        trip = triplets(m)
        assert np.all(np.diff(trip.sigma) >= 0)
        recon = trip.left @ np.diag(trip.sigma) @ np.conj(trip.right).T
        np.testing.assert_allclose(recon, m, atol=1e-12)
        # triplet relations M v = sigma u, M* u = sigma v
        for i in range(4):
            np.testing.assert_allclose(m @ trip.right[:, i], trip.sigma[i] * trip.left[:, i], atol=1e-12)
            np.testing.assert_allclose(
                np.conj(m).T @ trip.left[:, i], trip.sigma[i] * trip.right[:, i], atol=1e-12
            )
    with pytest.raises(ContractError):
        triplets(np.ones((5, 3)))


def test_gram_triplets_rank_deficient_falls_back_to_svd():
    # sigma_min = 0: M* u_min is rounding noise, so the Gram route has no right vector
    m = np.array([[1.0, 1.0], [1.0, 1.0]])
    trip = gram_triplets(m)
    assert np.all(np.isfinite(trip.right))
    np.testing.assert_allclose(np.linalg.norm(trip.right, axis=0), 1.0, atol=1e-15)
    np.testing.assert_allclose(trip.sigma, singular_triplets(m).sigma, atol=1e-15)
    assert trip.right.tobytes() == singular_triplets(m).right.tobytes()


@pytest.mark.parametrize("complex_entries", [False, True], ids=["real", "complex"])
@pytest.mark.parametrize(
    ("p", "n"), [(1, 400), (1, _CHUNK + 5), (2, _CHUNK // 2 + 7), (3, _CHUNK // 3 + 5), (200, 400), (400, 400)]
)
def test_gram_right_vectors_match_numpy_norm_bit_for_bit(p, n, complex_entries):
    # the column norms are summed in row blocks of at most _CHUNK entries: three blocks at p = n = 400, two at
    # p = n/2 and at p = 2 and 3, whose short rows reduce in numpy's shortest inner loops, and one at p = 1, where
    # numpy sums pairwise, at any n
    m = _factor(p, n, 3) + (1j * _factor(p, n, 4) if complex_entries else 0.0)
    trip = gram_triplets(m)
    product = m.conj().T @ trip.left
    assert trip.right.tobytes() == (product / np.linalg.norm(product, axis=0)).tobytes()


def test_gram_triplets_hold_outputs_gram_and_one_chunk(peak_bytes):
    # p = n/2 = 500: the factor M is 4 MB and the Gram matrix 2 MB; squaring M* U whole would add 4 MB
    p, n = 500, 1000
    trip, peak = peak_bytes(gram_triplets, _factor(p, n, 8))
    outputs = trip.sigma.nbytes + trip.left.nbytes + trip.right.nbytes
    gram = 8 * p * p + 8 * p  # MM* and eigh's eigenvalues
    assert peak <= outputs + gram + 8 * _CHUNK + 64 * 1024


def test_gram_triplets_solve_the_gram_matrix_in_place(peak_bytes):
    # the eigh overwrites MM* with U and takes dsyevd's documented workspace as numpy arrays (LWORK = 1 + 6p + 2p^2
    # doubles, LIWORK = 3 + 5p integers), so no step holds a second p x p copy or a U beside MM*
    p, n = 500, 1000
    trip, peak = peak_bytes(gram_triplets, _factor(p, n, 9))
    gram, workspace, product = 8 * p * p, 8 * (1 + 6 * p + 2 * p * p) + 8 * (3 + 5 * p), trip.right.nbytes
    assert peak <= max(gram + workspace, gram + product + 8 * _CHUNK) + 64 * 1024
    assert not trip.left.flags.owndata  # U is the overwritten MM*, read as columns


def test_sigma_lambda_bridge():
    # sigma_i(M) = sqrt(n * lambda_i) with lambda_i the covariance eigenvalues
    m = _factor(5, 9, 1)
    n = 9
    trip = singular_triplets(m)
    lam = np.linalg.eigvalsh(form_gram(m))
    np.testing.assert_allclose(trip.sigma, np.sqrt(n * lam), atol=1e-10)


def test_covariance_schur_identity_exact():
    for p, n, seed in [(2, 3, 4), (6, 10, 5), (9, 9, 6)]:
        m = _factor(p, n, seed)
        assert covariance_schur_residual(m, 0.8 + 0.6j, np.linalg.eigvalsh(form_gram(m))) < 1e-11
    with pytest.raises(DomainError):
        covariance_schur_residual(m, 0.8 - 0.6j, np.linalg.eigvalsh(form_gram(m)))


def test_mp_self_consistency_on_wishart():
    p, n = 400, 800
    m = _factor(p, n, 7)
    gram_eigs = np.linalg.eigvalsh(form_gram(m))
    eta = 10 * math.log(n) / n
    a, b = mp_edges(0.5)
    res = max(
        mp_self_consistency_residual(gram_eigs, x + 1j * eta, 0.5)
        for x in np.linspace(a + 0.2, b - 0.2, 15)
    )
    assert res < 0.15


def test_singular_entry_identity_1x2_hand_case():
    # M = [[a, b]]: sigma = sqrt(a^2+b^2), right vector (a, b)/sigma
    a, b = 3.0, 4.0
    m = np.array([[a, b]])
    lhs, rhs, _, _, _ = singular_identities(m, singular_triplets(m), "right")
    assert lhs[0] == pytest.approx(b * b / (a * a + b * b), abs=1e-12)
    # minor [[a]]: overlap |u* X|^2 = b^2; rhs = 1/(1 + a^2 b^2/(a^2-s^2)^2)
    s2 = a * a + b * b
    assert rhs[0] == pytest.approx(1.0 / (1.0 + a * a * b * b / (a * a - s2) ** 2), abs=1e-12)
    assert lhs[0] == pytest.approx(rhs[0], abs=1e-12)


@pytest.mark.parametrize("side", ["right", "left"])
def test_singular_entry_identity_random(side):
    for p, n, seed in [(3, 5, 8), (6, 8, 9), (7, 7, 10)]:
        m = _factor(p, n, seed)
        lhs, rhs, _, _, gap = singular_identities(m, singular_triplets(m), side)
        for i in np.flatnonzero(gap > 1e-8):
            assert lhs[i] == pytest.approx(rhs[i], rel=1e-8, abs=1e-12)


@pytest.mark.parametrize("side", ["right", "left"])
def test_singular_interlacing_identity_random(side):
    for p, n, seed in [(4, 6, 11), (8, 12, 12)]:
        m = _factor(p, n, seed, DistSpec("rademacher"))
        _, _, lhs, rhs, gap = singular_identities(m, singular_triplets(m), side)
        for i in np.flatnonzero(gap > 1e-8):
            assert lhs[i] == pytest.approx(rhs[i], rel=1e-8, abs=1e-8)


def test_singular_identities_are_the_wigner_identities_of_the_gram_matrix():
    # one kernel: the left singular identities of M are the minor identities of H = MM*
    for seed in range(200):
        p = 1 + seed % 6
        m = _factor(p, p + (seed // 6) % 6, seed)
        h = m @ m.T
        trip = singular_triplets(m)
        wig = wigner_identities(h, eig_decompose(h))
        sing = singular_identities(m, trip, "left")
        keep = sing[4] > 1e-8
        scale = max(1.0, float(trip.sigma[-1] ** 2))  # the identities experiment's interlacing scale
        for k in (0, 1):
            np.testing.assert_allclose(wig[k][keep], sing[k][keep], rtol=1e-8, atol=1e-12)
        for k in (2, 3):
            np.testing.assert_allclose(wig[k][keep], sing[k][keep], rtol=0.0, atol=1e-8 * scale)
        np.testing.assert_allclose(wig[4] / np.maximum(1.0, trip.sigma**2), sing[4], rtol=1e-8, atol=1e-12)


def test_singular_identity_validation():
    m = _factor(3, 5, 13)
    trip = singular_triplets(m)
    with pytest.raises(ParameterError):
        singular_identities(m, trip, "middle")
    with pytest.raises(ContractError):
        singular_identities(m.T, trip, "right")
    with pytest.raises(ParameterError):
        singular_identities(m, trip, "up")


def test_pv_mp_matches_semicircle_map():
    # affine map omega = (lam - 1 - y)/sqrt(y) sends MP onto the semicircle:
    # pv_mp(lam, y) = sqrt(y) * pv_semicircle(omega)
    from rmtlab.spectral import pv_semicircle

    y = 0.5
    for lam in (0.5, 1.0, 1.5, 2.5, 3.5):
        omega = (lam - 1.0 - y) / math.sqrt(y)
        expected = math.sqrt(y) * pv_semicircle(omega)
        assert pv_mp(lam, y) == pytest.approx(expected, abs=1e-5)


def test_pv_mp_edge_limits():
    y = 0.5
    a, b = mp_edges(y)
    assert pv_mp(a, y) == pytest.approx(math.sqrt(y), abs=0.05)
    assert pv_mp(b, y) == pytest.approx(-math.sqrt(y), abs=0.05)


def test_principal_values_match_closed_forms():
    from rmtlab.spectral import pv_semicircle, pv_semicircle_numeric

    for lam in (0.0, 0.5, -1.0, 1.9, -1.99, 2.0, -2.0, 3.0, -10.0):
        assert pv_semicircle_numeric(lam) == pytest.approx(pv_semicircle(lam), abs=1e-11)
    for y in (0.1, 0.5, 1.0):  # at y = 1 the lower edge is the hard edge 0
        a, b = mp_edges(y)
        assert pv_mp(a, y) == pytest.approx(math.sqrt(y), abs=1e-11)
        assert pv_mp(b, y) == pytest.approx(-math.sqrt(y), abs=1e-11)
        for lam in (a + 0.01 * (b - a), a + 0.3 * (b - a), 1.0, b - 0.01 * (b - a)):
            expected = math.sqrt(y) * pv_semicircle((lam - 1.0 - y) / math.sqrt(y))
            assert pv_mp(lam, y) == pytest.approx(expected, abs=1e-11)


def test_classify_mp_region_soft_and_hard():
    a, b = mp_edges(0.5)
    assert classify_region((a + b) / 2, (a, b), 0.1) == "bulk"
    assert classify_region(a - 0.05, (a, b), 0.1) == "edge"
    assert classify_region(b + 0.05, (a, b), 0.1) == "edge"
    assert classify_region(b + 0.5, (a, b), 0.1) == "outside"
    # hard edge at y = 1: nothing near 0 is "edge"; the soft edge b = 4 has its full window
    a, b = mp_edges(1.0)
    assert classify_region(0.01, (a, b), 0.1) == "outside"
    assert classify_region(3.95, (a, b), 0.1) == "edge"
    assert classify_region(2.0, (a, b), 0.1) == "bulk"
    assert classify_region(b + 0.05, (a, b), 0.1) == "edge"


def test_singular_vec_inf_norms_records():
    p, n = 40, 80
    m = _factor(p, n, 14)
    recs = singular_vec_inf_norms(singular_triplets(m), eps=0.1)
    assert all(column.shape == (2 * p,) for column in recs.values())
    assert recs["side"].tolist() == ["left", "right"] * p  # interleaved per index
    dim = np.where(recs["side"] == "left", p, n)
    np.testing.assert_array_equal(recs["dim"], dim)
    assert np.all((1.0 / np.sqrt(dim) - 1e-12 <= recs["inf_norm"]) & (recs["inf_norm"] <= 1.0))
    # bulk right singular vectors are delocalized at this size
    bulk_right = recs["scaled_bulk"][(recs["side"] == "right") & (recs["region"] == "bulk")]
    assert bulk_right.size and max(bulk_right) < 5.0


@pytest.mark.parametrize("p, n", [(1, 50), (30, 30)])
def test_singular_vec_inf_norms_at_p_one_and_p_n(p, n):
    trip = singular_triplets(_factor(p, n, 16))
    recs = singular_vec_inf_norms(trip, eps=0.1)
    assert all(column.shape == (2 * p,) for column in recs.values())
    np.testing.assert_array_equal(recs["dim"], np.tile([p, n], p))
    for name in ("lambda", "inf_norm", "scaled_bulk", "scaled_edge"):
        assert np.all(np.isfinite(recs[name]))
    lam = recs["lambda"][::2]
    np.testing.assert_array_equal(recs["lambda"][1::2], lam)
    np.testing.assert_allclose(lam, trip.sigma**2 / n, rtol=1e-15)
    np.testing.assert_array_equal(recs["region"], np.repeat(classify_region(lam, mp_edges(p / n), 0.1), 2))
    if p == 1:  # a unit vector in C^1, with log 1 read as 1
        assert recs["inf_norm"][0] == pytest.approx(1.0) and recs["scaled_edge"][0] == recs["scaled_bulk"][0]


def test_wishart_esd_ks_against_mp():
    from scipy import stats

    from rmtlab.spectral import mp_interval_mass

    p, n = 200, 400
    m = _factor(p, n, 15, DistSpec("rademacher"))
    eigs = np.linalg.eigvalsh(form_gram(m))
    d = stats.kstest(eigs, functools.partial(mp_interval_mass, -np.inf, y=0.5)).statistic
    assert d < 0.07
