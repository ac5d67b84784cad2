import math

import numpy as np
import pytest

from rmtlab.covariance import (
    classify_mp_region,
    covariance_schur_residual,
    covariance_schur_terms,
    gram_triplets,
    mp_self_consistency_residual,
    pv_mp,
    singular_identities,
    singular_triplets,
    singular_vec_inf_norms,
)
from rmtlab.ensembles import DistSpec, ParameterError, form_gram, sample_rect
from rmtlab.spectral import ContractError, DomainError, mp_edges


def _factor(p, n, seed, dist=DistSpec("gaussian")):
    return sample_rect(dist, p, n, seed)


@pytest.mark.parametrize("triplets", [singular_triplets, gram_triplets], ids=["svd", "gram"])
def test_singular_triplets_reconstruct(triplets):
    m = _factor(4, 7, 0)
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


def test_sigma_lambda_bridge():
    # sigma_i(M) = sqrt(n * lambda_i) with lambda_i the covariance eigenvalues
    m = _factor(5, 9, 1)
    n = 9
    trip = singular_triplets(m)
    lam = np.linalg.eigvalsh(form_gram(m))
    np.testing.assert_allclose(trip.sigma, np.sqrt(n * lam), atol=1e-10)


@pytest.mark.filterwarnings("error")
def test_covariance_schur_terms_p1_degenerate():
    m = _factor(1, 6, 2)
    z = 0.5 + 0.5j
    t = covariance_schur_terms(m, z, 0)
    assert t.yk == 0.0j and t.s_minor == 0.0j
    # with p = 1: s(z) = 1/(xi_11 - z) exactly
    gram = form_gram(m)
    assert 1.0 / (t.xi_kk - z) == pytest.approx(1.0 / (gram[0, 0] - z), abs=1e-14)


def test_covariance_schur_terms_fields():
    m = _factor(6, 11, 3)
    z = 1.0 + 0.4j
    t = covariance_schur_terms(m, z, 2)
    assert t.xi_kk == pytest.approx(float(np.sum(m[2] ** 2)) / 11)
    assert t.expected_yk == pytest.approx((5 / 11) * (1.0 + z * t.s_minor), abs=1e-14)
    with pytest.raises(DomainError):
        covariance_schur_terms(m, 1.0 - 0.1j, 0)
    with pytest.raises(ContractError):
        covariance_schur_terms(m, z, 6)


def test_covariance_schur_identity_exact():
    for p, n, seed in [(2, 3, 4), (6, 10, 5), (9, 9, 6)]:
        m = _factor(p, n, seed)
        assert covariance_schur_residual(m, 0.8 + 0.6j) < 1e-11


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
    with pytest.raises(ParameterError):
        pv_mp(1.0, y, excision=-1.0)


def test_classify_mp_region_soft_and_hard():
    a, b = mp_edges(0.5)
    assert classify_mp_region((a + b) / 2, 0.5, 0.1) == "bulk"
    assert classify_mp_region(a - 0.05, 0.5, 0.1) == "edge"
    assert classify_mp_region(b + 0.05, 0.5, 0.1) == "edge"
    assert classify_mp_region(b + 0.5, 0.5, 0.1) == "outside"
    # hard edge at y = 1: nothing near 0 is "edge"
    assert classify_mp_region(0.01, 1.0, 0.1) == "outside"
    assert classify_mp_region(3.95, 1.0, 0.1) == "edge"
    assert classify_mp_region(2.0, 1.0, 0.1) == "bulk"


def test_singular_vec_inf_norms_records():
    p, n = 40, 80
    m = _factor(p, n, 14)
    recs = singular_vec_inf_norms(singular_triplets(m), eps=0.1, seed=14)
    assert len(recs) == 2 * p
    sides = {r.side for r in recs}
    assert sides == {"left", "right"}
    for r in recs:
        dim = p if r.side == "left" else n
        assert r.n == dim
        assert 1.0 / math.sqrt(dim) - 1e-12 <= r.inf_norm <= 1.0
    # bulk right singular vectors are delocalized at this size
    bulk_right = [r.scaled_bulk for r in recs if r.side == "right" and r.region == "bulk"]
    assert bulk_right and max(bulk_right) < 5.0


def test_wishart_esd_ks_against_mp():
    from rmtlab.spectral import ks_distance, mp_interval_mass

    p, n = 200, 400
    m = _factor(p, n, 15, DistSpec("rademacher"))
    eigs = np.linalg.eigvalsh(form_gram(m))
    a, _ = mp_edges(0.5)
    d = ks_distance(eigs, lambda x: mp_interval_mass(a, x, 0.5) if x > a else 0.0)
    assert d < 0.07
