import math

import numpy as np
import pytest
from scipy import special

from rmtlab.ensembles import (
    KINDS,
    DistSpec,
    ParameterError,
    UNIFORM_BOUND,
    _draw,
    _rng,
    form_gram,
    sample_rect,
    sample_vector,
    sample_wigner,
    standardize_truncated,
    truncation_stats,
)

ALL_DISTS = [
    DistSpec("rademacher"),
    DistSpec("gaussian"),
    DistSpec("bounded_uniform"),
    DistSpec("subexp", alpha=1.0),
    DistSpec("subexp", alpha=0.7),
]


def test_rademacher_support():
    x = sample_vector(DistSpec("rademacher"), 4, 1)
    assert set(np.unique(x)) <= {-1.0, 1.0}


def test_sampling_is_deterministic():
    for dist in ALL_DISTS:
        a = sample_vector(dist, 100, 42)
        b = sample_vector(dist, 100, 42)
        np.testing.assert_array_equal(a, b)
    np.testing.assert_array_equal(
        sample_wigner(DistSpec("gaussian"), 20, 7), sample_wigner(DistSpec("gaussian"), 20, 7)
    )


def test_gaussian_law_of_large_numbers():
    x = sample_vector(DistSpec("gaussian"), 100_000, 3)
    assert abs(np.mean(x)) < 4 / math.sqrt(100_000)
    assert abs(np.var(x) - 1.0) < 0.05


@pytest.mark.parametrize("dist", ALL_DISTS, ids=lambda d: f"{d.kind}-{d.alpha}")
def test_standardization_mean_and_variance(dist):
    # 10^6 samples: mean within 5 standard errors of 0, variance within 2% of 1
    x = sample_vector(dist, 1_000_000, 11)
    se = math.sqrt(np.var(x) / x.size)
    assert abs(np.mean(x)) < 5 * se
    assert abs(np.var(x) - 1.0) < 0.02


def test_wigner_small_matrix_structure():
    m = sample_wigner(DistSpec("rademacher"), 2, 5, normalize=False)
    assert m.shape == (2, 2)
    assert m[0, 1] == m[1, 0]
    assert set(np.unique(m)) <= {-1.0, 1.0}


def test_wigner_normalization_entry_magnitude():
    n = 16
    m = sample_wigner(DistSpec("rademacher"), n, 5, normalize=True)
    np.testing.assert_allclose(np.abs(m), 1.0 / math.sqrt(n))


def test_wigner_symmetry_is_exact():
    m = sample_wigner(DistSpec("gaussian"), 50, 9)
    np.testing.assert_array_equal(m, m.T)


def _mask_fill_wigner(dist, n, seed, normalize):
    """The former build of ``sample_wigner``, kept as its oracle: a boolean mask scatters the upper draw twice."""
    upper = _draw(dist, n * (n + 1) // 2, _rng(seed))
    m = np.zeros((n, n))
    mask = np.triu(np.ones((n, n), dtype=bool))
    m[mask] = upper
    m.T[mask] = upper
    if normalize:
        m /= math.sqrt(n)
    return m


@pytest.mark.parametrize("normalize", [True, False])
@pytest.mark.parametrize("kind", KINDS)
def test_wigner_matches_mask_fill_bit_for_bit(kind, normalize):
    dist = DistSpec(kind)
    for n in (1, 2, 3, 17, 64):
        m = sample_wigner(dist, n, 40 + n, normalize=normalize)
        assert m.tobytes() == _mask_fill_wigner(dist, n, 40 + n, normalize).tobytes()


@pytest.mark.parametrize("dist", [DistSpec("rademacher"), DistSpec("subexp", alpha=0.7)], ids=["rademacher", "subexp"])
def test_sign_draws_match_arithmetic_signs_bit_for_bit(dist):
    # the former sign map, kept as the oracle: the 0/1 draw as floats, times 2, minus 1
    rng = _rng(9)
    sign = rng.integers(0, 2, size=(50, 40)).astype(np.float64) * 2.0 - 1.0
    if dist.kind == "subexp":
        expected = sign * rng.standard_exponential((50, 40)) ** dist.alpha / dist.subexp_scale
    else:
        expected = sign
    assert _draw(dist, (50, 40), _rng(9)).tobytes() == expected.tobytes()


def test_wigner_edge_near_two():
    m = sample_wigner(DistSpec("rademacher"), 1000, 1, normalize=True)
    top = np.linalg.eigvalsh(m)[-1]
    assert 1.9 <= top <= 2.2


def test_covariance_is_psd_and_has_rank_p():
    m = sample_rect(DistSpec("rademacher"), 80, 160, 2)
    w = m.T @ m / 160
    eigs = np.linalg.eigvalsh(w)
    assert eigs.min() >= -1e-10 * 160
    assert np.count_nonzero(eigs > 1e-8) == 80
    np.testing.assert_allclose(
        np.sort(np.linalg.eigvalsh(form_gram(m))), np.sort(eigs)[-80:], atol=1e-8
    )


def test_sample_rect_rejects_bad_shape():
    with pytest.raises(ParameterError):
        sample_rect(DistSpec("gaussian"), 5, 3, 0)


def test_invalid_dist_params():
    with pytest.raises(ParameterError):
        DistSpec("subexp", alpha=-1.0)
    with pytest.raises(ParameterError):
        DistSpec("cauchy")


def test_truncation_rademacher_is_trivial():
    r = truncation_stats(DistSpec("rademacher"), 2.0)
    assert (r.eps1, r.mu, r.sigma2) == (0.0, 0.0, 1.0)
    assert r.eps2 == 0.0 and r.eps3 == 0.0


def test_truncation_gaussian_tail_matches_erfc():
    r = truncation_stats(DistSpec("gaussian"), 5.0)
    assert r.eps1 == pytest.approx(special.erfc(5.0 / math.sqrt(2.0)), rel=1e-12)
    assert r.eps1 == pytest.approx(5.73e-7, rel=1e-2)


def test_truncation_gaussian_large_K_limit():
    r = truncation_stats(DistSpec("gaussian"), 50.0)
    assert r.eps1 < 1e-12 and r.eps2 < 1e-12 and r.eps3 < 1e-12


def test_truncation_subexp_matches_incomplete_gamma():
    # small alpha makes T = (cK)^(1/alpha) huge, and the mass of u^(2 alpha) e^-u sits on a sliver of [0, T]
    for alpha in (0.1, 0.2, 0.25, 0.5, 1.0, 2.0):
        for K in (4.0, 10.0, 30.0):
            dist = DistSpec("subexp", alpha=alpha)
            r = truncation_stats(dist, K)
            c = math.sqrt(special.gamma(1 + 2 * alpha))
            T = (c * K) ** (1 / alpha)
            assert r.eps1 == pytest.approx(math.exp(-T), rel=1e-10)
            assert r.sigma2 == pytest.approx(special.gammainc(1 + 2 * alpha, T), rel=1e-9)


def test_truncation_uniform_closed_form():
    r = truncation_stats(DistSpec("bounded_uniform"), 1.5)
    assert r.eps1 == pytest.approx(1 - 1.5 / UNIFORM_BOUND, rel=1e-10)
    # second moment of U[-s,s] kept on [-K, K]: K^3 / (3 s) = (K/s)^3 for s = sqrt 3
    assert r.sigma2 == pytest.approx((1.5 / UNIFORM_BOUND) ** 3, rel=1e-12)
    assert r.mu == pytest.approx(0.0, abs=1e-14)
    for K in (UNIFORM_BOUND, 2.0, 30.0):
        r = truncation_stats(DistSpec("bounded_uniform"), K)
        assert (r.eps1, r.mu, r.sigma2) == (0.0, 0.0, 1.0)


def test_truncation_requires_K_above_one():
    with pytest.raises(ParameterError):
        truncation_stats(DistSpec("gaussian"), 0.5)


def test_standardize_rademacher_identity():
    x = sample_vector(DistSpec("rademacher"), 100, 1)
    r = truncation_stats(DistSpec("rademacher"), 2.0)
    np.testing.assert_array_equal(standardize_truncated(x, r), x)


def test_standardize_clips_large_entries():
    r = truncation_stats(DistSpec("gaussian"), 5.0)
    out = standardize_truncated(np.array([6.0]), r)
    assert out[0] == pytest.approx((0.0 - r.mu) / math.sqrt(r.sigma2))


def test_standardize_gaussian_variance():
    x = sample_vector(DistSpec("gaussian"), 100_000, 17)
    r = truncation_stats(DistSpec("gaussian"), 5.0)
    out = standardize_truncated(x, r)
    assert abs(np.var(out) - 1.0) < 0.05
    assert np.max(np.abs(out)) <= 2 * 5.0


def test_standardize_rejects_degenerate():
    bad = type(truncation_stats(DistSpec("gaussian"), 5.0))(K=5.0, eps1=0.0, mu=0.0, sigma2=0.0)
    with pytest.raises(ParameterError):
        standardize_truncated(np.array([1.0]), bad)
