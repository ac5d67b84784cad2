import math

import numpy as np
import pytest
from reference import one_call_draw, standardize_truncated
from scipy import special

from rmtlab.ensembles import (
    KINDS,
    DistSpec,
    ParameterError,
    UNIFORM_BOUND,
    _CHUNK,
    _RAW_SIGNS,
    _fill,
    _rng,
    form_gram,
    sample_rect,
    sample_vector,
    sample_wigner,
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


# kind -> (E x^4 in closed form, a band for the mean of x^4 over 200,000 draws fixed before the run): at least
# five standard errors sqrt((E x^8 - (E x^4)^2) / N) of each kind, which are 0, 0.022, 0.0054 and 0.11
FOURTH_MOMENTS = {
    "rademacher": (1.0, 1e-12),
    "gaussian": (3.0, 0.15),
    "bounded_uniform": (9.0 / 5.0, 0.05),
    "subexp": (6.0, 0.6),
}


@pytest.mark.parametrize("kind", KINDS)
def test_fourth_moment_closed_form_and_sample(kind):
    dist = DistSpec(kind)  # subexp at its default alpha = 1: Gamma(1 + 4 alpha) / Gamma(1 + 2 alpha)^2 = 24 / 4
    fourth, band = FOURTH_MOMENTS[kind]
    assert dist.fourth_moment() == pytest.approx(fourth, rel=1e-14)
    x = sample_vector(dist, 200_000, 13)
    assert abs(np.mean(x**4) - dist.fourth_moment()) < band


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
    upper = one_call_draw(dist, n * (n + 1) // 2, _rng(seed))
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
    for n in (1, 2, 3, 17, 64, 362):  # the packed triangle of n = 362 has 65,703 entries, past one _CHUNK
        m = sample_wigner(dist, n, 40 + n, normalize=normalize)
        assert m.tobytes() == _mask_fill_wigner(dist, n, 40 + n, normalize).tobytes()


@pytest.mark.parametrize("size", [1, 7, _CHUNK - 1, _CHUNK, _CHUNK + 1, 2 * _CHUNK + 3])
@pytest.mark.parametrize("dist", ALL_DISTS, ids=lambda d: f"{d.kind}-{d.alpha}")
def test_chunked_draws_match_one_shot_bit_for_bit(dist, size):
    # _fill makes one generator call per chunk, the oracle one for the whole stream; odd chunk lengths included:
    # the last chunk of 2 * _CHUNK + 3 entries has 3
    rng, oracle_rng = _rng(9), _rng(9)
    x = np.empty(size)
    _fill(dist, x, rng)
    assert x.tobytes() == one_call_draw(dist, size, oracle_rng).tobytes()
    # the generators end in one state, the spare 32-bit half of a 0/1 draw included, so their next draws agree
    assert rng.bit_generator.state == oracle_rng.bit_generator.state
    assert rng.integers(0, 2, size=5).tobytes() == oracle_rng.integers(0, 2, size=5).tobytes()


SIGN_DISTS = [DistSpec("rademacher"), DistSpec("subexp", alpha=0.7)]
# both sides of the raw-word cut-over, even and odd counts, and pieces cut by _CHUNK: 2 * _CHUNK + 3 ends on 3
RAW_SIZES = [_RAW_SIGNS - 1, _RAW_SIGNS, _RAW_SIGNS + 1, _RAW_SIGNS + 2, 3 * _RAW_SIGNS + 7, _CHUNK + 1, 2 * _CHUNK + 3]


@pytest.mark.parametrize("spare", [False, True], ids=["fresh", "spare_half"])
@pytest.mark.parametrize("size", RAW_SIZES)
@pytest.mark.parametrize("dist", SIGN_DISTS, ids=["rademacher", "subexp"])
def test_raw_word_signs_match_one_call_bit_for_bit(dist, size, spare):
    # a piece of _RAW_SIGNS signs or more reads them off raw PCG64 words; one that enters holding the spare 32-bit
    # half of an earlier 0/1 draw must spend it first, and every piece must leave the one call's state behind
    rng, oracle_rng = _rng(21), _rng(21)
    if spare:
        assert rng.integers(0, 2, size=1).tobytes() == oracle_rng.integers(0, 2, size=1).tobytes()
        assert rng.bit_generator.state["has_uint32"] == 1
    x = np.empty(size)
    _fill(dist, x, rng)
    assert x.tobytes() == one_call_draw(dist, size, oracle_rng).tobytes()
    assert rng.bit_generator.state == oracle_rng.bit_generator.state
    assert rng.integers(0, 2, size=5).tobytes() == oracle_rng.integers(0, 2, size=5).tobytes()


@pytest.mark.parametrize(("p", "n"), [(1, 1), (8, 16), (3, _CHUNK // 2 + 5), (400, 1000)])
@pytest.mark.parametrize("dist", ALL_DISTS, ids=lambda d: f"{d.kind}-{d.alpha}")
def test_sample_rect_matches_one_shot_bit_for_bit(dist, p, n):
    x = sample_rect(dist, p, n, 11)
    assert x.shape == (p, n) and x.tobytes() == one_call_draw(dist, (p, n), _rng(11)).tobytes()


@pytest.mark.parametrize("dist", ALL_DISTS, ids=lambda d: f"{d.kind}-{d.alpha}")
def test_sample_rect_holds_at_most_one_chunk_beside_its_output(dist, peak_bytes):
    # a 400 x 1000 draw is 3.2 MB, about six chunks; a full-size 0/1 draw would double it. tracemalloc counts
    # every Python object too (the generator, views and small arrays), so 64 KiB of slack
    x, peak = peak_bytes(sample_rect, dist, 400, 1000, 5)
    assert peak <= x.nbytes + 8 * _CHUNK + 64 * 1024


@pytest.mark.parametrize("dist", ALL_DISTS, ids=lambda d: f"{d.kind}-{d.alpha}")
def test_sample_wigner_holds_at_most_one_chunk_beside_its_matrix_and_triangle(dist, peak_bytes):
    # at n = 400 the packed upper triangle is 80,200 entries (642 kB), past one chunk, so a full-size 0/1 draw
    # or a full-size temporary of subexp's arithmetic would show beside the 1.28 MB matrix
    n = 400
    m, peak = peak_bytes(sample_wigner, dist, n, 5)
    assert peak <= m.nbytes + 8 * (n * (n + 1) // 2) + 8 * _CHUNK + 64 * 1024


@pytest.mark.parametrize("dist", [DistSpec("rademacher"), DistSpec("subexp", alpha=0.7)], ids=["rademacher", "subexp"])
def test_sign_draws_match_arithmetic_signs_bit_for_bit(dist):
    # the former sign map, kept as the oracle: the 0/1 draw as floats, times 2, minus 1
    rng = _rng(9)
    sign = rng.integers(0, 2, size=(50, 40)).astype(np.float64) * 2.0 - 1.0
    if dist.kind == "subexp":
        expected = sign * rng.standard_exponential((50, 40)) ** dist.alpha / dist.subexp_scale
    else:
        expected = sign
    assert one_call_draw(dist, (50, 40), _rng(9)).tobytes() == expected.tobytes()


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
