"""Property-based checks of the structural invariants."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from reference import eig_decompose, singular_triplets

from rmtlab.concentration import TailEnvelope, dyadic_weight_partition
from rmtlab.covariance import covariance_schur_residual, gram_triplets, singular_identities
from rmtlab.delocalization import classify_region, wigner_identities
from rmtlab.ensembles import DistSpec, form_gram, sample_rect, sample_wigner, truncation_stats
from rmtlab.locallaw import schur_identity_residual
from rmtlab.seeds import MASK64, derive_seed
from rmtlab.spectral import (
    mp_edges,
    pv_semicircle,
    sc_interval_mass,
    stieltjes_mp,
    stieltjes_sc,
)

finite_floats = st.floats(allow_nan=False, allow_infinity=False)


@given(st.integers(0, MASK64), st.integers(0, MASK64))
def test_derive_seed_is_64bit(base, index):
    s = derive_seed(base, index)
    assert 0 <= s <= MASK64


@given(
    st.floats(-10.0, 10.0),
    st.floats(1e-6, 5.0),
)
def test_stieltjes_sc_herglotz_and_self_consistent(x, eta):
    z = complex(x, eta)
    s = stieltjes_sc(z)
    assert s.imag > 0
    assert abs(s + 1.0 / (z + s)) < 1e-9


@given(
    st.floats(-2.0, 8.0),
    st.floats(1e-5, 5.0),
    st.sampled_from([0.25, 0.5, 0.9, 1.0]),
)
def test_stieltjes_mp_herglotz_and_self_consistent(x, eta, y):
    z = complex(x, eta)
    s = stieltjes_mp(z, y)
    assert s.imag > 0
    assert abs(s + 1.0 / (y + z - 1.0 + y * z * s)) < 1e-8


@given(st.floats(-50.0, 50.0))
def test_pv_semicircle_odd_and_bounded(lam):
    assert pv_semicircle(-lam) == pytest.approx(-pv_semicircle(lam), abs=1e-12)
    assert abs(pv_semicircle(lam)) <= 1.0 + 1e-12


@given(st.floats(-2.5, 2.5), st.floats(-2.5, 2.5))
@example(0.0, 5e-324)  # adjacent floats: the midpoint rounds onto lo, so there is no split to add up
def test_sc_mass_additive_and_bounded(a, b):
    lo, hi = min(a, b), max(a, b)
    if not lo < hi:
        return
    mass = sc_interval_mass(lo, hi)
    assert 0.0 <= mass <= 1.0 + 1e-12
    mid = (lo + hi) / 2
    if lo < mid < hi:  # an empty half would raise ContractError, as every empty interval does
        assert mass == pytest.approx(sc_interval_mass(lo, mid) + sc_interval_mass(mid, hi), abs=1e-12)


@given(st.floats(-5.0, 5.0), st.floats(0.005, 0.95), st.one_of(st.none(), st.just(1.0), st.floats(0.01, 1.0)))
def test_classify_region_trichotomy(lam, fraction, y):
    # the semicircle support (y None) or the MP support at aspect ratio y; eps a fraction of the half-width
    lo, hi = (-2.0, 2.0) if y is None else mp_edges(y)
    eps = fraction * (hi - lo) / 2
    # the drawn point, and the window ends with their neighbours on either side
    ends = [lo - eps, lo + eps, hi - eps, hi + eps]
    for x in [lam, *ends, *np.nextafter(ends, -np.inf), *np.nextafter(ends, np.inf)]:
        region = classify_region(x, (lo, hi), eps)
        assert region in ("bulk", "edge", "outside")
        assert (region == "bulk") == (lo + eps <= x <= hi - eps)
        near_edge = hi - eps <= x <= hi + eps or (lo != 0.0 and lo - eps <= x <= lo + eps)
        assert (region == "edge") == (near_edge and region != "bulk")
        if y is None:
            if region == "bulk":
                assert abs(x) <= 2.0 - eps
            elif region == "outside":
                assert abs(x) > 2.0 + eps


@given(
    st.lists(st.floats(0.0, 1.0), min_size=1, max_size=60),
    st.integers(2, 5000),
)
def test_dyadic_partition_is_a_partition(weights, n):
    c = np.asarray(weights)
    blocks = dyadic_weight_partition(c, n)
    flat = np.concatenate(blocks) if blocks else np.array([])
    assert sorted(flat.tolist()) == list(range(c.size))


@given(
    st.sampled_from(["projection", "hkz", "esy1"]),
    st.floats(0.0, 30.0),
    st.floats(0.0, 30.0),
)
def test_envelopes_monotone(kind, t1, t2):
    env = TailEnvelope(kind=kind, K=1.5, frobenius=2.0, spectral=1.0)
    lo, hi = min(t1, t2), max(t1, t2)
    assert env(lo) >= env(hi) - 1e-12


@settings(max_examples=25, deadline=None)
@given(
    st.floats(1.0 + 1e-6, 30.0),
    st.sampled_from(["gaussian", "bounded_uniform", "subexp"]),
    st.floats(0.1, 3.0),
)
def test_truncation_stats_ranges(K, kind, alpha):
    r = truncation_stats(DistSpec(kind, alpha=alpha), K)
    assert 0.0 <= r.eps1 <= 1.0
    assert 0.0 <= r.sigma2 <= 1.0 + 1e-9
    assert r.eps2 == abs(r.mu)
    assert r.eps3 == abs(r.sigma2 - 1.0)


@settings(max_examples=15, deadline=None)
@given(st.integers(3, 12), st.integers(0, 2**32))
def test_schur_identity_exact_random_sizes(n, seed):
    w = sample_wigner(DistSpec("gaussian"), n, seed)
    assert schur_identity_residual(w, 0.5 + 0.5j, np.linalg.eigvalsh(w)) < 1e-10


@settings(max_examples=15, deadline=None)
@given(st.integers(2, 8), st.integers(0, 6), st.integers(0, 2**32))
def test_covariance_schur_exact_random_sizes(p, extra, seed):
    m = sample_rect(DistSpec("gaussian"), p, p + extra, seed)
    assert covariance_schur_residual(m, 0.5 + 0.5j, np.linalg.eigvalsh(form_gram(m))) < 1e-10


@pytest.mark.parametrize("triplets", [singular_triplets, gram_triplets], ids=["svd", "gram"])
@settings(max_examples=20, deadline=None)
@given(st.integers(1, 6), st.integers(0, 5), st.integers(0, 2**32))
def test_singular_triplets_orthonormal(triplets, p, extra, seed):
    m = sample_rect(DistSpec("gaussian"), p, p + extra, seed)
    trip = triplets(m)
    np.testing.assert_allclose(np.conj(trip.left).T @ trip.left, np.eye(p), atol=1e-10)
    np.testing.assert_allclose(np.conj(trip.right).T @ trip.right, np.eye(p), atol=1e-10)
    assert np.all(trip.sigma >= -1e-12)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("n", [1, 2, 3])
def test_all_index_identities_at_edge_sizes(n):
    # p = n puts the covariance factor at the hard edge; n = 1 has empty minors
    w = sample_wigner(DistSpec("gaussian"), n, 40 + n)
    m = sample_rect(DistSpec("gaussian"), n, n, 50 + n)
    decomp = eig_decompose(w)
    entry_lhs, entry_rhs, inter_lhs, inter_rhs, gap = wigner_identities(w, decomp)
    results = [(entry_lhs, entry_rhs, gap), (inter_lhs, inter_rhs, gap)]
    for side in ("right", "left"):
        entry_lhs, entry_rhs, inter_lhs, inter_rhs, gap = singular_identities(m, singular_triplets(m), side)
        results += [(entry_lhs, entry_rhs, gap), (inter_lhs, inter_rhs, gap)]
    for lhs, rhs, gap in results:
        assert lhs.shape == rhs.shape == gap.shape == (n,)
        keep = gap > 1e-8
        np.testing.assert_allclose(lhs[keep], rhs[keep], rtol=1e-8, atol=1e-10)
    if n == 1:
        for lhs, rhs, gap in results:
            assert gap[0] == math.inf
        for lhs, rhs, _ in results[::2]:  # the entry identities: 1 = 1
            assert lhs[0] == pytest.approx(1.0) and rhs[0] == 1.0
    # the diagonal expansions hold with empty minors (n = 1) and at the hard edge
    assert schur_identity_residual(w, 0.5 + 0.5j, decomp.eigenvalues) < 1e-10
    assert covariance_schur_residual(m, 0.5 + 0.5j, np.linalg.eigvalsh(form_gram(m))) < 1e-10
