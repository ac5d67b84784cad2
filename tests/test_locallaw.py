import math

import numpy as np
import pytest

from rmtlab.ensembles import DistSpec, ParameterError, sample_wigner
from rmtlab.locallaw import (
    crude_count_check,
    law_deviation,
    schur_identity_residual,
    schur_terms,
    self_consistency_residual,
    threshold_scan,
    yk_deviation,
    yk_r_decomposition,
)
from rmtlab.spectral import ContractError, DomainError, semicircle_quantiles


def _wigner_unnorm(n, seed, dist=DistSpec("gaussian")):
    return sample_wigner(dist, n, seed, normalize=False)


@pytest.mark.filterwarnings("error")
def test_schur_terms_shapes_and_minor_transform():
    m = _wigner_unnorm(12, 0)
    z = 0.4 + 0.6j
    t = schur_terms(m, z, 3)
    assert t.k == 3
    assert t.diag == pytest.approx(m[3, 3] / math.sqrt(12))
    assert t.expected_yk == pytest.approx((1 - 1 / 12) * t.s_minor)
    assert t.s_minor.imag > 0
    # Y_k through the minor's eigendecomposition agrees with the linear solve
    w = m / math.sqrt(12)
    vals, vecs = np.linalg.eigh(np.delete(np.delete(w, 3, axis=0), 3, axis=1))
    overlaps = np.abs(np.conj(vecs).T @ np.delete(w[:, 3], 3)) ** 2
    yk_eig = complex(np.sum(overlaps / (vals - z)))
    assert abs(t.yk - yk_eig) <= 1e-8 * max(1.0, abs(t.yk))
    # n = 1: the minor is empty, so Y_k and its Stieltjes transform are 0
    one = schur_terms(np.array([[0.7]]), z, 0)
    assert one.yk == 0.0j and one.s_minor == 0.0j and one.expected_yk == 0.0j
    assert one.diag == 0.7


def test_schur_identity_is_exact():
    # the diagonal expansion is an algebraic identity, not an approximation
    for n, seed in [(5, 1), (20, 2), (40, 3)]:
        m = _wigner_unnorm(n, seed)
        assert schur_identity_residual(m, 0.3 + 0.7j, np.linalg.eigvalsh(m / math.sqrt(n))) < 1e-11


def test_schur_identity_exact_rademacher():
    m = _wigner_unnorm(15, 4, DistSpec("rademacher"))
    eigs = np.linalg.eigvalsh(m / math.sqrt(15))
    assert schur_identity_residual(m, -1.0 + 0.2j, eigs) < 1e-11
    with pytest.raises(ContractError):
        schur_identity_residual(m, -1.0 + 0.2j, eigs[1:])


def test_schur_requires_upper_half_plane():
    m = _wigner_unnorm(5, 0)
    with pytest.raises(DomainError):
        schur_terms(m, 1.0 - 0.1j, 0)
    with pytest.raises(ContractError):
        schur_terms(m, 1.0 + 0.1j, 7)


def test_yk_r_decomposition_recombines():
    m = _wigner_unnorm(14, 5)
    z = 0.1 + 0.5j
    k = 2
    vals, r = yk_r_decomposition(m, z, k)
    recombined = complex(np.sum(r / (vals - z))) / 14
    assert recombined == pytest.approx(yk_deviation(m, z, k), abs=1e-10)
    # E R_j = 0 over entry randomness; crude sanity via many instances
    assert r.size == 13


def test_yk_deviation_shrinks_with_n():
    z = 0.0 + 1.0j
    small = [abs(yk_deviation(_wigner_unnorm(10, s), z, 0)) for s in range(20)]
    large = [abs(yk_deviation(_wigner_unnorm(160, s), z, 0)) for s in range(20)]
    assert np.mean(large) < np.mean(small)


def test_self_consistency_residual_on_quantiles():
    # semicircle quantile atoms nearly solve the fixed-point equation
    eigs = semicircle_quantiles(4000)
    assert self_consistency_residual(eigs, 0.5 + 0.05j) < 5e-3
    assert self_consistency_residual(eigs, 0.0 + 1.0j) < 1e-5


def test_self_consistency_residual_wigner():
    m = sample_wigner(DistSpec("rademacher"), 1500, 6, normalize=True)
    eigs = np.linalg.eigvalsh(m)
    eta = 10 * math.log(1500) / 1500
    assert self_consistency_residual(eigs, 0.3 + 1j * eta) < 0.1


def test_law_deviation_on_perfect_atoms():
    eigs = semicircle_quantiles(20000)
    dev = law_deviation(eigs, "semicircle", 0.05, (-1.8, 1.8))
    assert dev.max_rel_dev < 0.01
    assert dev.windows.size
    for lo, hi, count, mass, rel in dev.windows.tolist():
        assert hi <= 1.8 + 1e-12
        assert rel == pytest.approx(abs(count - mass) / mass)


@pytest.mark.parametrize("scale", [0.0137, 0.05, 1.0, 5.0])
def test_law_deviation_grid_is_repeated_addition(scale):
    # the reference builds the window starts one float addition at a time
    eigs = semicircle_quantiles(2000)
    lo, hi = -1.8, 1.8
    starts = [lo]
    while starts[-1] + scale < hi - 1e-12:
        starts.append(starts[-1] + 0.25 * scale)
    dev = law_deviation(eigs, "semicircle", scale, (lo, hi))
    assert dev.windows["window_lo"].tolist() == starts
    assert dev.windows["window_hi"].tolist() == [min(s + scale, hi) for s in starts]
    for w_lo, w_hi, count, mass, rel in dev.windows.tolist():
        assert type(count) is int and all(type(v) is float for v in (w_lo, w_hi, mass, rel))
        assert count == int(np.sum((eigs >= w_lo) & (eigs < w_hi)))


def test_law_deviation_detects_a_hole():
    eigs = semicircle_quantiles(20000)
    holed = eigs[(eigs < 0.0) | (eigs > 0.2)]
    dev = law_deviation(holed, "semicircle", 0.1, (-1.8, 1.8))
    assert dev.max_rel_dev > 0.5


def test_law_deviation_validation():
    eigs = semicircle_quantiles(100)
    with pytest.raises(ParameterError):
        law_deviation(eigs, "semicircle", -1.0, (-1.8, 1.8))
    with pytest.raises(ContractError):
        law_deviation(eigs, "semicircle", 0.1, (1.8, -1.8))
    with pytest.raises(ParameterError):
        law_deviation(eigs, ("not-mp", 0.5), 0.1, (-1.8, 1.8))


def test_law_deviation_mp_density():
    from rmtlab.ensembles import form_gram, sample_rect

    m = sample_rect(DistSpec("gaussian"), 600, 1200, 7)
    eigs = np.linalg.eigvalsh(form_gram(m))
    dev = law_deviation(eigs, ("mp", 0.5), 0.2, (0.3, 2.7))
    assert dev.max_rel_dev < 0.2


@pytest.mark.parametrize("scale", [0.2, 0.05, 0.013])
def test_crude_count_check_matches_window_loop(scale):
    # reference: windows from min eig - scale/2 in steps of scale/4 by repeated addition
    eigs = np.sort(np.linalg.eigvalsh(sample_wigner(DistSpec("rademacher"), 300, 3, normalize=True)))
    best, w_lo = 0.0, float(eigs[0]) - scale / 2.0
    while w_lo < eigs[-1]:
        count = int(np.searchsorted(eigs, w_lo + scale) - np.searchsorted(eigs, w_lo))
        best = max(best, count / (300 * scale))
        w_lo += scale / 4.0
    assert crude_count_check(eigs, 300, scale) == best


def test_crude_count_check_bounded_by_density_peak():
    eigs = semicircle_quantiles(5000)
    peak = crude_count_check(eigs, 5000, 0.2)
    # the max local density of the semicircle is 1/pi
    assert peak == pytest.approx(1.0 / math.pi, rel=0.05)


def test_wigner_local_law_moderate():
    n = 800
    m = sample_wigner(DistSpec("rademacher"), n, 8, normalize=True)
    eigs = np.linalg.eigvalsh(m)
    scale = 30 * math.log(n) / n
    dev = law_deviation(eigs, "semicircle", scale, (-1.8, 1.8))
    assert dev.max_rel_dev <= 0.3


def test_threshold_scan_finds_threshold_and_matches_serial():
    dist = DistSpec("rademacher")
    n = 400
    unit = math.log(n) / n
    scales = [unit, 10 * unit, 50 * unit]
    est = threshold_scan(dist, n, scales, delta=0.25, trials=3, bulk=(-1.8, 1.8), base_seed=5)
    assert est.threshold_scale is not None
    assert est.threshold_scale <= 50 * unit
    est2 = threshold_scan(
        dist, n, scales, delta=0.25, trials=3, bulk=(-1.8, 1.8), base_seed=5, workers=2
    )
    np.testing.assert_array_equal(est.max_rel_dev, est2.max_rel_dev)
    assert est2.threshold_scale == est.threshold_scale


def test_threshold_scan_none_when_unreachable():
    dist = DistSpec("rademacher")
    n = 200
    unit = math.log(n) / n
    est = threshold_scan(dist, n, [0.1 * unit], delta=1e-6, trials=1, bulk=(-1.8, 1.8), base_seed=0)
    assert est.threshold_scale is None


def test_threshold_scan_validation():
    with pytest.raises(ParameterError):
        threshold_scan(DistSpec("rademacher"), 100, [0.2, 0.1], 0.2, 1, (-1.8, 1.8), 0)
    with pytest.raises(ParameterError):
        threshold_scan(DistSpec("rademacher"), 100, [0.1], 0.2, 0, (-1.8, 1.8), 0)
