import functools
import math

import numpy as np
import pytest

from rmtlab import locallaw
from rmtlab.ensembles import DistSpec, ParameterError, sample_wigner
from rmtlab.locallaw import law_deviation, least_scale, schur_identity_residual, threshold_scan
from rmtlab.seeds import map_trials
from rmtlab.spectral import ContractError, DomainError, mp_interval_mass, sc_interval_mass


def _wigner_unnorm(n, seed, dist=DistSpec("gaussian")):
    return sample_wigner(dist, n, seed, normalize=False)


def _spectra(dist, n, trials, base_seed, workers=1):
    """Normalized Wigner spectra of trials 0..trials-1, trial t drawn with seed derive_seed(base_seed, t)."""

    def spectrum(_, seed):
        return np.linalg.eigvalsh(sample_wigner(dist, n, seed, normalize=True))

    return map_trials(spectrum, trials, base_seed, workers)


def _semicircle_quantiles(n: int, grid: int = 200_001) -> np.ndarray:
    """n points at semicircle quantiles (i - 1/2)/n; a deterministic atom set.

    Inverts the closed-form CDF by monotone interpolation on a dense grid;
    good to ~1e-9 at the default resolution.
    """
    xs = np.linspace(-2.0, 2.0, grid)
    cdf = xs * np.sqrt(4.0 - xs * xs) / (4.0 * math.pi) + np.arcsin(xs / 2.0) / math.pi + 0.5
    return np.interp((np.arange(n) + 0.5) / n, cdf, xs)


def test_semicircle_quantiles_are_quantiles():
    q = _semicircle_quantiles(101)
    assert np.all(np.diff(q) > 0)
    assert abs(q[50]) < 1e-9  # median is 0
    # CDF at each atom equals (i + 1/2)/n
    for i in (0, 25, 100):
        mass = sc_interval_mass(-2.0, q[i]) if q[i] > -2 else 0.0
        assert mass == pytest.approx((i + 0.5) / 101, abs=1e-8)


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
    eigs = np.linalg.eigvalsh(m / math.sqrt(5))
    with pytest.raises(DomainError):
        schur_identity_residual(m, 1.0 - 0.1j, eigs)
    with pytest.raises(ContractError):
        schur_identity_residual(m, 1.0 + 0.1j, np.r_[eigs, 0.0, 0.0])


def test_law_deviation_on_perfect_atoms():
    eigs = _semicircle_quantiles(20000)
    dev = law_deviation(eigs, sc_interval_mass, 0.05, (-1.8, 1.8))
    assert dev.max_rel_dev < 0.01
    assert dev.windows.size
    for lo, hi, count, mass, rel in dev.windows.tolist():
        assert hi <= 1.8 + 1e-12
        assert rel == pytest.approx(abs(count - mass) / mass)


@pytest.mark.parametrize("scale", [0.0137, 0.05, 1.0, 5.0])
def test_law_deviation_grid_is_repeated_addition(scale):
    # the reference builds the window starts one float addition at a time
    eigs = _semicircle_quantiles(2000)
    lo, hi = -1.8, 1.8
    starts = [lo]
    while starts[-1] + scale < hi - 1e-12:
        starts.append(starts[-1] + 0.25 * scale)
    dev = law_deviation(eigs, sc_interval_mass, scale, (lo, hi))
    assert dev.windows["window_lo"].tolist() == starts
    assert dev.windows["window_hi"].tolist() == [min(s + scale, hi) for s in starts]
    for w_lo, w_hi, count, mass, rel in dev.windows.tolist():
        assert type(count) is int and all(type(v) is float for v in (w_lo, w_hi, mass, rel))
        assert count == int(np.sum((eigs >= w_lo) & (eigs < w_hi)))


def test_law_deviation_detects_a_hole():
    eigs = _semicircle_quantiles(20000)
    holed = eigs[(eigs < 0.0) | (eigs > 0.2)]
    dev = law_deviation(holed, sc_interval_mass, 0.1, (-1.8, 1.8))
    assert dev.max_rel_dev > 0.5


def test_law_deviation_validation():
    eigs = _semicircle_quantiles(100)
    with pytest.raises(ParameterError):
        law_deviation(eigs, sc_interval_mass, -1.0, (-1.8, 1.8))
    with pytest.raises(ContractError):
        law_deviation(eigs, sc_interval_mass, 0.1, (1.8, -1.8))


def test_law_deviation_rejects_an_over_fine_scale_before_laying_out_windows(monkeypatch):
    # 1e-15 over (-1.8, 1.8) would take ~1.4e16 window starts; the cap of 100 windows per eigenvalue
    # (least_scale, the rule config load applies too) refuses it before any is allocated
    eigs = _semicircle_quantiles(100)
    monkeypatch.setattr(locallaw, "_window_starts", lambda *args: pytest.fail("windows laid out"))
    with pytest.raises(ParameterError, match="100 per eigenvalue"):
        law_deviation(eigs, sc_interval_mass, 1e-15, (-1.8, 1.8))
    least = least_scale(eigs.size, (-1.8, 1.8))
    assert least == 3.6 / (100 * 100 * 0.25)
    with pytest.raises(ParameterError):
        law_deviation(eigs, sc_interval_mass, least * (1 - 1e-12), (-1.8, 1.8))
    monkeypatch.undo()
    dev = law_deviation(eigs, sc_interval_mass, least, (-1.8, 1.8))
    assert dev.windows.size <= 100 * eigs.size + 2


def test_law_deviation_mp_density():
    from rmtlab.ensembles import form_gram, sample_rect

    m = sample_rect(DistSpec("gaussian"), 600, 1200, 7)
    eigs = np.linalg.eigvalsh(form_gram(m))
    dev = law_deviation(eigs, functools.partial(mp_interval_mass, y=0.5), 0.2, (0.3, 2.7))
    assert dev.max_rel_dev < 0.2
    # y = 1 (p = n): the support is [0, 4], and the scan starts at the hard edge 0, where the density diverges
    m = sample_rect(DistSpec("gaussian"), 600, 600, 7)
    eigs = np.linalg.eigvalsh(form_gram(m))
    dev = law_deviation(eigs, functools.partial(mp_interval_mass, y=1.0), 0.2, (0.0, 3.0))
    assert dev.windows["window_lo"][0] == 0.0
    assert dev.max_rel_dev < 0.2


def test_wigner_local_law_moderate():
    n = 800
    m = sample_wigner(DistSpec("rademacher"), n, 8, normalize=True)
    eigs = np.linalg.eigvalsh(m)
    scale = 30 * math.log(n) / n
    dev = law_deviation(eigs, sc_interval_mass, scale, (-1.8, 1.8))
    assert dev.max_rel_dev <= 0.3


def test_threshold_scan_finds_threshold_and_matches_serial():
    dist = DistSpec("rademacher")
    n = 400
    unit = math.log(n) / n
    scales = [unit, 10 * unit, 50 * unit]
    est = threshold_scan(_spectra(dist, n, 3, 5), sc_interval_mass, scales, delta=0.25, bulk=(-1.8, 1.8))
    assert est.threshold_scale is not None
    assert est.threshold_scale <= 50 * unit
    est2 = threshold_scan(_spectra(dist, n, 3, 5, workers=2), sc_interval_mass, scales, delta=0.25, bulk=(-1.8, 1.8))
    np.testing.assert_array_equal(est.max_rel_dev, est2.max_rel_dev)
    assert est2.threshold_scale == est.threshold_scale


def test_threshold_scan_none_when_unreachable():
    dist = DistSpec("rademacher")
    n = 200
    unit = math.log(n) / n
    est = threshold_scan(_spectra(dist, n, 1, 0), sc_interval_mass, [0.1 * unit], delta=1e-6, bulk=(-1.8, 1.8))
    assert est.threshold_scale is None


def test_threshold_scan_takes_any_mass_function():
    # evenly spaced points on [0, 1] against the uniform law's mass, hi - lo: every window holds its share
    spectra = [(np.arange(10000) + 0.5) / 10000]
    est = threshold_scan(spectra, lambda lo, hi: hi - lo, [0.05, 0.1], delta=0.01, bulk=(0.0, 1.0))
    assert np.all(est.max_rel_dev < 1e-3)
    assert est.threshold_scale == 0.05


def test_threshold_scan_validation():
    spectra = _spectra(DistSpec("rademacher"), 100, 1, 0)
    with pytest.raises(ParameterError):
        threshold_scan(spectra, sc_interval_mass, [0.2, 0.1], 0.2, (-1.8, 1.8))
    with pytest.raises(ParameterError):
        threshold_scan([], sc_interval_mass, [0.1], 0.2, (-1.8, 1.8))
