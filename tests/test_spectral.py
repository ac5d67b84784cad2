import functools
import math

import numpy as np
import pytest
from scipy import integrate, stats

from rmtlab.ensembles import DistSpec, ParameterError, sample_wigner
from rmtlab.spectral import (
    SC_EDGES,
    ContractError,
    DomainError,
    check_hermitian,
    eig_decompose,
    mp_edges,
    mp_interval_mass,
    pv_semicircle,
    pv_semicircle_numeric,
    rho_mp,
    rho_sc,
    sc_interval_mass,
    stieltjes_empirical,
    stieltjes_mp,
    stieltjes_sc,
)


def test_check_hermitian_rejects():
    with pytest.raises(ContractError):
        check_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(ContractError):
        check_hermitian(np.ones((2, 3)))


def test_eig_decompose_reconstructs():
    w = sample_wigner(DistSpec("gaussian"), 30, 3)
    d = eig_decompose(w)
    recon = (d.eigenvectors * d.eigenvalues) @ d.eigenvectors.T
    np.testing.assert_allclose(recon, w, atol=1e-12)
    assert np.all(np.diff(d.eigenvalues) >= 0)


def test_rho_sc_values():
    assert rho_sc(0.0) == pytest.approx(1.0 / math.pi)
    assert rho_sc(2.0) == 0.0
    assert rho_sc(2.5) == 0.0
    arr = rho_sc(np.array([-3.0, 0.0, 3.0]))
    np.testing.assert_allclose(arr, [0.0, 1.0 / math.pi, 0.0])


def test_sc_mass_total_and_symmetry():
    assert sc_interval_mass(-2.0, 2.0) == pytest.approx(1.0, abs=1e-14)
    assert sc_interval_mass(-1.0, 0.0) == pytest.approx(sc_interval_mass(0.0, 1.0), abs=1e-14)
    assert sc_interval_mass(-5.0, -2.0) == 0.0


def test_sc_mass_matches_quadrature():
    for lo, hi in [(-1.3, 0.4), (1.5, 2.0), (-2.0, -1.9)]:
        ref, _ = integrate.quad(rho_sc, lo, hi, epsabs=1e-12)
        assert sc_interval_mass(lo, hi) == pytest.approx(ref, abs=1e-10)


def test_sc_mass_elementwise_on_arrays():
    lo = np.array([-3.0, -1.3, 1.5, 2.5])
    hi = np.array([-1.0, 0.4, 2.0, 3.0])
    masses = sc_interval_mass(lo, hi)
    np.testing.assert_array_equal(masses, [sc_interval_mass(a, b) for a, b in zip(lo, hi)])
    assert masses[-1] == 0.0
    with pytest.raises(ContractError):
        sc_interval_mass(lo, lo)
    # one interval contract for both laws: a reversed, empty or NaN interval raises, on or off the support
    bad = [(hi, lo), (lo, lo), (1.0, 0.5), (1.0, 1.0), (5.0, 5.0), (math.nan, 1.0), (0.5, math.nan)]
    for mass in [sc_interval_mass] + [functools.partial(mp_interval_mass, y=y) for y in (0.5, 1.0)]:
        for bad_lo, bad_hi in bad:
            with pytest.raises(ContractError, match="lo < hi"):
                mass(bad_lo, bad_hi)


@pytest.mark.parametrize("y", [0.1, 0.5, 1.0])
def test_mp_mass_matches_quadrature(y):
    # quadrature of the density is the oracle for the closed-form antiderivative
    a, b = mp_edges(y)
    edges = np.concatenate([[a - 0.5, a, a + 1e-6, a + 0.01], np.linspace(a + 0.05, b, 9), [b + 0.5]])
    lo, hi = edges[:-1], edges[1:]
    masses = mp_interval_mass(lo, hi, y)
    assert np.all(np.isfinite(masses))
    for m, l, h in zip(masses, lo, hi):
        ref, _ = integrate.quad(lambda x: rho_mp(x, y), max(l, a), min(h, b), epsabs=1e-14, epsrel=1e-13, limit=400)
        assert m == pytest.approx(ref, rel=1e-10, abs=1e-15)
        assert mp_interval_mass(l, h, y) == m
    assert mp_interval_mass(b, b + 1.0, y) == 0.0
    assert mp_interval_mass(a, b, y) == pytest.approx(1.0, abs=1e-14)


_A, _B = mp_edges(0.5)
# law -> (the law, the argument tuples of its points): both support edges, points outside and inside, x = 0 at
# y = 1 (the MP hard edge) and NaN for the densities; a mass's interval starts at its point
_LAWS = {
    "rho_sc": (rho_sc, [(x,) for x in (-2.0, 2.0, -2.5, 3.0, 0.0, 1.3, math.nan)]),
    "rho_mp-0.5": (functools.partial(rho_mp, y=0.5), [(x,) for x in (_A, _B, 0.0, -1.0, 3.5, 1.0, math.nan)]),
    "rho_mp-1": (functools.partial(rho_mp, y=1.0), [(x,) for x in (0.0, 4.0, -0.5, 4.5, 1e-3, 2.0, math.nan)]),
    "sc_interval_mass": (sc_interval_mass, [(x, x + 0.5) for x in (-2.0, 2.0, -3.0, 2.5, -2.25, 0.0, 1.7)]),
    "mp_interval_mass-0.5": (
        functools.partial(mp_interval_mass, y=0.5),
        [(x, x + 0.5) for x in (_A, _B, -1.0, 3.5, _A - 0.25, 1.0, _B - 0.25)],
    ),
    "mp_interval_mass-1": (
        functools.partial(mp_interval_mass, y=1.0),
        [(x, x + 0.5) for x in (0.0, 4.0, -1.0, 5.0, -0.25, 1.0, 3.75)],
    ),
}


@pytest.mark.parametrize("name", _LAWS)
def test_law_of_a_scalar_is_a_0d_float64_with_the_bits_of_its_array_point(name):
    law, points = _LAWS[name]
    values = law(*map(np.array, zip(*points)))
    assert values.shape == (len(points),)
    singles = []
    for args in points:
        as_float, as_0d = law(*args), law(*map(np.array, args))
        for value in (as_float, as_0d):
            assert type(value) is np.float64 and np.ndim(value) == 0
        assert as_float.tobytes() == as_0d.tobytes()
        singles.append(as_float)
    assert values.tobytes() == np.array(singles).tobytes()


def test_stieltjes_sc_golden_point():
    # s(i) = i*(sqrt(5)-1)/2
    val = stieltjes_sc(1j)
    assert val == pytest.approx(1j * (math.sqrt(5.0) - 1.0) / 2.0, abs=1e-14)


def test_stieltjes_sc_self_consistency_and_herglotz():
    for z in (0.5 + 0.1j, -1.9 + 0.01j, 3.0 + 1.0j, 1e-3j + 2.0):
        s = stieltjes_sc(z)
        assert abs(s + 1.0 / (z + s)) < 1e-12
        assert s.imag > 0


def test_stieltjes_sc_matches_integral():
    z = 0.7 + 0.3j
    re, _ = integrate.quad(lambda x: rho_sc(x) * ((x - z.real) / abs(x - z) ** 2), -2, 2, epsabs=1e-12)
    im, _ = integrate.quad(lambda x: rho_sc(x) * (z.imag / abs(x - z) ** 2), -2, 2, epsabs=1e-12)
    assert stieltjes_sc(z) == pytest.approx(re + 1j * im, abs=1e-9)


def test_stieltjes_requires_upper_half_plane():
    for f in (stieltjes_sc, lambda z: stieltjes_mp(z, 0.5), lambda z: stieltjes_empirical(np.array([0.0]), z)):
        with pytest.raises(DomainError):
            f(1.0 - 0.5j)


def test_stieltjes_empirical_two_atoms():
    eigs = np.array([-1.0, 1.0])
    z = 0.5j
    expected = 0.5 * (1.0 / (-1.0 - z) + 1.0 / (1.0 - z))
    assert stieltjes_empirical(eigs, z) == pytest.approx(expected, abs=1e-15)


def test_mp_edges():
    a, b = mp_edges(0.25)
    assert a == pytest.approx(0.25)
    assert b == pytest.approx(2.25)
    assert mp_edges(1.0) == (0.0, 4.0)
    with pytest.raises(ParameterError):
        mp_edges(1.5)


@pytest.mark.parametrize("y", [0.25, 0.5, 1.0])
def test_rho_mp_normalizes(y):
    a, b = mp_edges(y)
    mass, _ = integrate.quad(lambda x: rho_mp(x, y), a, b, epsabs=1e-10, limit=200)
    assert mass == pytest.approx(1.0, abs=1e-8)
    assert mp_interval_mass(a, b, y) == pytest.approx(1.0, abs=1e-8)


@pytest.mark.parametrize("y", [0.25, 0.5, 1.0])
def test_stieltjes_mp_self_consistency(y):
    a, b = mp_edges(y)
    for z in (a + 0.3 + 0.05j, (a + b) / 2 + 0.01j, b + 1.0 + 1.0j):
        s = stieltjes_mp(z, y)
        assert abs(s + 1.0 / (y + z - 1.0 + y * z * s)) < 1e-12
        assert s.imag > 0


def test_stieltjes_mp_matches_integral():
    y = 0.5
    a, b = mp_edges(y)
    z = 1.2 + 0.2j

    def integrand_re(x):
        return rho_mp(x, y) * (x - z.real) / abs(x - z) ** 2

    def integrand_im(x):
        return rho_mp(x, y) * z.imag / abs(x - z) ** 2

    re, _ = integrate.quad(integrand_re, a, b, epsabs=1e-11, limit=300)
    im, _ = integrate.quad(integrand_im, a, b, epsabs=1e-11, limit=300)
    assert stieltjes_mp(z, y) == pytest.approx(re + 1j * im, abs=1e-8)


def test_pv_semicircle_inside_is_linear():
    for lam in (0.0, 0.5, -1.7, 2.0):
        assert pv_semicircle(lam) == pytest.approx(-lam / 2.0)


def test_pv_semicircle_outside_decays():
    assert pv_semicircle(3.0) == pytest.approx(-1.5 + math.sqrt(5.0) / 2.0)
    assert pv_semicircle(-3.0) == -pv_semicircle(3.0)
    # behaves like -1/lam at large |lam| (Stieltjes decay)
    assert pv_semicircle(100.0) == pytest.approx(-1.0 / 100.0, rel=1e-3)


@pytest.mark.parametrize("lam", [0.0, 1.0, -1.0, 1.9, -1.9, 3.0, -3.0])
def test_pv_semicircle_matches_numeric_oracle(lam):
    assert pv_semicircle(lam) == pytest.approx(pv_semicircle_numeric(lam), abs=1e-6)


@pytest.mark.parametrize("y", [None, 0.5, 1.0], ids=["semicircle", "mp-0.5", "mp-1"])
def test_mass_from_minus_inf_is_the_cdf(y):
    # the CDF that KS distances read, bit for bit the hand-written 0 up to the lower edge, the mass from it above
    mass = sc_interval_mass if y is None else functools.partial(mp_interval_mass, y=y)
    lo, hi = SC_EDGES if y is None else mp_edges(y)
    x = np.array([lo - 1.0, lo, np.nextafter(lo, np.inf), (lo + hi) / 2, hi, hi + 1.0])
    cdf = mass(-np.inf, x)
    hand = np.array([mass(lo, v) if v > lo else 0.0 for v in x.tolist()])
    np.testing.assert_array_equal(cdf.view(np.uint64), hand.view(np.uint64))
    assert cdf[-1] == pytest.approx(1.0, abs=1e-14)


def test_ks_distance_exact_on_quantiles():
    # atoms at quantile midpoints give KS = 1/(2n) exactly
    n = 50
    xs = np.linspace(-2.0, 2.0, 200_001)
    cdf = xs * np.sqrt(4.0 - xs * xs) / (4.0 * math.pi) + np.arcsin(xs / 2.0) / math.pi + 0.5
    q = np.interp((np.arange(n) + 0.5) / n, cdf, xs)
    d = stats.kstest(q, functools.partial(sc_interval_mass, -np.inf)).statistic
    assert d == pytest.approx(1.0 / (2 * n), abs=1e-6)


def test_ks_distance_degenerate():
    # one atom at 5 vs a unit step at 0: the gap just left of the atom is 1
    d = stats.kstest(np.array([5.0]), lambda x: np.where(x < 0, 0.0, 1.0)).statistic
    assert d == pytest.approx(1.0, abs=1e-12)


def test_wigner_esd_converges_in_ks():
    w = sample_wigner(DistSpec("gaussian"), 800, 4)
    eigs = np.linalg.eigvalsh(w)
    d = stats.kstest(eigs, functools.partial(sc_interval_mass, -np.inf)).statistic
    assert d < 0.06
