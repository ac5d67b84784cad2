"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

The statistical criteria run scaled-down seeded experiments; the identity and
analytic criteria are deterministic.  Budgets are wall-clock upper bounds.
"""

import functools
import math
import time

import numpy as np
import pytest
from reference import eig_decompose, fourth_moment, lemma_projection_envelope, standardize_truncated
from scipy import stats

from rmtlab.concentration import WeightedFrame, empirical_tail
from rmtlab.covariance import pv_mp, singular_vec_inf_norms
from rmtlab.delocalization import deloc_scaling_fit, eigvec_inf_norms
from rmtlab.ensembles import (
    DistSpec,
    form_gram,
    sample_rect,
    sample_wigner,
    truncation_stats,
)
from rmtlab.harness import config_from_dict, run_experiment
from rmtlab.locallaw import law_deviation, threshold_scan
from rmtlab.seeds import concat_columns, derive_seed
from rmtlab.spectral import (
    mp_edges,
    mp_interval_mass,
    pv_semicircle,
    pv_semicircle_numeric,
    rho_mp,
    sc_interval_mass,
    stieltjes_mp,
    stieltjes_sc,
)


@pytest.fixture
def announce(capsys):
    """Print a live one-line verdict for a criterion, then assert it."""

    def _announce(num, name, ok, detail, elapsed, budget):
        verdict = "PASS" if ok and elapsed < budget else "FAIL"
        with capsys.disabled():
            print(f"[criterion {num:2d}] {verdict} {name}: {detail} ({elapsed:.1f}s)")
        assert ok, f"criterion {num} failed: {detail}"
        assert elapsed < budget, f"criterion {num} over budget: {elapsed:.1f}s >= {budget}s"

    return _announce


def test_criterion_01_exact_identity_suite(announce):
    start = time.perf_counter()
    cfg = config_from_dict({"experiment": "identities", "trials": 200})
    report = run_experiment(cfg, write=False)
    elapsed = time.perf_counter() - start
    ok = report.summary["ok"]
    announce(
        1,
        "exact identity suite",
        ok,
        f"{report.summary['checks']} checks, max rel err {report.summary['max_rel_err']:.2e}",
        elapsed,
        10.0,
    )


def test_criterion_02_transform_analytics(announce):
    start = time.perf_counter()
    xs = np.linspace(-4.0, 6.0, 40)
    etas = np.logspace(-3, 1, 25)
    grid = [complex(x, e) for x in xs for e in etas]  # 1000 points
    worst_sc = max(abs(stieltjes_sc(z) + 1.0 / (z + stieltjes_sc(z))) for z in grid)
    worst_mp = 0.0
    mp_norm_err = 0.0
    for y in (0.25, 0.5, 1.0):
        for z in grid:
            s = stieltjes_mp(z, y)
            worst_mp = max(worst_mp, abs(s + 1.0 / (y + z - 1.0 + y * z * s)))
        a, b = mp_edges(y)
        mp_norm_err = max(mp_norm_err, abs(mp_interval_mass(a, b, y) - 1.0))
    sc_norm_err = abs(sc_interval_mass(-2.0, 2.0) - 1.0)
    golden_err = abs(stieltjes_sc(1j) - 1j * (math.sqrt(5.0) - 1.0) / 2.0)
    elapsed = time.perf_counter() - start
    ok = (
        worst_sc < 1e-12
        and worst_mp < 1e-12
        and sc_norm_err < 1e-10
        and mp_norm_err < 1e-8
        and golden_err < 1e-12
    )
    announce(
        2,
        "transform analytics",
        ok,
        f"residuals sc {worst_sc:.1e} mp {worst_mp:.1e}, masses {sc_norm_err:.1e}/{mp_norm_err:.1e}",
        elapsed,
        1.0,
    )


def test_criterion_03_pv_formulas(announce):
    start = time.perf_counter()
    worst_sc = max(
        abs(pv_semicircle(lam) - pv_semicircle_numeric(lam))
        for lam in (0.0, 1.0, -1.0, 1.9, -1.9, 3.0, -3.0)
    )
    y = 0.5
    a, b = mp_edges(y)
    err_a = abs(pv_mp(a, y) - math.sqrt(y))
    err_b = abs(pv_mp(b, y) + math.sqrt(y))
    elapsed = time.perf_counter() - start
    ok = worst_sc < 1e-6 and err_a < 0.05 and err_b < 0.05
    announce(
        3,
        "principal value formulas",
        ok,
        f"sc err {worst_sc:.1e}, mp edge errs {err_a:.3f}/{err_b:.3f}",
        elapsed,
        5.0,
    )


def test_criterion_04_global_laws(announce):
    start = time.perf_counter()
    n = 1000
    w = sample_wigner(DistSpec("rademacher"), n, 1)
    eigs = np.linalg.eigvalsh(w)
    ks_sc = stats.kstest(eigs, functools.partial(sc_interval_mass, -np.inf)).statistic

    p, n2 = 400, 800
    m = sample_rect(DistSpec("rademacher"), p, n2, 2)
    gram_eigs = np.linalg.eigvalsh(form_gram(m))
    a, _ = mp_edges(0.5)
    xs = np.linspace(a, mp_edges(0.5)[1], 2001)
    dens = rho_mp(xs, 0.5)
    cdf_grid = np.concatenate([[0.0], np.cumsum((dens[1:] + dens[:-1]) / 2 * np.diff(xs))])
    cdf_grid /= cdf_grid[-1]
    ks_mp = stats.kstest(gram_eigs, lambda x: np.interp(x, xs, cdf_grid)).statistic
    elapsed = time.perf_counter() - start
    ok = ks_sc < 0.05 and ks_mp < 0.05
    announce(
        4, "global laws", ok, f"KS semicircle {ks_sc:.3f}, KS MP {ks_mp:.3f}", elapsed, 60.0
    )


def test_criterion_05_local_laws_desk_scale(announce):
    start = time.perf_counter()
    n = 2000
    scale = 20 * math.log(n) / n
    worst_sc = 0.0
    for seed in range(5):
        w = sample_wigner(DistSpec("rademacher"), n, derive_seed(50, seed))
        eigs = np.linalg.eigvalsh(w)
        dev = law_deviation(eigs, sc_interval_mass, scale, (-1.8, 1.8))
        worst_sc = max(worst_sc, dev.max_rel_dev)

    p, n2 = 1000, 2000
    y = p / n2
    a, b = mp_edges(y)
    scale_mp = 20 * math.log(n2) / n2
    worst_mp = 0.0
    for seed in range(5):
        m = sample_rect(DistSpec("rademacher"), p, n2, derive_seed(51, seed))
        gram_eigs = np.linalg.eigvalsh(form_gram(m))
        dev = law_deviation(gram_eigs, functools.partial(mp_interval_mass, y=y), scale_mp, (a + 0.2, b - 0.2))
        worst_mp = max(worst_mp, dev.max_rel_dev)
    elapsed = time.perf_counter() - start
    ok = worst_sc <= 0.2 and worst_mp <= 0.25
    announce(
        5,
        "local laws at desk scale",
        ok,
        f"max rel dev semicircle {worst_sc:.3f}, MP {worst_mp:.3f}",
        elapsed,
        600.0,
    )


def test_criterion_06_threshold_scan(announce):
    start = time.perf_counter()
    n = 2000
    unit = math.log(n) / n
    mults = [1.0, 2.0, 5.0, 10.0, 20.0, 50.0]
    spectra = [
        np.linalg.eigvalsh(sample_wigner(DistSpec("rademacher"), n, derive_seed(60, t), normalize=True))
        for t in range(5)
    ]
    est = threshold_scan(spectra, sc_interval_mass, [m * unit for m in mults], delta=0.2, bulk=(-1.8, 1.8))
    curve = est.max_rel_dev
    monotone = all(curve[i + 1] <= curve[i] + 0.05 for i in range(len(curve) - 1))
    elapsed = time.perf_counter() - start
    ok = est.threshold_scale is not None and est.threshold_scale <= 50 * unit and monotone
    announce(
        6,
        "threshold scan",
        ok,
        f"threshold {est.threshold_scale and est.threshold_scale / unit:.0f} x log n/n, "
        f"curve {[round(float(v), 3) for v in curve]}",
        elapsed,
        900.0,
    )


def test_criterion_07_delocalization_scaling(announce):
    start = time.perf_counter()
    parts = []
    idx = 0
    for n in (256, 512, 1024, 2048):
        for _ in range(5):
            seed = derive_seed(70, idx)
            w = sample_wigner(DistSpec("rademacher"), n, seed)
            parts.append(eigvec_inf_norms(eig_decompose(w), seed))
            idx += 1
    records = concat_columns(parts)
    fit = deloc_scaling_fit(records)
    bulk_ok = all(0.5 <= v <= 4.0 for v in fit.bulk_table.values())
    slope_ok = 0.2 <= fit.slope <= 0.8
    edge_vals = records["scaled_edge"][records["region"] == "edge"].tolist()
    edge_ok = max(edge_vals, default=0.0) <= 4.0
    elapsed = time.perf_counter() - start
    ok = bulk_ok and slope_ok and edge_ok
    announce(
        7,
        "delocalization scaling",
        ok,
        f"bulk extremes {[round(v, 2) for v in fit.bulk_table.values()]}, "
        f"slope {fit.slope:.2f}, max edge {max(edge_vals, default=0.0):.2f}",
        elapsed,
        600.0,
    )


def test_criterion_08_quadratic_form_statistics(announce):
    start = time.perf_counter()
    n, trials = 50, 100_000
    rng = np.random.Generator(np.random.PCG64(derive_seed(80, 0)))
    a = rng.standard_normal((n, n))
    a = (a + a.T) / 2.0
    tr_a = float(np.trace(a))
    frob = float(np.linalg.norm(a))
    spec = float(np.linalg.norm(a, 2))

    x = np.random.Generator(np.random.PCG64(derive_seed(80, 1))).standard_normal((trials, n))
    vals = np.einsum("ij,jk,ik->i", x, a, x)
    mean_err = abs(np.mean(vals) - tr_a)
    stderr = math.sqrt(2.0) * frob / math.sqrt(trials)
    var_rel_err = abs(np.var(vals) / (2.0 * frob * frob) - 1.0)
    t_star = 4.0 * (frob * math.sqrt(math.log(n)) + spec * math.log(n))
    survival = float(np.count_nonzero(np.abs(vals - tr_a) >= t_star)) / trials

    # explicit-constant projection bound, gaussian entries, d = 100 weights
    d, n_proj = 100, 200
    frame = WeightedFrame(basis=np.eye(n_proj)[:, :d], weights=np.ones(d))
    k_hyp = 10.0 * (fourth_moment(DistSpec("gaussian")) + 1.0)
    env = lemma_projection_envelope(K=k_hyp)
    t_grid = np.linspace(0.0, 40.0, 21)
    tail = empirical_tail(frame, DistSpec("gaussian"), t_grid, 2000, derive_seed(80, 2))
    envelope_ok = all(
        s <= min(1.0, env(float(t))) + 1e-12 for t, s in zip(t_grid, tail.survival)
    )
    elapsed = time.perf_counter() - start
    ok = (
        mean_err <= 3.0 * stderr
        and var_rel_err <= 0.05
        and survival < 0.01
        and envelope_ok
    )
    announce(
        8,
        "quadratic form statistics",
        ok,
        f"mean err {mean_err:.2f} (3se {3 * stderr:.2f}), var rel err {var_rel_err:.3f}, "
        f"survival {survival:.4f}, envelope {'held' if envelope_ok else 'violated'}",
        elapsed,
        120.0,
    )


def test_criterion_09_truncation_machinery(announce):
    start = time.perf_counter()
    g = truncation_stats(DistSpec("gaussian"), 5.0)
    eps1_ok = abs(g.eps1 / 5.73e-7 - 1.0) < 0.01
    from rmtlab.ensembles import sample_vector

    x = sample_vector(DistSpec("gaussian"), 100_000, derive_seed(90, 0))
    var = float(np.var(standardize_truncated(x, g)))
    var_ok = abs(var - 1.0) <= 0.05
    r = truncation_stats(DistSpec("rademacher"), 2.0)
    rad_ok = r.eps1 == 0.0 and r.eps2 == 0.0 and r.eps3 == 0.0
    elapsed = time.perf_counter() - start
    ok = eps1_ok and var_ok and rad_ok
    announce(
        9,
        "truncation machinery",
        ok,
        f"eps1 {g.eps1:.3e}, standardized var {var:.4f}, rademacher exact {rad_ok}",
        elapsed,
        30.0,
    )


def test_criterion_10_determinism(announce, tmp_path):
    start = time.perf_counter()
    base = dict(
        experiment="localscan",
        n=400,
        trials=8,
        scales=[10.0, 50.0],
        base_seed=100,
        out_dir=str(tmp_path),
    )
    run_experiment(config_from_dict({**base, "workers": 1, "label": "w1"}))
    run_experiment(config_from_dict({**base, "workers": 8, "label": "w8"}))
    csv1 = (tmp_path / "localscan" / "w1" / "records.csv").read_bytes()
    csv8 = (tmp_path / "localscan" / "w8" / "records.csv").read_bytes()
    elapsed = time.perf_counter() - start
    ok = csv1 == csv8
    announce(
        10,
        "infrastructure determinism",
        ok,
        f"CSV bytes identical across workers 1 vs 8: {ok} ({len(csv1)} bytes)",
        elapsed,
        60.0,
    )
