import math

import numpy as np
import pytest
from reference import eig_decompose

from rmtlab.delocalization import (
    _column_inf_norms,
    _pole_sums,
    classify_region,
    deloc_scaling_fit,
    eigvec_inf_norms,
    wigner_identities,
)
from rmtlab.ensembles import DistSpec, sample_wigner
from rmtlab.seeds import concat_columns
from rmtlab.spectral import ContractError


def synthetic_records(n_values, inf_norm_fn) -> dict:
    """One bulk row per n with the prescribed inf_norm profile."""
    v = np.array([float(inf_norm_fn(n)) for n in n_values])
    return {
        "n": np.array(n_values),
        "region": np.full(len(n_values), "bulk"),
        "inf_norm": v,
        "scaled_bulk": np.array([math.sqrt(n) * x / math.sqrt(math.log(n)) for n, x in zip(n_values, v)]),
        "scaled_edge": np.array([math.sqrt(n) * x / math.log(n) for n, x in zip(n_values, v)]),
    }


def test_column_inf_norms_match_abs_max():
    rng = np.random.default_rng(3)
    real = rng.standard_normal((30, 12))
    for v in (real, real + 1j * rng.standard_normal((30, 12))):
        assert _column_inf_norms(v).tobytes() == np.abs(v).max(axis=0).tobytes()


def test_pole_sums_match_the_loop_bit_for_bit():
    rng = np.random.default_rng(5)
    cases = [(rng.random(m), rng.standard_normal(m), rng.standard_normal(k)) for m, k in [(0, 3), (1, 1), (7, 8), (15, 16)]]
    weights, poles, _ = cases[-1]
    cases.append((weights, poles, np.concatenate([poles[:3], [0.5]])))  # points on a pole: inf or nan
    for weights, poles, points in cases:
        for power in (1, 2):
            with np.errstate(divide="ignore", invalid="ignore"):
                loop = np.array([np.sum(weights / (poles - x) ** power) for x in points])
            assert _pole_sums(weights, poles, points, power).tobytes() == loop.tobytes()


def test_classify_region():
    semicircle = (-2.0, 2.0)
    assert classify_region(0.0, semicircle, 0.1) == "bulk"
    assert classify_region(-1.9, semicircle, 0.1) == "bulk"
    assert classify_region(1.95, semicircle, 0.1) == "edge"
    assert classify_region(-2.05, semicircle, 0.1) == "edge"
    assert classify_region(2.2, semicircle, 0.1) == "outside"
    with pytest.raises(ContractError):
        classify_region(0.0, semicircle, 0.0)


def test_eigvec_records_basic():
    n = 64
    w = sample_wigner(DistSpec("gaussian"), n, 0)
    recs = eigvec_inf_norms(eig_decompose(w), 0)
    # exactly the deloc CSV columns, in CSV order
    assert list(recs) == ["n", "seed", "index", "lambda", "region", "inf_norm", "scaled_bulk", "scaled_edge"]
    assert all(column.shape == (n,) for column in recs.values())
    inf_norm = recs["inf_norm"]
    assert np.all((1.0 / math.sqrt(n) - 1e-12 <= inf_norm) & (inf_norm <= 1.0))
    assert recs["scaled_bulk"] == pytest.approx(math.sqrt(n) * inf_norm / math.sqrt(math.log(n)))
    assert recs["scaled_edge"] == pytest.approx(math.sqrt(n) * inf_norm / math.log(n))
    assert np.any(recs["region"] == "bulk")


def test_eigvec_records_at_n_one():
    # log 1 reads as 1, so no division by zero
    w = sample_wigner(DistSpec("gaussian"), 1, 3)
    recs = eigvec_inf_norms(eig_decompose(w), 3)
    assert recs["n"].tolist() == [1]
    for name in ("inf_norm", "scaled_bulk", "scaled_edge"):
        assert recs[name].tolist() == [1.0]


def _identities(w):
    return wigner_identities(w, eig_decompose(w))


def test_entry_identity_2x2_hand_case():
    # W = [[0, b], [b, 0]]: eigenvector (±1, 1)/sqrt 2, minor eig 0, overlap b^2
    b = 0.7
    w = np.array([[0.0, b], [b, 0.0]])
    lhs, rhs, _, _, gap = _identities(w)
    assert lhs[0] == pytest.approx(0.5, abs=1e-12)
    assert rhs[0] == pytest.approx(1.0 / (1.0 + b * b / b**2), abs=1e-12)  # = 1/2
    assert gap[0] == pytest.approx(b)


def test_entry_identity_random_matrices():
    for n, seed in [(6, 1), (15, 2), (30, 3)]:
        w = sample_wigner(DistSpec("gaussian"), n, seed)
        lhs, rhs, _, _, _ = _identities(w)
        for i in (0, n // 2, n - 1):
            assert lhs[i] == pytest.approx(rhs[i], rel=1e-8, abs=1e-12)


def test_entry_identity_collision_gap():
    # a minor eigenvalue equal to lambda_i: gap 0, and the check is to be skipped
    lhs, rhs, _, _, gap = _identities(np.diag([1.0, 1.0]))
    np.testing.assert_array_equal(gap, [0.0, 0.0])
    assert lhs.shape == rhs.shape == (2,)
    with pytest.raises(ContractError):
        wigner_identities(np.array([[0.0, 1.0], [0.0, 0.0]]), eig_decompose(np.eye(2)))
    with pytest.raises(ContractError):
        wigner_identities(np.eye(3), eig_decompose(np.eye(2)))


def test_interlacing_identity_random_matrices():
    for n, seed in [(8, 4), (20, 5)]:
        w = sample_wigner(DistSpec("rademacher"), n, seed)
        _, _, lhs, rhs, gap = _identities(w)
        for i in np.flatnonzero(gap > 1e-8):
            assert lhs[i] == pytest.approx(rhs[i], rel=1e-8, abs=1e-10)


def test_interlacing_identity_2x2_hand_case():
    b = 0.5
    w = np.array([[0.0, b], [b, 0.0]])
    # minor eig 0, overlap b^2; for lambda_0 = -b: b^2/(0-(-b)) = b; rhs = 0-(-b) = b
    _, _, lhs, rhs, _ = _identities(w)
    assert lhs[0] == pytest.approx(b, abs=1e-12)
    assert rhs[0] == pytest.approx(b, abs=1e-12)


def test_minor_eigenvalues_interlace():
    w = sample_wigner(DistSpec("gaussian"), 25, 6)
    vals = np.linalg.eigvalsh(w)
    mvals = np.linalg.eigvalsh(w[:-1, :-1])
    assert np.all(vals[:-1] <= mvals + 1e-12)
    assert np.all(mvals <= vals[1:] + 1e-12)


def test_bulk_deloc_moderate_n():
    n = 512
    w = sample_wigner(DistSpec("rademacher"), n, 7)
    recs = eigvec_inf_norms(eig_decompose(w), 7)
    bulk = recs["scaled_bulk"][recs["region"] == "bulk"]
    assert 0.5 <= max(bulk) <= 4.0


def test_scaling_fit_recovers_sqrt_log():
    # inf_norm = sqrt(log n / n) gives slope exactly 1/2
    recs = synthetic_records([256, 512, 1024, 4096], lambda n: math.sqrt(math.log(n) / n))
    fit = deloc_scaling_fit(recs)
    assert fit.slope == pytest.approx(0.5, abs=1e-10)
    assert set(fit.bulk_table) == {256, 512, 1024, 4096}
    assert all(v == pytest.approx(1.0) for v in fit.bulk_table.values())


def test_scaling_fit_recovers_log_linear():
    recs = synthetic_records([256, 512, 1024], lambda n: math.log(n) / math.sqrt(n))
    fit = deloc_scaling_fit(recs)
    assert fit.slope == pytest.approx(1.0, abs=1e-10)


def test_scaling_fit_needs_three_sizes():
    recs = synthetic_records([256, 512], lambda n: 1.0 / math.sqrt(n))
    with pytest.raises(ContractError):
        deloc_scaling_fit(recs)


def test_scaling_fit_ignores_edge_only_breaks():
    recs = synthetic_records([128, 256, 512], lambda n: math.sqrt(math.log(n) / n))
    # add an edge record; should populate edge_table without affecting the slope
    extra = {
        "n": np.array([128]), "region": np.array(["edge"]), "inf_norm": np.array([0.2]),
        "scaled_bulk": np.array([1.0]), "scaled_edge": np.array([0.2 * math.sqrt(128) / math.log(128)]),
    }
    fit = deloc_scaling_fit(concat_columns([recs, extra]))
    assert fit.slope == pytest.approx(0.5, abs=1e-10)
    assert 128 in fit.edge_table and 256 not in fit.edge_table
