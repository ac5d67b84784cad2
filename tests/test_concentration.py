import math
import warnings

import numpy as np
import pytest
from reference import (
    lemma_projection_envelope,
    one_call_draw,
    projection_deviation,
    quadratic_deviation,
    weighted_projection,
)

from rmtlab import concentration, seeds
from rmtlab.concentration import (
    ENVELOPE_INPUTS,
    ENVELOPE_KINDS,
    TAIL_BLOCK,
    EmpiricalTail,
    TailEnvelope,
    WeightedFrame,
    dyadic_weight_partition,
    empirical_tail,
    hermitize_split,
    optimal_K_subexp,
    psd_split,
)
from rmtlab.ensembles import KINDS, DistSpec, ParameterError, _draw, _rng, sample_vector
from rmtlab.seeds import derive_seed, map_trials
from rmtlab.spectral import ContractError


def _coord_frame(n, d, weights=None):
    if weights is None:
        weights = np.ones(d)
    return WeightedFrame(basis=np.eye(n)[:, :d], weights=np.asarray(weights, float))


def test_frame_validation():
    with pytest.raises(ContractError):
        WeightedFrame(basis=np.ones((3, 2)), weights=np.ones(2))  # not orthonormal
    with pytest.raises(ContractError):
        _coord_frame(3, 2, [0.5, 1.5])  # weight > 1
    with pytest.raises(ContractError):
        WeightedFrame(basis=np.eye(3), weights=np.ones(2))  # shape mismatch


def test_weighted_projection_coordinate_frame():
    frame = _coord_frame(4, 2, [1.0, 0.25])
    x = np.array([3.0, 4.0, 7.0, -1.0])
    # sqrt(1*9 + 0.25*16) = sqrt(13)
    assert weighted_projection(x, frame) == pytest.approx(math.sqrt(13.0))
    assert projection_deviation(x, frame) == pytest.approx(math.sqrt(13.0) - math.sqrt(1.25))


def test_weighted_projection_rotation_invariance():
    rng = np.random.default_rng(0)
    q, _ = np.linalg.qr(rng.standard_normal((6, 6)))
    frame = WeightedFrame(basis=q[:, :3], weights=np.array([1.0, 0.5, 0.2]))
    x = rng.standard_normal(6)
    direct = math.sqrt(sum(w * abs(q[:, j] @ x) ** 2 for j, w in zip(range(3), frame.weights)))
    assert weighted_projection(x, frame) == pytest.approx(direct)


def test_quadratic_deviation_hand_case():
    a = np.array([[2.0, 1.0], [1.0, -1.0]])
    x = np.array([1.0, 2.0])
    # x'Ax = 2 + 2*2*1 - 4 = 2; tr A = 1
    assert quadratic_deviation(x, a) == pytest.approx(1.0 + 0.0j)
    with pytest.raises(ContractError):
        quadratic_deviation(x, np.ones((3, 3)))


def test_quadratic_identity_vector_gives_zero_mean():
    # Rademacher x with A having zero diagonal: E x'Ax = 0 = tr A
    rng = np.random.default_rng(1)
    a = rng.standard_normal((5, 5))
    np.fill_diagonal(a, 0.0)
    a = (a + a.T) / 2
    vals = [
        quadratic_deviation(sample_vector(DistSpec("rademacher"), 5, s), a).real
        for s in range(2000)
    ]
    assert abs(np.mean(vals)) < 5 * np.std(vals) / math.sqrt(len(vals))


def test_hermitize_split_recombines():
    rng = np.random.default_rng(2)
    a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    h1, h2 = hermitize_split(a)
    np.testing.assert_allclose(h1, np.conj(h1).T, atol=1e-14)
    np.testing.assert_allclose(h2, np.conj(h2).T, atol=1e-14)
    np.testing.assert_allclose((h1 - 1j * h2) / 2.0, a, atol=1e-14)
    x = rng.standard_normal(4)
    total = quadratic_deviation(x, h1) - 1j * quadratic_deviation(x, h2)
    assert total / 2.0 == pytest.approx(quadratic_deviation(x, a), abs=1e-12)


def test_psd_split_properties():
    rng = np.random.default_rng(3)
    a = rng.standard_normal((6, 6))
    a = (a + a.T) / 2
    a1, a2 = psd_split(a)
    np.testing.assert_allclose(a1 - a2, a, atol=1e-12)
    assert np.linalg.eigvalsh(a1).min() >= -1e-12
    assert np.linalg.eigvalsh(a2).min() >= -1e-12
    assert np.linalg.norm(a1, 2) <= np.linalg.norm(a, 2) + 1e-12
    assert np.linalg.norm(a1) ** 2 + np.linalg.norm(a2) ** 2 <= np.linalg.norm(a) ** 2 + 1e-9


def test_dyadic_partition_covers_and_respects_bands():
    rng = np.random.default_rng(4)
    n = 50
    c = rng.uniform(0, 1, n)
    c[:3] = [0.0, 1.0, 0.25]  # boundary cases
    blocks = dyadic_weight_partition(c, n)
    all_idx = np.concatenate(blocks)
    assert sorted(all_idx) == list(range(n))
    k0 = int(10 * math.log(n))
    assert len(blocks) == k0 + 2
    for k, block in enumerate(blocks[:-1]):
        for j in block:
            assert 4.0 ** -(k + 1) <= c[j] <= 4.0**-k
    # exact power of 1/4 goes to the smaller k (c=0.25 in band k=0? no: band k=1 lo)
    assert 2 in blocks[0]  # 0.25 is the lower boundary of band k=0
    assert 0 in blocks[-1]  # zero weight lands in the leftover block


def test_dyadic_partition_rejects_bad_weights():
    with pytest.raises(ParameterError):
        dyadic_weight_partition(np.array([1.5]), 10)


def test_envelope_projection_formula():
    env = TailEnvelope(kind="projection", C=2.0, Cprime=0.5, K=3.0)
    assert env(6.0) == pytest.approx(2.0 * math.exp(-0.5 * 36.0 / 9.0))
    assert env(0.0) == pytest.approx(2.0)


def test_envelope_monotone_nonincreasing():
    envs = [
        TailEnvelope(kind="projection", K=2.0),
        TailEnvelope(kind="vw1", K=1.0, n=100, frobenius=3.0, spectral=1.0),
        TailEnvelope(kind="vw2", K=1.0, n=100, frobenius=3.0, spectral=1.0),
        TailEnvelope(kind="subexp", n=100, frobenius=3.0, spectral=1.0, alpha=1.0),
        TailEnvelope(kind="hw", frobenius=3.0, spectral_abs=1.0),
        TailEnvelope(kind="hkz", frobenius=3.0, spectral=1.0),
        TailEnvelope(kind="esy1", frobenius=3.0),
        TailEnvelope(kind="esy2", frobenius=3.0, alpha=1.0),
    ]
    ts = np.linspace(0.0, 20.0, 41)
    for env in envs:
        vals = [env(t) for t in ts]
        assert all(a >= b - 1e-14 for a, b in zip(vals, vals[1:])), env.kind
        # r(0) = 0, so t = 0 gives pre * C: log n for vw1 and vw2, 1 otherwise
        assert env(0.0) == (math.log(env.n) if env.kind in ("vw1", "vw2") else 1.0) * env.C, env.kind


def test_envelope_vw2_adds_union_term():
    e1 = TailEnvelope(kind="vw1", K=1.0, n=100, frobenius=3.0, spectral=1.0)
    e2 = TailEnvelope(kind="vw2", K=1.0, n=100, frobenius=3.0, spectral=1.0, n_eps1=1e-4)
    assert e2(5.0) == pytest.approx(e1(5.0) + 100 * 1e-4)


def test_envelope_branch_switch():
    # hkz: quadratic branch for small t, linear branch past t = F^2/S
    env = TailEnvelope(kind="hkz", frobenius=2.0, spectral=1.0)
    assert env(1.0) == pytest.approx(math.exp(-0.25))
    assert env(100.0) == pytest.approx(math.exp(-100.0))


def test_envelope_overflowing_rate_is_zero():
    # at alpha = 0.1 the subexp rate raises t / ||A||_F sqrt(log n) to the power 1 / 0.6, which overflows a
    # float at t = 1e300: the rate is +inf there, so the bound is 0.0, and a finite rate keeps its value
    env = TailEnvelope(kind="subexp", frobenius=1.0, spectral=1.0, n=3, alpha=0.1)
    assert env(1e300) == 0.0
    rate = min((2.0 / math.sqrt(math.log(3))) ** (1.0 / (0.1 + 0.5)), 2.0 ** (1.0 / (2.0 * 0.1 + 1.0)))
    assert env(2.0) == math.exp(-rate)


def test_envelope_requires_fields():
    # a missing input fails at construction, not at each call
    with pytest.raises(ParameterError):
        TailEnvelope(kind="hw", frobenius=1.0)
    with pytest.raises(ParameterError):
        TailEnvelope(kind="nope")
    with pytest.raises(ParameterError):
        TailEnvelope(kind="hw", frobenius=1.0, spectral_abs=1.0)(-1.0)


@pytest.mark.parametrize("kind", sorted(ENVELOPE_KINDS))
def test_envelope_rejects_inputs_its_formula_cannot_take(kind):
    # at construction, not as a ZeroDivisionError or math domain error when the bound is called
    inputs = {name: 100 if name == "n" else 1.0 for name in ENVELOPE_INPUTS[kind]}
    assert TailEnvelope(kind=kind, **inputs)(1.0) > 0.0
    for name in inputs:
        bad = {"n": [0, 1], "n_eps1": [-1.0, math.nan, math.inf, 1.5]}.get(name, [0.0, -1.0, math.nan, math.inf])
        for value in bad:
            with pytest.raises(ParameterError, match="n >= 2" if name == "n" else rf"{name} = {value}"):
                TailEnvelope(kind=kind, **{**inputs, name: value})
    with pytest.raises(ParameterError, match="constants"):
        TailEnvelope(kind=kind, C=math.nan, **inputs)


def test_lemma_projection_envelope_constants():
    env = lemma_projection_envelope(K=2.0)
    assert env(0.0) == pytest.approx(10.0)
    assert env(4.0) == pytest.approx(10.0 * math.exp(-16.0 / (20.0 * 4.0)))


def test_optimal_K_balances_exponents():
    # at K = K*, K^-2 * min(t^2/(F^2 log n), t/S) equals K^(1/alpha)
    for alpha, t, F, S, n in [(1.0, 30.0, 2.0, 1.0, 500), (0.5, 12.0, 1.5, 2.0, 100)]:
        K = optimal_K_subexp(t, F, S, alpha, n)
        lhs = min(t * t / (F * F * math.log(n)), t / S) / (K * K)
        assert lhs == pytest.approx(K ** (1.0 / alpha), rel=1e-10)
    with pytest.raises(ParameterError):
        optimal_K_subexp(-1.0, 1.0, 1.0, 1.0, 10)


def test_empirical_tail_deterministic_and_monotone():
    a = np.diag(np.linspace(-1, 1, 8))
    t_grid = np.linspace(0.0, 6.0, 13)
    r1 = empirical_tail(a, DistSpec("gaussian"), t_grid, 200, 9)
    r2 = empirical_tail(a, DistSpec("gaussian"), t_grid, 200, 9)
    np.testing.assert_array_equal(r1.survival, r2.survival)
    assert r1.survival[0] == 1.0
    assert np.all(np.diff(r1.survival) <= 0)
    assert isinstance(r1, EmpiricalTail)


def test_empirical_tail_worker_invariance():
    a = np.diag(np.linspace(-1, 1, 8))
    t_grid = np.linspace(0.0, 6.0, 13)
    serial = empirical_tail(a, DistSpec("rademacher"), t_grid, 120, 5)
    parallel = empirical_tail(a, DistSpec("rademacher"), t_grid, 120, 5, workers=3)
    np.testing.assert_array_equal(serial.survival, parallel.survival)


def _complex_frame(n, d, seed):
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((n, d)) + 1j * rng.standard_normal((n, d)))
    return WeightedFrame(basis=q, weights=rng.uniform(0.0, 1.0, d))


def _real_frame(n, d, seed):
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((n, d)))
    return WeightedFrame(basis=q, weights=rng.uniform(0.0, 1.0, d))


def _symmetric_matrix(n, seed):
    g = np.random.default_rng(seed).standard_normal((n, n))
    return (g + g.T) / 2


_BLOCK_CASES = [
    ("quadratic", "rademacher"),
    ("quadratic", "gaussian"),
    ("projection", "rademacher"),
    ("projection", "gaussian"),
    ("nonsymmetric", "gaussian"),
    ("complex", "rademacher"),
]


def _tail_target(statistic):
    # at n = 199 a row of the quadratic form's X T moves in the last bits with the height of its block,
    # so a short last block multiplied at its cut height (44 or 88 rows) shows under the SkylakeX, Haswell
    # and Nehalem OpenBLAS kernels; Prescott's rows move only at heights that are not multiples of 4
    n = 199
    rng = np.random.default_rng(4)
    if statistic == "quadratic":
        return n, _symmetric_matrix(n, 4)
    if statistic == "nonsymmetric":  # only its symmetric part reaches X^T A X
        return n, rng.standard_normal((n, n))
    if statistic == "complex":  # Re A and Im A each take their own triangle
        return n, rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    if statistic == "real_projection":  # X U by a real product, where the complex frame's takes a complex one
        return n, _real_frame(n, 24, 4)
    return n, _complex_frame(n, 24, 4)


def _tail_values(monkeypatch, statistic, kind, trials, workers=1):
    """The |statistic| values that empirical_tail reduces: its blocks from map_trials, cut to ``trials``."""
    _, target = _tail_target(statistic)
    blocks = []

    def spy(trial, count, base_seed, w):
        blocks.extend(map_trials(trial, count, base_seed, w))
        return blocks

    monkeypatch.setattr(concentration, "map_trials", spy)
    empirical_tail(target, DistSpec(kind), np.array([0.0]), trials, 17, workers=workers)
    return np.concatenate(blocks)[:trials]


@pytest.mark.parametrize(("statistic", "kind"), _BLOCK_CASES)
def test_tail_values_do_not_depend_on_worker_count(monkeypatch, statistic, kind):
    # 1,000 draws: three full blocks and a short one; 2 and 3 workers run them on different threads
    runs = [_tail_values(monkeypatch, statistic, kind, 1000, workers) for workers in (1, 2, 3)]
    assert runs[0].shape == (1000,)
    for values in runs[1:]:
        assert values.tobytes() == runs[0].tobytes()


@pytest.mark.parametrize("workers", [1, 3])
def test_one_blas_pin_wraps_the_whole_tail_fan_out(monkeypatch, workers):
    # the thread count is one setting per process: a pin entered per job would let one
    # worker's restore un-pin the products of another still running
    count, events = [4], []

    def set_threads(k):
        count[0] = k
        events.append(("set", k))

    def draw(*args):
        events.append(("block", count[0]))
        return _draw(*args)

    threads = {"scipy_openblas_get_num_threads64_": lambda: count[0], "scipy_openblas_set_num_threads64_": set_threads}
    lookup = seeds._openblas_function
    monkeypatch.setattr(seeds, "_openblas_function", lambda name, *signature: threads.get(name) or lookup(name, *signature))
    monkeypatch.setattr(concentration, "_draw", draw)
    a = np.diag(np.linspace(-1.0, 1.0, 8))
    empirical_tail(a, DistSpec("rademacher"), np.array([0.0]), 1000, 3, workers=workers)
    # 1,000 draws are four blocks of TAIL_BLOCK
    assert events == [("set", 1)] + [("block", 1)] * 4 + [("set", 4)]


@pytest.mark.parametrize(("statistic", "kind"), _BLOCK_CASES)
def test_block_values_match_per_draw_formulas(statistic, kind):
    n, target = _tail_target(statistic)
    dist = DistSpec(kind)
    prepared = target if statistic == "projection" else concentration._half_triangles(target)
    blocks = [concentration._statistic_values(prepared, dist, n, derive_seed(17, b)) for b in range(3)]
    assert all(block.shape == (TAIL_BLOCK,) for block in blocks)
    values = np.concatenate(blocks)[:600]
    # block b is one TAIL_BLOCK x n draw from stream derive_seed(17, b); 600 draws end inside block 2
    xs = np.concatenate([one_call_draw(dist, (TAIL_BLOCK, n), _rng(derive_seed(17, b))) for b in range(3)])[:600]
    if statistic == "projection":
        reference = [abs(projection_deviation(x, target)) for x in xs]
        scale = 1.0
    else:
        reference = [abs(quadratic_deviation(x, target)) for x in xs]
        scale = np.linalg.norm(target)  # the statistic's standard deviation over sqrt(2), or above it
    # relative to the value, or to the statistic's scale for the few draws near 0
    np.testing.assert_allclose(values, reference, rtol=1e-11, atol=1e-11 * scale)


@pytest.mark.parametrize("statistic", ["quadratic", "projection", "real_projection"])
@pytest.mark.parametrize("kind", KINDS)
def test_values_do_not_depend_on_draw_count(monkeypatch, statistic, kind):
    # 300 draws end 44 rows into block 1, 600 draws 88 rows into block 2: a draw's value is the same in both;
    # 301 and 601 draws end 45 and 89 rows in, heights that are not multiples of 4
    for short, long in ((300, 600), (301, 601)):
        runs = [_tail_values(monkeypatch, statistic, kind, trials) for trials in (short, long)]
        assert runs[0].tobytes() == runs[1][:short].tobytes()


def test_tail_without_dtrmm_warns_once_and_stays_worker_invariant(monkeypatch, openblas_lacking):
    expected = _tail_values(monkeypatch, "quadratic", "gaussian", 1000)
    openblas_lacking("scipy_cblas_dtrmm64_")  # the thread pin still binds from the same library
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        runs = [_tail_values(monkeypatch, "quadratic", "gaussian", 1000, workers) for workers in (1, 2, 3)]
    assert [w.category for w in caught] == [RuntimeWarning]
    assert "dtrmm was not found" in str(caught[0].message)
    for values in runs[1:]:
        assert values.tobytes() == runs[0].tobytes()
    # numpy's full product X @ T: the same formula, rounded by another kernel
    np.testing.assert_allclose(runs[0], expected, rtol=1e-11, atol=1e-11 * np.linalg.norm(_tail_target("quadratic")[1]))


def test_empirical_tail_validation():
    a = np.eye(3)
    with pytest.raises(ParameterError):
        empirical_tail(a, DistSpec("gaussian"), np.array([0.0]), 50, 0)
    with pytest.raises(ParameterError):
        empirical_tail(a, DistSpec("gaussian"), np.array([]), 200, 0)
    # a NaN in t_grid fails wherever it stands, as at config load
    for t_grid in ([0.0, math.nan], [math.nan, 0.0], [math.nan]):
        with pytest.raises(ParameterError, match="NaN"):
            empirical_tail(np.eye(4), DistSpec("rademacher"), t_grid, 100, 0)
    # a matrix that is not square fails before any block is drawn, as quadratic_deviation does
    for bad in (np.ones((3, 4)), np.ones(3), np.ones((2, 3, 3))):
        with pytest.raises(ContractError, match="square matrix"):
            empirical_tail(bad, DistSpec("gaussian"), np.array([0.0]), 200, 0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_tail_target_is_named_before_any_product(bad):
    # unchecked, a NaN would pass the orthonormality and weight tests and read as survival 1.0 at every t
    basis = np.eye(4)[:, :2]
    broken = basis.copy()
    broken[1, 0] = bad
    with pytest.raises(ContractError, match=rf"^basis has non-finite entries: {bad} at \(1, 0\)$"):
        WeightedFrame(basis=broken, weights=np.ones(2))
    with pytest.raises(ContractError, match=rf"^weights has non-finite entries: {bad} at \(1,\)$"):
        WeightedFrame(basis=basis, weights=np.array([1.0, bad]))
    a = np.eye(5)
    a[2, 3] = bad
    for target in (a, a + 0j):
        with pytest.raises(ContractError, match=r"^matrix has non-finite entries: .* at \(2, 3\)$"):
            empirical_tail(target, DistSpec("gaussian"), np.array([0.0, 1.0]), 100, 0)


def test_projection_tail_respects_lemma_envelope():
    # Rademacher entries are 1-bounded; the explicit-constant bound must hold
    n, d = 64, 16
    frame = _coord_frame(n, d)
    t_grid = np.array([0.5, 1.0, 2.0, 3.0, 4.0])
    tail = empirical_tail(frame, DistSpec("rademacher"), t_grid, 2000, 21)
    env = lemma_projection_envelope(K=1.0)
    for t, s in zip(t_grid, tail.survival):
        assert s <= min(1.0, env(float(t))) + 1e-12


@pytest.mark.parametrize(("n", "d"), [(64, 16), (400, 64), (10, 10)])
def test_rademacher_coordinate_projection_is_degenerate(n, d):
    # for x in {-1, 1}^n and a coordinate frame, f(X)^2 = sum c_j x_j^2 = sum c_j exactly,
    # so the projection tail of test_projection_tail_respects_lemma_envelope is trivially met
    for weights in (np.ones(d), 4.0 ** -np.arange(d)):
        frame = _coord_frame(n, d, weights)
        for seed in range(50):
            assert projection_deviation(sample_vector(DistSpec("rademacher"), n, seed), frame) == 0.0
        tail = empirical_tail(frame, DistSpec("rademacher"), np.array([0.0, 1e-12, 0.5]), 500, 3)
        assert tail.survival.tolist() == [1.0, 0.0, 0.0]


def test_empirical_tail_counts_a_draw_equal_to_t_at_an_interior_atom():
    # for x in {-1, 1}^4 and A = J - I, X*AX - tr A = (sum x)^2 - 4 takes only |.| in {0, 4, 12},
    # so a draw that counts as at or above t = 4 and t = 12 puts their survival with that of 0.5 and 4.5
    a = np.ones((4, 4)) - np.eye(4)
    tail = empirical_tail(a, DistSpec("rademacher"), np.array([0.5, 4.0, 4.5, 12.0, 12.5]), 1000, 2)
    s_half, s4, s4_half, s12, s12_half = tail.survival.tolist()
    assert s4 == s_half > s4_half == s12 > s12_half == 0.0


def test_gaussian_quadratic_variance_oracle():
    # Var(X'AX - trA) = 2||A||_F^2 for gaussian X and symmetric A
    rng = np.random.default_rng(7)
    a = rng.standard_normal((10, 10))
    a = (a + a.T) / 2
    vals = [
        quadratic_deviation(sample_vector(DistSpec("gaussian"), 10, s), a).real
        for s in range(4000)
    ]
    target = 2.0 * np.linalg.norm(a) ** 2
    assert np.var(vals) == pytest.approx(target, rel=0.15)
    assert abs(np.mean(vals)) < 5 * math.sqrt(target / len(vals))
