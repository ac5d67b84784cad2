import csv
import functools
import io
import json
import math

import numpy as np
import pytest

from rmtlab import concentration, harness
from rmtlab.cli import main as cli_main
from rmtlab.covariance import gram_triplets, mp_self_consistency_residual
from rmtlab.ensembles import UNIFORM_BOUND, DistSpec, sample_rect, sample_wigner
from rmtlab.concentration import ENVELOPE_KINDS, TailEnvelope
from rmtlab.harness import (
    EXPERIMENTS,
    ConfigError,
    ExperimentConfig,
    _records_text,
    config_from_dict,
    read_config,
    run_experiment,
)
from rmtlab.locallaw import law_deviation
from rmtlab.seeds import derive_seed
from rmtlab.spectral import _eigh_owned, mp_edges, mp_interval_mass


def _cfg(**kw):
    return config_from_dict(kw)


def _no_constant(name):
    """``parse_constant`` of a strict JSON read: NaN, Infinity and -Infinity are not JSON (RFC 8259)."""
    raise ValueError(f"{name} is not JSON")


def _rows(records: dict) -> int:
    (length,) = {column.shape for column in records.values()}
    return length[0]


def _same_records(a: dict, b: dict) -> bool:
    return list(a) == list(b) and all(np.array_equal(a[name], b[name]) for name in a)


def test_config_defaults():
    cfg = _cfg(experiment="localscan")
    assert cfg.trials == 5
    assert cfg.dist == DistSpec("rademacher")
    assert cfg.n == 1000
    assert _cfg(experiment="identities").trials == 200
    # the tail default meets its minimum, so every default config runs
    assert _cfg(experiment="tail").trials == 2000
    with pytest.raises(ConfigError, match="at least 100 trials, not 5"):
        _cfg(experiment="tail", trials=5)


# a valid value other than the default for every field an experiment can read
CHANGED = dict(
    dist={"kind": "subexp", "alpha": 0.5},
    n=500,
    p=100,
    n_grid=[64, 96],
    trials=300,
    base_seed=99,
    workers=2,
    delta=0.3,
    eps=0.05,
    eta_multiple=5.0,
    scales=[1.0, 5.0],
    t_grid=[0.0, 1.0, 2.0],
    envelopes=["projection"],
    statistic="projection",
    d=8,
)


def test_config_round_trip():
    for experiment, (_, reads) in EXPERIMENTS.items():
        for cfg in (_cfg(experiment=experiment), _cfg(experiment=experiment, **{k: CHANGED[k] for k in reads})):
            written = json.loads(json.dumps(cfg.to_dict()))  # as config.json holds it
            assert sorted(written) == sorted(["experiment", *reads])
            again = config_from_dict(written)
            assert again == cfg
            assert again.config_hash() == cfg.config_hash()


def test_config_hash_sensitivity():
    for experiment, (_, reads) in EXPERIMENTS.items():
        base = _cfg(experiment=experiment).config_hash()
        # where the outputs go and how many processes make them move no number
        for where in (dict(out_dir="elsewhere", label="named"), dict(workers=3) if "workers" in reads else {}):
            assert _cfg(experiment=experiment, **where).config_hash() == base
        for name in reads:
            if name != "workers":
                fix = dict(experiment=experiment)
                if name == "envelopes":
                    fix["statistic"] = "projection"  # the changed envelope bounds the projection statistic only
                assert _cfg(**fix, **{name: CHANGED[name]}).config_hash() != _cfg(**fix).config_hash(), name


def test_config_hash_ignores_number_spelling():
    # real-valued fields are stored as floats, so 1 and 1.0 make one config, one hash and one config.json
    cases = [
        ("localscan", "delta", 1, 1.0),
        ("localscan", "scales", [1, 2], [1.0, 2.0]),
        ("deloc", "eps", 1, 1.0),
        ("covariance", "eta_multiple", 10, 10.0),
        ("tail", "t_grid", [0, 1, 4], [0.0, 1.0, 4.0]),
        *[("tail", "dist", {"kind": "subexp", "alpha": a}, {"kind": "subexp", "alpha": float(a)}) for a in (1, 2, 3)],
    ]
    for experiment, name, as_int, as_float in cases:
        a = _cfg(experiment=experiment, **{name: as_int})
        b = _cfg(experiment=experiment, **{name: as_float})
        assert a == b
        assert a.config_hash() == b.config_hash()
        assert json.dumps(a.to_dict()) == json.dumps(b.to_dict())


def test_experiment_table_matches_runner_reads(monkeypatch):
    # every config field a runner reads is in its EXPERIMENTS row, and every field in the row is read
    envelopes = [kind for kind in ENVELOPE_KINDS if kind != "projection"]
    configs = [
        _cfg(experiment="tail", n=12, trials=100, envelopes=envelopes, t_grid=[0.0, 5.0]),
        _cfg(experiment="tail", n=12, d=4, trials=100, statistic="projection", envelopes=["projection"]),
        _cfg(experiment="localscan", n=40, trials=1),
        _cfg(experiment="deloc", n=16, trials=1),
        _cfg(experiment="deloc", n_grid=[8, 12], trials=1),
        _cfg(experiment="identities", trials=2),
        _cfg(experiment="covariance", n=40, p=20, trials=1),
        _cfg(experiment="pv"),
    ]
    fields = set(ExperimentConfig.__dataclass_fields__) - {"experiment", "out_dir", "label"}
    reads = {name: set() for name in EXPERIMENTS}
    original = ExperimentConfig.__getattribute__

    def recording(self, name):
        if name in fields:
            reads[original(self, "experiment")].add(name)
        return original(self, name)

    monkeypatch.setattr(ExperimentConfig, "__getattribute__", recording)
    for cfg in configs:
        run_experiment(cfg, write=False)
    monkeypatch.undo()
    assert reads == {name: set(row) for name, (_, row) in EXPERIMENTS.items()}


_WRONG_TYPE_CONFIGS = [
    {"experiment": "tail", "dist": "gaussian"},
    {"experiment": "deloc", "dist": ["gaussian"]},
    {"experiment": "identities", "dist": 3},
    {"experiment": "localscan", "dist": None},
    {"experiment": "deloc", "n_grid": 5},
    {"experiment": "tail", "envelopes": "vw1"},
    {"experiment": "tail", "envelopes": None},
    # a JSON null where the default is not null: only p and trials default to None
    {"experiment": "tail", "n": None},
    {"experiment": "localscan", "workers": None},
    {"experiment": "tail", "d": None},
    {"experiment": "identities", "base_seed": None},
    {"experiment": "deloc", "n_grid": [64, None]},
]

# configs with a field of the right type but a value that cannot run: an empty n_grid, and a smallest
# scale whose window grid over the bulk exceeds 100 n windows (here it would ask for petabytes)
_UNFIT_VALUE_CONFIGS = [
    {"experiment": "deloc", "n_grid": []},
    {"experiment": "localscan", "n": 100, "trials": 1, "scales": [1e-12]},
    {"experiment": "covariance", "n": 100, "trials": 1, "scales": [1e-300, 1.0]},
]


def _wrong_field(raw: dict) -> str:
    """The field that a _WRONG_TYPE_CONFIGS or _UNFIT_VALUE_CONFIGS entry gets wrong: its last."""
    return list(raw)[-1]


def test_config_validation_errors():
    cases = [
        {"experiment": "nope"},
        {"experiment": "tail", "n": 0},
        {"experiment": "tail", "trials": -1},
        {"experiment": "localscan", "delta": 0.0},
        {"experiment": "localscan", "scales": [2.0, 1.0]},
        {"experiment": "localscan", "scales": [1.0, 1.0]},
        {"experiment": "tail", "statistic": "cubic"},
        {"experiment": "tail", "envelopes": ["hw", "esy1", "hw"]},
        {"experiment": "tail", "matrix": "hilbert"},
        {"experiment": "tail", "trials": 100, "statistic": "projection", "envelopes": ["hkz", "vw1"]},
        {"experiment": "tail", "trials": 100, "statistic": "quadratic", "envelopes": ["hw", "projection"]},
        {"experiment": "tail", "base_seed": -1},
        {"experiment": "covariance", "p": 0},
        {"experiment": "covariance", "n": 1},
        {"experiment": "localscan", "n": 1},
        {"experiment": "deloc", "n_grid": [64, 1]},
        {"experiment": "tail", "dist": {"kind": "zeta"}},
        {"experiment": "tail", "bogus_key": 1},
        {"n": 100},  # missing experiment
        {"experiment": "tail", "n": "abc"},
        {"experiment": "tail", "n": 2.5},
        {"experiment": "tail", "n": True},
        {"experiment": "covariance", "p": 2.0},
        {"experiment": "tail", "trials": 10.0},
        {"experiment": "tail", "workers": "2"},
        {"experiment": "tail", "d": 3.5},
        {"experiment": "tail", "base_seed": 1.5},
        {"experiment": "tail", "base_seed": 2**64},  # derive_seed would reuse base seed 0's streams
        {"experiment": "deloc", "n_grid": [64, 96.0]},
        {"experiment": "deloc", "n_grid": 64},
        {"experiment": "tail", "envelopes": ["bogus"]},
        {"experiment": "tail", "envelopes": ["hw", "Hw"]},
        {"experiment": "tail", "t_grid": ["x"]},
        {"experiment": "tail", "t_grid": [float("nan"), 1.0]},
        {"experiment": "tail", "t_grid": [0.0, float("inf")]},
        {"experiment": "tail", "t_grid": [-1.0, 1.0], "envelopes": ["hkz"]},
        {"experiment": "tail", "t_grid": [2.0, 1.0]},
        {"experiment": "tail", "t_grid": []},
        {"experiment": "tail", "t_grid": 1.0},
        {"experiment": "tail", "t_grid": [True, 2.0]},
        {"experiment": "tail", "trials": 99},
        {"experiment": "tail", "trials": 5},
        # a field the experiment does not read is not accepted, even at its default value
        {"experiment": "identities", "n": 1000},
        {"experiment": "pv", "trials": 5},
        {"experiment": "localscan", "eps": 0.1},
        {"experiment": "tail", "p": 10},
        {"experiment": ["tail"]},
        {"experiment": "localscan", "scales": [1.0, float("nan")]},
        {"experiment": "localscan", "scales": [1.0, float("inf")]},
        {"experiment": "localscan", "scales": [float("-inf"), 1.0]},
        {"experiment": "localscan", "scales": [True, 2.0]},
        {"experiment": "localscan", "scales": []},
        {"experiment": "localscan", "scales": 1.0},
        {"experiment": "localscan", "delta": float("nan")},
        {"experiment": "localscan", "delta": float("inf")},
        {"experiment": "localscan", "delta": True},
        {"experiment": "deloc", "eps": float("nan")},
        {"experiment": "deloc", "eps": float("-inf")},
        {"experiment": "covariance", "eps": float("inf")},
        {"experiment": "covariance", "eta_multiple": float("nan")},
        {"experiment": "covariance", "eta_multiple": float("inf")},
        {"experiment": "covariance", "eta_multiple": "10"},
        # a label names one directory beside the experiment's other runs and the writer's .tmp siblings
        {"experiment": "pv", "label": "."},
        {"experiment": "pv", "label": ".."},
        {"experiment": "pv", "label": "a/b"},
        {"experiment": "pv", "label": "a\\b"},
        {"experiment": "pv", "label": ".hidden"},
        {"experiment": "pv", "label": ""},
        {"experiment": "pv", "label": 5},
        # out_dir is a string, and out_dir and label encode as file names: a lone surrogate does not
        {"experiment": "pv", "out_dir": 5},
        {"experiment": "pv", "label": "\ud800"},
        {"experiment": "pv", "out_dir": "o\ud800"},
        # a subexp alpha is a finite number > 0 whose scale sqrt(Gamma(1 + 2 alpha)) is finite
        {"experiment": "tail", "trials": 200, "dist": {"kind": "subexp", "alpha": float("nan")}},
        {"experiment": "tail", "trials": 200, "dist": {"kind": "subexp", "alpha": float("inf")}},
        {"experiment": "tail", "trials": 200, "dist": {"kind": "subexp", "alpha": float("-inf")}},
        {"experiment": "tail", "trials": 200, "dist": {"kind": "subexp", "alpha": 1e6}},
        {"experiment": "tail", "trials": 200, "dist": {"kind": "subexp", "alpha": 86}},
        {"experiment": "tail", "trials": 200, "dist": {"kind": "subexp", "alpha": 0.0}},
        {"experiment": "tail", "trials": 200, "dist": {"kind": "subexp", "alpha": True}},
        {"experiment": "tail", "trials": 200, "dist": {"kind": "subexp", "alpha": "0.5"}},
        # only subexp reads an alpha
        {"experiment": "tail", "dist": {"kind": "gaussian", "alpha": 7}},
        {"experiment": "localscan", "dist": {"kind": "rademacher", "alpha": 1.0}},
        # an envelope that reads n takes its log, so needs n >= 2; the projection frame needs d <= n
        {"experiment": "tail", "n": 1, "trials": 200, "envelopes": ["vw1"]},
        {"experiment": "tail", "n": 1, "trials": 200, "envelopes": ["hw", "vw2"]},
        {"experiment": "tail", "n": 1, "trials": 200, "envelopes": ["subexp"]},
        {"experiment": "tail", "n": 10, "statistic": "projection"},
        {"experiment": "tail", "n": 10, "d": 11, "statistic": "projection", "envelopes": ["projection"]},
    ]
    for raw in cases:
        with pytest.raises(ConfigError):
            config_from_dict(raw)
    # a field of the wrong JSON type, or of a value that cannot run, fails with a message that names it;
    # at n = 100 the window cap is a multiple of about 0.0313 in localscan and 0.0422 in covariance (p = 50)
    fine_scales = [
        {"experiment": "localscan", "n": 100, "scales": [0.030, 1.0]},
        {"experiment": "localscan", "n": 1000, "scales": [1e-6]},
        {"experiment": "covariance", "n": 100, "scales": [0.020]},
    ]
    for raw in _WRONG_TYPE_CONFIGS + _UNFIT_VALUE_CONFIGS + fine_scales:
        with pytest.raises(ConfigError, match=f"^field '{_wrong_field(raw)}'"):
            config_from_dict(raw)
    assert config_from_dict({"experiment": "pv", "label": "run.1"}).label == "run.1"
    assert config_from_dict({"experiment": "tail", "trials": 200, "dist": {"kind": "subexp", "alpha": 85}}).dist.alpha == 85
    with pytest.raises(ConfigError):
        config_from_dict([1, 2, 3])
    assert config_from_dict({"experiment": "tail", "trials": 100, "base_seed": 2**64 - 1}).base_seed == 2**64 - 1
    assert config_from_dict({"experiment": "tail", "n": 1, "envelopes": ["hw", "hkz", "esy1", "esy2"]}).n == 1
    assert config_from_dict({"experiment": "tail", "n": 10, "d": 10, "statistic": "projection"}).d == 10


def test_load_config_parse_error(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError, match="line"):
        config_from_dict(read_config(str(path)))


def test_load_config_good(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"experiment": "pv"}))
    assert config_from_dict(read_config(str(path))).experiment == "pv"


def test_run_pv_experiment():
    report = run_experiment(_cfg(experiment="pv"), write=False)
    assert report.summary["ok"]
    assert report.summary["max_abs_err"] <= 0.05
    assert _rows(report.records) == 9


def test_run_identities_experiment_small():
    report = run_experiment(_cfg(experiment="identities", trials=12), write=False)
    assert report.summary["ok"]
    assert report.summary["max_rel_err"] < 1e-8
    assert report.summary["checks"] > 100
    # per instance: 2 checks per eigenvalue, 4 per singular value, 3 unguarded sums
    sizes = [(3 + k % 14, 2 + k % 9) for k in range(12)]
    total = sum(2 * n + 4 * p + 3 for n, p in sizes)
    assert report.summary["checks"] + report.summary["skipped"] == total


def test_projection_tail_frame_is_n_by_d(peak_bytes):
    # the frame is the first d columns of the n x n identity; the run holds far less than that identity's 8 n^2 bytes
    n = 2000
    cfg = _cfg(experiment="tail", statistic="projection", n=n, d=8, trials=100)
    report, peak = peak_bytes(functools.partial(run_experiment, write=False), cfg)
    assert report.summary["statistic"] == "projection"
    assert peak < 8 * n * n


def test_run_tail_experiment_outputs(tmp_path):
    cfg = _cfg(
        experiment="tail",
        n=16,
        d=4,
        trials=150,
        statistic="projection",
        envelopes=["projection"],
        t_grid=[0.0, 1.0, 2.0, 4.0],
        out_dir=str(tmp_path),
        label="demo",
    )
    report = run_experiment(cfg)
    out = tmp_path / "tail" / "demo"
    assert report.out_path == out
    assert (out / "records.csv").exists()
    assert (out / "summary.json").exists()
    assert (out / "config.json").exists()
    assert sorted(f.name for f in out.iterdir()) == ["config.json", "records.csv", "summary.json"]
    summary = json.loads((out / "summary.json").read_text())
    assert "version" in summary and "wall_time_s" in summary
    header = (out / "records.csv").read_text().splitlines()[0]
    assert header == "t,survival,stderr,trials,envelope_projection"


def test_failed_write_keeps_previous_outputs(tmp_path, monkeypatch):
    cfg = _cfg(experiment="pv", out_dir=str(tmp_path), label="keep")
    out = run_experiment(cfg).out_path
    before = {f.name: f.read_bytes() for f in out.iterdir()}

    def broken_dumps(*args, **kwargs):
        raise OSError("disk full")

    # config.json is written after records.csv, so the temp directory holds a partial run when this fires
    monkeypatch.setattr(json, "dumps", broken_dumps)
    with pytest.raises(OSError, match="disk full"):
        run_experiment(cfg)
    assert {f.name: f.read_bytes() for f in out.iterdir()} == before
    assert [d.name for d in out.parent.iterdir()] == ["keep"]
    monkeypatch.undo()
    # a successful rerun replaces the whole directory and leaves nothing beside it
    (out / "stale.txt").write_text("from an older run\n")
    assert run_experiment(cfg).out_path == out
    assert sorted(f.name for f in out.iterdir()) == sorted(before)
    assert [d.name for d in out.parent.iterdir()] == ["keep"]


def _csv_writer_text(records: dict) -> str:
    """The writer's former path, kept as its oracle: repr of each float, str of every other cell."""
    fh = io.StringIO(newline="")
    writer = csv.writer(fh, dialect="excel")
    writer.writerow(records)
    writer.writerows(zip(*(map(repr if c.dtype.kind == "f" else str, c.tolist()) for c in records.values())))
    return fh.getvalue()


def test_records_text_matches_csv_writer():
    floats = np.array([-0.0, 0.0, np.nan, np.inf, -np.inf, 5e-324, 0.1, -0.0, 1e300])
    records = {
        "x": floats,
        "big": np.array([2**63, 2**64 - 1, 2**63, 0, 1, 7, 2**63 + 5, 3, 3], dtype=np.uint64),
        "neg": np.array([-1, -(2**63), 5, 0, -1, 12, -7, 2**62, -3], dtype=np.int64),
        "text": np.array(["a,b", 'say "hi"', "two\r\nlines", "", "plain", "a,b", "\n", "\r", '"'], dtype=object),
        "region": np.array(["bulk", "edge", "", "bulk", "x,y", "bulk", "edge", '"q"', "bulk"]),
        'odd, "name"': np.array([True, False, True, True, False, False, True, False, True]),
    }
    text = _records_text(records)
    assert text == _csv_writer_text(records)
    lines = text.split("\r\n")
    assert lines[1].startswith("-0.0,") and lines[2].startswith("0.0,")  # -0.0 keeps its sign beside 0.0
    empty = {name: column[:0] for name, column in records.items()}
    assert _records_text(empty) == _csv_writer_text(empty)
    # one column: a lone empty field is quoted so that it does not read as a blank line
    lone = {"only": np.array(["", "a", ""], dtype=object)}
    assert _records_text(lone) == _csv_writer_text(lone)
    lone_str = {"only": lone["only"].astype(str)}  # the same cells as a str column, through the one text path
    assert lone_str["only"].dtype.kind == "U"
    assert _records_text(lone_str) == _csv_writer_text(lone_str)


def test_run_deloc_experiment():
    report = run_experiment(
        _cfg(experiment="deloc", n_grid=[64, 96], trials=2), write=False
    )
    assert report.summary["ok"]
    assert _rows(report.records) == 2 * (64 + 96)


@pytest.mark.parametrize("base_seed", [0, 2])
def test_deloc_without_bulk_eigenvalues_writes_null(tmp_path, base_seed):
    # eps = 1.5 leaves the bulk [-0.5, 0.5], which both eigenvalues of these 2 x 2 draws miss: no maximum, not NaN
    cfg = _cfg(experiment="deloc", n=2, trials=1, eps=1.5, base_seed=base_seed, out_dir=str(tmp_path))
    report = run_experiment(cfg)
    assert not np.any(report.records["region"] == "bulk")
    summary = json.loads((report.out_path / "summary.json").read_text(), parse_constant=_no_constant)
    assert summary["max_scaled_bulk"] is None and summary["ok"] is False


def test_deloc_trial_makes_no_hermitian_check(monkeypatch):
    # sample_wigner mirrors its upper triangle bit for bit, and the in-place dsyevd reads one triangle
    from rmtlab import delocalization, spectral

    calls = []
    original = spectral.check_hermitian
    for module in (spectral, delocalization):
        monkeypatch.setattr(module, "check_hermitian", lambda w: calls.append(np.shape(w)) or original(w))
    report = run_experiment(_cfg(experiment="deloc", n_grid=[16, 64], trials=2), write=False)
    assert not hasattr(harness, "check_hermitian")
    assert calls == [] and report.summary["ok"]


def test_run_localscan_experiment():
    report = run_experiment(
        _cfg(experiment="localscan", n=300, trials=2, scales=[10.0, 50.0]), write=False
    )
    assert report.summary["threshold_scale"] is not None
    assert len(report.summary["max_rel_dev"]) == 2


@pytest.mark.parametrize("base_seed", [0, 1])
@pytest.mark.parametrize("kind", ["rademacher", "gaussian", "subexp"])
@pytest.mark.parametrize("n", [2, 3, 50, 500])
def test_localscan_records_are_those_of_numpy_spectra(monkeypatch, n, kind, base_seed):
    # the trials' spectra carry LAPACK's two-stage bits, not eigvalsh's; the records read them only through
    # window counts, so the run on eigvalsh spectra of the same draws writes the same records
    cfg = _cfg(experiment="localscan", dist={"kind": kind}, n=n, trials=2, base_seed=base_seed)
    records = run_experiment(cfg, write=False).records
    monkeypatch.setattr(harness, "_eigh_owned", lambda a, vectors: np.linalg.eigvalsh(a))
    assert _same_records(records, run_experiment(cfg, write=False).records)
    # and not by luck: every eigenvalue is farther from every window end than the two solves differ
    for trial in range(cfg.trials):
        w = sample_wigner(cfg.dist, n, derive_seed(base_seed, trial), normalize=True)
        numpy_eigs = np.linalg.eigvalsh(w)
        disagreement = np.max(np.abs(_eigh_owned(w, vectors=False) - numpy_eigs))
        rows = records["trial"] == trial
        ends = np.unique(np.concatenate([records["window_lo"][rows], records["window_hi"][rows]]))
        gap = np.min(np.abs(numpy_eigs[:, None] - ends[None, :]))
        assert gap > disagreement


def test_covariance_curve_is_the_mp_scan_of_every_scale():
    n, p, trials, scales = 300, 120, 2, [1.0, 5.0, 20.0, 50.0]
    report = run_experiment(_cfg(experiment="covariance", n=n, p=p, trials=trials, scales=scales), write=False)
    summary = report.summary
    assert summary["scale_multiples"] == scales and summary["delta"] == 0.25
    assert len(summary["max_rel_dev"]) == len(scales)
    assert summary["max_rel_dev"][-2] == summary["max_mp_rel_dev"]
    y, unit = p / n, math.log(n) / n
    a, b = mp_edges(y)
    spectra = [
        gram_triplets(sample_rect(DistSpec("rademacher"), p, n, derive_seed(0, t))).sigma ** 2 / n
        for t in range(trials)
    ]
    mass = functools.partial(mp_interval_mass, y=y)
    for mult, worst in zip(scales, summary["max_rel_dev"]):
        # the bulk at the default eps = 0.1
        devs = [law_deviation(eigs, mass, mult * unit, (a + 0.2, b - 0.2)).max_rel_dev for eigs in spectra]
        assert worst == max(devs)
    below = [mult * unit for mult, worst in zip(scales, summary["max_rel_dev"]) if worst <= 0.25]
    assert below and summary["threshold_scale"] == below[0]
    # a config with one scale gates that scale: 1 log n/n fails the gate, 50 log n/n passes it
    for mult, ok in ((1.0, False), (50.0, True)):
        one = run_experiment(_cfg(experiment="covariance", n=n, p=p, trials=trials, scales=[mult]), write=False)
        assert one.summary["max_rel_dev"] == [one.summary["max_mp_rel_dev"]]
        assert one.summary["max_mp_rel_dev"] == summary["max_rel_dev"][scales.index(mult)]
        assert one.summary["ok"] is ok


@pytest.mark.parametrize("n, p", [(200, 100), (100, 100)])
def test_covariance_summary_comes_from_its_records(tmp_path, n, p):
    cfg = _cfg(experiment="covariance", n=n, p=p, trials=3, out_dir=str(tmp_path))
    report = run_experiment(cfg)
    summary = json.loads((report.out_path / "summary.json").read_text())
    with open(report.out_path / "records.csv", newline="") as f:
        rows = list(csv.DictReader(f))
    spectra = [
        np.array([float(row["lambda"]) for row in rows if row["trial"] == str(t) and row["side"] == "left"])
        for t in range(cfg.trials)
    ]
    assert all(eigs.size == p for eigs in spectra)
    y, unit = p / n, math.log(n) / n
    a, b = mp_edges(y)
    bulk = (a + 2 * cfg.eps, b - 2 * cfg.eps)
    mass = functools.partial(mp_interval_mass, y=y)
    curve = [max(law_deviation(eigs, mass, mult * unit, bulk).max_rel_dev for eigs in spectra) for mult in cfg.scales]
    assert summary["max_rel_dev"] == curve
    eta = cfg.eta_multiple * unit
    residual = max(
        mp_self_consistency_residual(eigs, x + 1j * eta, y) for eigs in spectra for x in np.linspace(*bulk, 25)
    )
    assert summary["max_self_consistency_residual"] == residual


def test_run_covariance_experiment():
    report = run_experiment(
        _cfg(experiment="covariance", n=200, p=100, trials=1, scales=[10.0, 20.0]),
        write=False,
    )
    assert "max_mp_rel_dev" in report.summary
    assert _rows(report.records) and report.records["side"][0] in ("left", "right")
    # p = n in {2, 3} with Rademacher entries is often rank-deficient
    for n in (2, 3):
        for seed in range(6):
            report = run_experiment(_cfg(experiment="covariance", n=n, p=n, trials=4, base_seed=seed), write=False)
            for name in ("lambda", "inf_norm", "scaled_bulk", "scaled_edge"):
                assert np.all(np.isfinite(report.records[name]))
            assert np.all(report.records["inf_norm"] <= 1.0)


def test_worker_invariance_byte_identical_csv(tmp_path):
    base = dict(
        experiment="localscan",
        n=200,
        trials=4,
        scales=[10.0, 50.0],
        out_dir=str(tmp_path),
    )
    run_experiment(_cfg(**base, workers=1, label="w1"))
    run_experiment(_cfg(**base, workers=3, label="w3"))
    csv1 = (tmp_path / "localscan" / "w1" / "records.csv").read_bytes()
    csv3 = (tmp_path / "localscan" / "w3" / "records.csv").read_bytes()
    assert csv1 == csv3


def test_deloc_worker_invariance():
    a = run_experiment(
        _cfg(experiment="deloc", n_grid=[48, 64], trials=2, workers=1), write=False
    )
    b = run_experiment(
        _cfg(experiment="deloc", n_grid=[48, 64], trials=2, workers=2), write=False
    )
    assert _same_records(a.records, b.records)


# Sizes at which OPENBLAS_NUM_THREADS=1 changes the serial deloc and
# covariance rows (bundled scipy-openblas 0.3.31, 2 cores), so workers that
# ran with another BLAS thread count than the serial run would fail here.
@pytest.mark.parametrize(
    "raw",
    [
        dict(experiment="deloc", n=500, trials=2),
        dict(experiment="covariance", n=600, p=300, trials=2),
        dict(experiment="localscan", n=500, trials=2),
    ],
    ids=["deloc", "covariance", "localscan"],
)
def test_records_match_across_worker_counts(raw):
    serial = run_experiment(_cfg(**raw, workers=1), write=False)
    pooled = run_experiment(_cfg(**raw, workers=2), write=False)
    assert _same_records(pooled.records, serial.records)
    assert pooled.summary == serial.summary


def test_sub_gaussian_tail_envelopes_use_alpha_half():
    # a gaussian is sub-exponential with alpha = 1/2 in DistSpec's convention, tail exp(-c t^2)
    cfg = _cfg(experiment="tail", n=50, trials=200, dist={"kind": "gaussian"}, envelopes=["subexp", "esy2"])
    report = run_experiment(cfg, write=False)
    g = np.random.Generator(np.random.PCG64(derive_seed(cfg.base_seed, 1 << 48))).standard_normal((50, 50))
    a = (g + g.T) / math.sqrt(2.0)
    frob, spectral = math.sqrt(math.fsum((a * a).ravel().tolist())), float(np.linalg.norm(a, 2))
    for kind in ("subexp", "esy2"):
        env = TailEnvelope(kind=kind, n=50, frobenius=frob, spectral=spectral, alpha=0.5)
        expected = np.array([env(t) for t in report.records["t"].tolist()])
        assert report.records[f"envelope_{kind}"].tobytes() == expected.tobytes()


@pytest.mark.parametrize("n", [1, 2, 3, 400])
def test_half_triangle_frobenius_equals_the_full_fsum_bit_for_bit(n):
    # the tail's target, (G + G^T)/sqrt(2), equals its transpose bit for bit; doubling a square is exact
    for seed in range(5):
        g = np.random.Generator(np.random.PCG64(derive_seed(seed, 1 << 48))).standard_normal((n, n))
        a = (g + g.T) / math.sqrt(2.0)
        assert harness._symmetric_frobenius(a) == math.sqrt(math.fsum((a * a).ravel().tolist()))


def test_tail_without_envelopes_takes_no_svd(monkeypatch):
    def no_svd(*args, **kwargs):
        raise AssertionError("svd called")

    monkeypatch.setattr(np.linalg, "svd", no_svd)
    inner = getattr(np.linalg, "_linalg", None)  # norm(a, 2) calls the module-level svd here
    if inner is not None:
        monkeypatch.setattr(inner, "svd", no_svd)
    report = run_experiment(_cfg(experiment="tail", n=20, trials=100, statistic="quadratic"), write=False)
    assert _rows(report.records) == 33


def test_identity_instance_decomposes_each_factor_once(monkeypatch):
    # per instance: one SVD of the factor and one of each of its two minors; one stacked solve per Schur
    # expansion; one eigh of the Wigner matrix, one of its minor and one of the quadratic form's matrix.
    # Matrices of one shape share each call, whatever their role or instance: one SVD per shape among the
    # factors and their minors, one eigh per size among W, its minor and A, and one solve per Wigner size and
    # per factor height p. Each Wigner stack is checked Hermitian once
    from rmtlab import delocalization, spectral
    from rmtlab.harness import _identity_shape

    checked = []
    original_check = spectral.check_hermitian
    for module in (spectral, delocalization):
        monkeypatch.setattr(module, "check_hermitian", lambda w: checked.append(np.shape(w)) or original_check(w))
    calls = {"svd": [], "solve": [], "eigh": [], "eigvalsh": []}
    inner = getattr(np.linalg, "_linalg", None)
    for name in calls:
        original = getattr(np.linalg, name)

        def counted(a, *args, _name=name, _original=original, **kwargs):
            # a solve takes one instance's n minors as one stack: the matrices of a call are its instances
            calls[_name].append(math.prod(np.shape(a)[: -3 if _name == "solve" else -2]))
            return _original(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
        if inner is not None:
            monkeypatch.setattr(inner, name, counted)
    trials = 40
    report = run_experiment(_cfg(experiment="identities", trials=trials), write=False)
    shapes = [_identity_shape(i) for i in range(trials)]
    sizes, heights = len({n for n, _, _ in shapes}), len({p for _, p, _ in shapes})
    svd_shapes = {shape for _, p, pn in shapes for shape in ((p, pn), (p, pn - 1), (p - 1, pn))}
    eigh_sizes = {size for n, _, _ in shapes for size in (n, n - 1)}
    assert {name: sum(counts) for name, counts in calls.items()} == {
        "svd": 3 * trials,
        "solve": 2 * trials,
        "eigh": 3 * trials,
        "eigvalsh": 0,
    }
    assert {name: len(counts) for name, counts in calls.items()} == {
        "svd": len(svd_shapes),
        "solve": sizes + heights,
        "eigh": len(eigh_sizes),
        "eigvalsh": 0,
    }
    assert (len(svd_shapes), sizes + heights, len(eigh_sizes)) == (85, 23, 15)
    assert len(checked) == sizes and sum(shape[0] for shape in checked) == trials
    assert set(report.records["check"].tolist()) >= {"schur_sum", "cov_schur_sum", "singular_interlacing_left"}


def test_float_formatting_round_trips(tmp_path):
    inputs = [
        dict(experiment="pv"),
        dict(experiment="tail", n=20, trials=200, envelopes=["hw", "esy1"]),
        dict(experiment="localscan", n=200, trials=2, scales=[10.0, 50.0]),
        dict(experiment="deloc", n_grid=[24, 32], trials=2),
        dict(experiment="identities", trials=8),
        dict(experiment="covariance", n=60, p=30, trials=2, scales=[10.0, 20.0]),
    ]
    for raw in inputs:
        report = run_experiment(_cfg(**raw, out_dir=str(tmp_path), label="fmt"))
        json.loads((report.out_path / "summary.json").read_text(), parse_constant=_no_constant)
        with open(report.out_path / "records.csv") as fh:
            header, *rows = csv.reader(fh)
        assert header == list(report.records)
        for j, column in enumerate(report.records.values()):
            cells = [row[j] for row in rows]
            if column.dtype.kind == "f":
                # repr-formatted floats parse back exactly
                np.testing.assert_array_equal(np.array([float(c) for c in cells]), column)
            else:
                assert cells == [str(v) for v in column.tolist()]


def test_deloc_seed_cells_are_exact(tmp_path):
    # derived seeds are 64-bit; most are >= 2**63, which a float64 column would round
    cfg = _cfg(experiment="deloc", n_grid=[8, 12], trials=3, base_seed=5, out_dir=str(tmp_path))
    report = run_experiment(cfg)
    with open(report.out_path / "records.csv") as fh:
        rows = list(csv.DictReader(fh))
    expected = [derive_seed(5, job) for job, n in enumerate([8] * 3 + [12] * 3) for _ in range(n)]
    assert [int(row["seed"]) for row in rows] == expected
    assert max(expected) >= 2**63


def test_covariance_csv_cells_are_plain_numbers(tmp_path):
    cfg = _cfg(experiment="covariance", n=60, p=30, trials=1, scales=[10.0, 20.0], out_dir=str(tmp_path))
    report = run_experiment(cfg)
    with open(report.out_path / "records.csv") as fh:
        rows = list(csv.reader(fh))
    text_columns = {rows[0].index("side"), rows[0].index("region")}
    for row in rows[1:]:
        for j, cell in enumerate(row):
            if j not in text_columns:
                float(cell)


def test_cli_pv_exit_zero(tmp_path, capsys):
    rc = cli_main(["pv", "--out", str(tmp_path), "--label", "x", "--assert"])
    assert rc == 0
    out = capsys.readouterr().out
    assert '"ok": true' in out


def test_cli_config_error_exit_two(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"experiment": "pv", "nope": 1}))
    assert cli_main(["pv", "--config", str(bad)]) == 2
    # experiment mismatch between config and subcommand
    good = tmp_path / "good.json"
    good.write_text(json.dumps({"experiment": "tail", "trials": 100}))
    assert cli_main(["pv", "--config", str(good)]) == 2
    # invalid override
    assert cli_main(["tail", "--n", "0", "--out", str(tmp_path)]) == 2
    # a count that is not an integer is rejected at load, before any run
    fractional = tmp_path / "fractional.json"
    fractional.write_text(json.dumps({"experiment": "tail", "n": 2.5}))
    assert cli_main(["tail", "--config", str(fractional), "--out", str(tmp_path)]) == 2
    assert not (tmp_path / "tail").exists()
    # a t_grid that is not an ascending list of finite nonnegative numbers fails at load, before any draw
    for t_grid in (["x"], [float("nan"), 1.0], [-1.0, 1.0]):
        bad_grid = tmp_path / "bad_grid.json"
        raw = {"experiment": "tail", "n": 20, "trials": 100, "t_grid": t_grid, "envelopes": ["hkz"]}
        bad_grid.write_text(json.dumps(raw))
        assert cli_main(["tail", "--config", str(bad_grid), "--out", str(tmp_path)]) == 2
        assert not (tmp_path / "tail").exists()
    # scales, delta, eps and eta_multiple must be finite numbers, checked at load before any run
    nonfinite = [
        {"experiment": "localscan", "n": 100, "trials": 1, "scales": [1.0, float("nan")]},
        {"experiment": "localscan", "n": 100, "trials": 1, "scales": [1.0, float("inf")]},
        {"experiment": "localscan", "n": 100, "trials": 1, "delta": float("nan")},
        {"experiment": "localscan", "n": 100, "trials": 1, "delta": float("inf")},
        {"experiment": "deloc", "n": 16, "trials": 1, "eps": float("nan")},
        {"experiment": "deloc", "n": 16, "trials": 1, "eps": float("-inf")},
        {"experiment": "covariance", "n": 20, "p": 10, "trials": 1, "eta_multiple": float("nan")},
        {"experiment": "covariance", "n": 20, "p": 10, "trials": 1, "eta_multiple": float("inf")},
    ]
    for raw in nonfinite:
        bad_number = tmp_path / "bad_number.json"
        bad_number.write_text(json.dumps(raw))
        assert cli_main([raw["experiment"], "--config", str(bad_number), "--out", str(tmp_path)]) == 2
        assert not (tmp_path / raw["experiment"]).exists()
    # an envelope that does not bound the statistic fails at load, before any draw
    unfit = tmp_path / "unfit.json"
    unfit.write_text(json.dumps({"experiment": "tail", "trials": 100, "statistic": "projection", "envelopes": ["hkz"]}))
    assert cli_main(["tail", "--config", str(unfit), "--out", str(tmp_path)]) == 2
    assert not (tmp_path / "tail").exists()
    # a subexp alpha of NaN fails at load: it would run, report ok and write NaN into config.json;
    # an alpha with another kind fails too: that kind reads none, and config.json would not show it
    for dist in ({"kind": "subexp", "alpha": float("nan")}, {"kind": "gaussian", "alpha": 7}):
        bad_alpha = tmp_path / "bad_alpha.json"
        bad_alpha.write_text(json.dumps({"experiment": "tail", "n": 20, "trials": 200, "dist": dist}))
        assert cli_main(["tail", "--config", str(bad_alpha), "--out", str(tmp_path)]) == 2
        assert not (tmp_path / "tail").exists()
    # the tail's trial minimum applies with and without a config file
    assert cli_main(["tail", "--trials", "99", "--out", str(tmp_path)]) == 2
    assert not (tmp_path / "tail").exists()


def test_cli_bad_label_keeps_earlier_runs(tmp_path, capsys):
    # "." and ".." would name the experiment directory or the output root, which the writer replaces
    assert cli_main(["pv", "--out", str(tmp_path), "--label", "keepme"]) == 0
    assert cli_main(["pv", "--out", str(tmp_path)]) == 0
    before = {p.relative_to(tmp_path): p.is_file() and p.read_bytes() for p in tmp_path.rglob("*")}
    assert sum(1 for p in before if p.name == "records.csv") == 2
    for label in (".", "..", "a/b", ".keepme"):
        assert cli_main(["pv", "--out", str(tmp_path), "--label", label]) == 2
    assert {p.relative_to(tmp_path): p.is_file() and p.read_bytes() for p in tmp_path.rglob("*")} == before


def test_cli_path_the_os_rejects_exit_two(tmp_path, capsys):
    # a config that is missing, a directory or not UTF-8, an output root under a file, and a label whose
    # temporary .{label}.{32 hex}.tmp passes 255 bytes: one error line each, and nothing left behind
    out = tmp_path / "out"
    (tmp_path / "latin1.json").write_bytes(b'{"experiment": "pv", "label": "\xe9"}')
    (tmp_path / "file").write_text("")
    cases = [
        ["--config", str(tmp_path / "missing.json"), "--out", str(out)],
        ["--config", str(tmp_path), "--out", str(out)],
        ["--config", str(tmp_path / "latin1.json"), "--out", str(out)],
        ["--out", str(tmp_path / "file" / "x")],
        ["--out", str(out), "--label", "a" * 218],
    ]
    for args in cases:
        assert cli_main(["pv", *args]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1 and "Traceback" not in err
    assert not [p for p in tmp_path.rglob("*") if p.name.endswith(".tmp")]
    assert cli_main(["pv", "--out", str(out), "--label", "a" * 217]) == 0
    assert sorted(p.name for p in (out / "pv" / ("a" * 217)).iterdir()) == ["config.json", "records.csv", "summary.json"]


def test_cli_unencodable_label_exit_two_before_any_output(tmp_path, capsys):
    # JSON "\ud800" reads as a lone surrogate, which no file name encodes
    path = tmp_path / "surrogate.json"
    path.write_text(json.dumps({"experiment": "pv", "label": "\ud800"}))
    assert cli_main(["pv", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1 and "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_cli_deloc_n_one_exit_two(tmp_path, capsys):
    assert cli_main(["deloc", "--n", "1", "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1


_QUADRATIC_KINDS = [kind for kind in ENVELOPE_KINDS if kind != "projection"]
_EDGE_CONFIGS = [
    *(dict(experiment="tail", n=n, trials=100, envelopes=_QUADRATIC_KINDS) for n in (1, 2, 3)),
    *(dict(experiment="tail", n=n, d=n, trials=100, statistic="projection", envelopes=["projection"]) for n in (1, 2, 3)),
    *(dict(experiment=exp, n=n, trials=1) for exp in ("localscan", "deloc") for n in (1, 2, 3)),
    *(dict(experiment="covariance", n=n, p=p, trials=1) for n in (1, 2, 3) for p in sorted({n, 1})),
]


def _edge_id(raw: dict) -> str:
    return "-".join([raw["experiment"], raw.get("statistic", ""), f"n{raw['n']}", f"p{raw.get('p', '')}"])


@pytest.mark.parametrize("raw", _EDGE_CONFIGS, ids=_edge_id)
def test_cli_edge_sizes_exit_zero_or_two(raw, tmp_path, capsys):
    # the smallest sizes run, or fail at load with one error line; none raises.  n = 1 fails
    # wherever log n is read: the window scales, and the tail envelopes vw1, vw2 and subexp
    path = tmp_path / "edge.json"
    path.write_text(json.dumps(raw))
    rc = cli_main([raw["experiment"], "--config", str(path), "--out", str(tmp_path)])
    err = capsys.readouterr().err
    if raw["n"] == 1 and raw.get("statistic") != "projection":
        assert rc == 2
        assert err.startswith("error:") and err.count("\n") == 1
        assert not (tmp_path / raw["experiment"]).exists()
    else:
        assert rc == 0, err


def test_cli_tail_overflowing_envelope_exit_zero(tmp_path, capsys):
    # the subexp rate at alpha = 0.1 overflows a float at t = 1e300: the run writes the bound 0.0 there
    path = tmp_path / "overflow.json"
    path.write_text(
        json.dumps(
            {
                "experiment": "tail",
                "n": 3,
                "trials": 100,
                "dist": {"kind": "subexp", "alpha": 0.1},
                "envelopes": ["subexp"],
                "t_grid": [0.0, 1e300],
            }
        )
    )
    assert cli_main(["tail", "--config", str(path), "--out", str(tmp_path), "--label", "overflow"]) == 0
    capsys.readouterr()
    rows = list(csv.DictReader(io.StringIO((tmp_path / "tail" / "overflow" / "records.csv").read_text())))
    assert [(row["t"], row["envelope_subexp"]) for row in rows] == [("0.0", "1.0"), ("1e+300", "0.0")]


def test_tail_bounded_uniform_projection_envelope():
    # the projection envelope reads K, here the uniform bound sqrt(3): with C = C' = 1 it is exp(-t^2 / K^2)
    cfg = config_from_dict(
        {
            "experiment": "tail",
            "n": 8,
            "d": 4,
            "trials": 100,
            "dist": {"kind": "bounded_uniform"},
            "statistic": "projection",
            "envelopes": ["projection"],
        }
    )
    records = run_experiment(cfg, write=False).records
    k = UNIFORM_BOUND
    assert records["envelope_projection"].tolist() == [math.exp(-t * t / (k * k)) for t in records["t"].tolist()]


def test_cli_default_tail_exit_two(tmp_path, capsys):
    # 5 trials are fewer than the tail estimate needs
    assert cli_main(["tail", "--trials", "5", "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert not (tmp_path / "tail").exists()


def test_cli_default_tail_runs(tmp_path, capsys):
    assert cli_main(["tail", "--out", str(tmp_path), "--label", "default", "--assert"]) == 0
    capsys.readouterr()
    out = tmp_path / "tail" / "default"
    assert sorted(f.name for f in out.iterdir()) == ["config.json", "records.csv", "summary.json"]
    assert json.loads((out / "config.json").read_text())["trials"] == 2000


def test_cli_unread_field_exit_two(tmp_path, capsys):
    # a flag or config key the experiment does not read fails before any run, and writes nothing
    assert cli_main(["identities", "--n", "5000", "--out", str(tmp_path)]) == 2
    assert cli_main(["pv", "--trials", "5", "--out", str(tmp_path)]) == 2
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"experiment": "identities", "trials": 4, "p": 3}))
    assert cli_main(["identities", "--config", str(cfg), "--out", str(tmp_path)]) == 2
    # identities draws in the calling thread, so it reads no worker count
    assert cli_main(["identities", "--workers", "2", "--out", str(tmp_path)]) == 2
    cfg.write_text(json.dumps({"experiment": "identities", "trials": 4, "workers": 2}))
    assert cli_main(["identities", "--config", str(cfg), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 5 and all(line.startswith("error:") for line in err)
    assert "--workers" in err[3] and "'workers'" in err[4]
    assert sorted(f.name for f in tmp_path.iterdir()) == ["cfg.json"]


def test_cli_tail_trials_flag_meets_minimum(tmp_path, capsys):
    # flags are applied before the one validation, so --trials replaces a count below the minimum
    assert cli_main(["tail", "--trials", "100", "--n", "20", "--out", str(tmp_path), "--label", "flags"]) == 0
    cfg = tmp_path / "tail.json"
    cfg.write_text(json.dumps({"experiment": "tail", "n": 20, "trials": 5}))
    assert cli_main(["tail", "--config", str(cfg), "--trials", "100", "--out", str(tmp_path), "--label", "file"]) == 0
    capsys.readouterr()
    assert (tmp_path / "tail" / "flags" / "records.csv").exists()
    assert (tmp_path / "tail" / "file" / "records.csv").read_bytes() == (
        tmp_path / "tail" / "flags" / "records.csv"
    ).read_bytes()


@pytest.mark.parametrize(
    "raw",
    [
        dict(experiment="covariance", eps=0.9),  # eps >= sqrt(p/n) = sqrt(1/2)
        dict(experiment="covariance", n=100, p=4, eps=0.25),
        dict(experiment="deloc", eps=2.0),
        dict(experiment="deloc", n=50, eps=3.5),
    ],
    ids=["covariance-default", "covariance-thin", "deloc-2", "deloc-3.5"],
)
def test_cli_eps_without_bulk_exit_two_before_sampling(raw, tmp_path, capsys, monkeypatch):
    # an eps that leaves no bulk fails at load: nothing is drawn and nothing written
    def no_draw(*args, **kwargs):
        raise AssertionError("a matrix was drawn")

    monkeypatch.setattr(harness, "sample_rect", no_draw)
    monkeypatch.setattr(harness, "sample_wigner", no_draw)
    path = tmp_path / "eps.json"
    path.write_text(json.dumps(raw))
    assert cli_main([raw["experiment"], "--config", str(path), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: field 'eps'") and err.count("\n") == 1
    assert not (tmp_path / raw["experiment"]).exists()


def _wrong_type_id(raw: dict) -> str:
    field = _wrong_field(raw)
    value = raw[field]
    null_entry = "-of-None" if isinstance(value, list) and None in value else ""  # so [64, None] keeps list's id free
    return f"{raw['experiment']}-{field}-{type(value).__name__}{null_entry}"


@pytest.mark.parametrize("raw", _WRONG_TYPE_CONFIGS + _UNFIT_VALUE_CONFIGS, ids=_wrong_type_id)
def test_cli_field_of_wrong_type_exit_two_before_sampling(raw, tmp_path, capsys, monkeypatch):
    # a dist that is not an object, an n_grid or envelopes that is not a list, an empty n_grid or a
    # scale too fine for its window grid fails at load with one error line that names the field:
    # nothing is drawn and nothing written
    def no_draw(*args, **kwargs):
        raise AssertionError("a matrix was drawn")

    monkeypatch.setattr(harness, "sample_rect", no_draw)
    monkeypatch.setattr(harness, "sample_wigner", no_draw)
    monkeypatch.setattr(concentration, "_draw", no_draw)
    path = tmp_path / "wrong_type.json"
    path.write_text(json.dumps(raw))
    assert cli_main([raw["experiment"], "--config", str(path), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: field '{_wrong_field(raw)}'") and err.count("\n") == 1
    assert not (tmp_path / raw["experiment"]).exists()


def test_scales_just_above_the_window_cap_load():
    # at n = 100 the localscan cap of 100 n windows over (-1.8, 1.8) is a multiple of about 0.0313; the
    # covariance scan sees the p = 50 Gram eigenvalues, so its cap of 100 p windows is a multiple of about 0.0422
    assert config_from_dict({"experiment": "localscan", "n": 100, "scales": [0.032, 1.0]}).scales[0] == 0.032
    assert config_from_dict({"experiment": "covariance", "n": 100, "scales": [0.043]}).scales == [0.043]
    with pytest.raises(ConfigError, match="^field 'scales'"):
        config_from_dict({"experiment": "covariance", "n": 100, "scales": [0.041]})


def test_eps_just_inside_the_bulk_loads():
    _cfg(experiment="covariance", eps=0.7)
    _cfg(experiment="covariance", n=100, p=4, eps=0.19)
    _cfg(experiment="deloc", eps=1.99)


def test_cli_assert_failure_exit_three(tmp_path, capsys):
    # an unreachable delta forces threshold_scale = None -> summary not ok
    cfg = tmp_path / "scan.json"
    cfg.write_text(
        json.dumps(
            {
                "experiment": "localscan",
                "n": 200,
                "trials": 1,
                "scales": [0.1],
                "delta": 1e-9,
                "out_dir": str(tmp_path),
            }
        )
    )
    assert cli_main(["localscan", "--config", str(cfg), "--assert"]) == 3
    capsys.readouterr()


def test_cli_overrides_apply(tmp_path, capsys):
    rc = cli_main(
        [
            "deloc",
            "--n",
            "64",
            "--trials",
            "1",
            "--seed",
            "7",
            "--out",
            str(tmp_path),
            "--label",
            "ov",
        ]
    )
    assert rc == 0
    cfg = json.loads((tmp_path / "deloc" / "ov" / "config.json").read_text())
    assert cfg["n"] == 64 and cfg["trials"] == 1 and cfg["base_seed"] == 7


def test_run_experiment_rejects_unknown():
    cfg = ExperimentConfig(experiment="pv")
    cfg.experiment = "mystery"  # bypass __post_init__ validation
    with pytest.raises(KeyError):
        run_experiment(cfg, write=False)
