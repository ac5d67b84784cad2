import csv
import json
import math

import numpy as np
import pytest

from rmtlab.cli import main as cli_main
from rmtlab.ensembles import DistSpec
from rmtlab.harness import (
    ConfigError,
    ExperimentConfig,
    config_from_dict,
    load_config,
    run_experiment,
)


def _cfg(**kw):
    return config_from_dict(kw)


def test_config_defaults():
    cfg = _cfg(experiment="tail")
    assert cfg.trials == 5
    assert cfg.dist == DistSpec("rademacher")
    assert cfg.n == 1000
    assert _cfg(experiment="identities").trials == 200


def test_config_round_trip():
    cfg = _cfg(
        experiment="localscan",
        dist={"kind": "subexp", "alpha": 0.5, "a": 2.0, "b": 1.0},
        n=500,
        trials=3,
        scales=[1.0, 5.0],
        base_seed=99,
    )
    again = config_from_dict(cfg.to_dict())
    assert again == cfg
    assert again.config_hash() == cfg.config_hash()


def test_config_hash_sensitivity():
    a = _cfg(experiment="tail")
    b = _cfg(experiment="tail", base_seed=1)
    assert a.config_hash() != b.config_hash()
    moved = _cfg(experiment="tail", out_dir="elsewhere", label="named")
    assert moved.config_hash() == a.config_hash()


def test_config_validation_errors():
    cases = [
        {"experiment": "nope"},
        {"experiment": "tail", "n": 0},
        {"experiment": "tail", "trials": -1},
        {"experiment": "tail", "delta": 0.0},
        {"experiment": "tail", "scales": [2.0, 1.0]},
        {"experiment": "localscan", "scales": [1.0, 1.0]},
        {"experiment": "tail", "statistic": "cubic"},
        {"experiment": "tail", "matrix": "hilbert"},
        {"experiment": "tail", "base_seed": -1},
        {"experiment": "covariance", "p": 0},
        {"experiment": "covariance", "n": 1},
        {"experiment": "localscan", "n": 1},
        {"experiment": "deloc", "n_grid": [64, 1]},
        {"experiment": "tail", "dist": {"kind": "zeta"}},
        {"experiment": "tail", "bogus_key": 1},
        {"n": 100},  # missing experiment
    ]
    for raw in cases:
        with pytest.raises(ConfigError):
            config_from_dict(raw)
    with pytest.raises(ConfigError):
        config_from_dict([1, 2, 3])


def test_load_config_parse_error(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError, match="line"):
        load_config(str(path))


def test_load_config_good(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"experiment": "pv"}))
    assert load_config(str(path)).experiment == "pv"


def test_run_pv_experiment():
    report = run_experiment(_cfg(experiment="pv"), write=False)
    assert report.summary["ok"]
    assert report.summary["max_abs_err"] <= 0.05
    assert len(report.records) == 9


def test_run_identities_experiment_small():
    report = run_experiment(_cfg(experiment="identities", trials=12), write=False)
    assert report.summary["ok"]
    assert report.summary["max_rel_err"] < 1e-8
    assert report.summary["checks"] > 100
    # per instance: 2 checks per eigenvalue, 4 per singular value, 3 unguarded sums
    sizes = [(3 + k % 14, 2 + k % 9) for k in range(12)]
    total = sum(2 * n + 4 * p + 3 for n, p in sizes)
    assert report.summary["checks"] + report.summary["skipped"] == total


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

    def broken_writer(*args, **kwargs):
        raise OSError("disk full")

    monkeypatch.setattr(csv, "writer", broken_writer)
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


def test_run_deloc_experiment():
    report = run_experiment(
        _cfg(experiment="deloc", n_grid=[64, 96], trials=2), write=False
    )
    assert report.summary["ok"]
    assert len(report.records) == 2 * (64 + 96)


def test_run_localscan_experiment():
    report = run_experiment(
        _cfg(experiment="localscan", n=300, trials=2, scales=[10.0, 50.0]), write=False
    )
    assert report.summary["threshold_scale"] is not None
    assert len(report.summary["max_rel_dev"]) == 2


def test_run_covariance_experiment():
    report = run_experiment(
        _cfg(experiment="covariance", n=200, p=100, trials=1, scales=[10.0, 20.0]),
        write=False,
    )
    assert "max_mp_rel_dev" in report.summary
    assert report.records and report.records[0][1] in ("left", "right")
    # p = n in {2, 3} with Rademacher entries is often rank-deficient
    for n in (2, 3):
        for seed in range(6):
            report = run_experiment(_cfg(experiment="covariance", n=n, p=n, trials=4, base_seed=seed), write=False)
            for row in report.records:
                assert all(math.isfinite(v) for v in (row[4], *row[6:]))
                assert row[6] <= 1.0


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
    assert a.records == b.records


# Sizes at which OPENBLAS_NUM_THREADS=1 changes the serial deloc and
# covariance rows (bundled scipy-openblas 0.3.31, 2 cores), so workers whose
# BLAS threads differ from the parent's fail here.  The identity instances
# are too small for BLAS threads to change them.
@pytest.mark.parametrize(
    "raw",
    [
        dict(experiment="deloc", n=500, trials=2),
        dict(experiment="covariance", n=600, p=300, trials=2),
        dict(experiment="identities", trials=30),
    ],
    ids=["deloc", "covariance", "identities"],
)
def test_records_match_across_worker_counts(raw):
    serial = run_experiment(_cfg(**raw, workers=1), write=False)
    pooled = run_experiment(_cfg(**raw, workers=2), write=False)
    assert pooled.records == serial.records
    assert pooled.summary == serial.summary


def test_tail_without_envelopes_takes_no_svd(monkeypatch):
    def no_svd(*args, **kwargs):
        raise AssertionError("svd called")

    monkeypatch.setattr(np.linalg, "svd", no_svd)
    inner = getattr(np.linalg, "_linalg", None)  # norm(a, 2) calls the module-level svd here
    if inner is not None:
        monkeypatch.setattr(inner, "svd", no_svd)
    report = run_experiment(_cfg(experiment="tail", n=20, trials=100, statistic="quadratic"), write=False)
    assert len(report.records) == 33


def test_identity_instance_decomposes_each_factor_once(monkeypatch):
    # one SVD of the factor and one of each of its two minors; one stacked solve per Schur expansion
    from rmtlab.harness import _identity_instance

    calls = {"svd": 0, "solve": 0}
    inner = getattr(np.linalg, "_linalg", None)
    for name in calls:
        original = getattr(np.linalg, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
        if inner is not None:
            monkeypatch.setattr(inner, name, counted)
    rows, _ = _identity_instance((DistSpec("rademacher"), 5, 17))  # n = 8, p = 7
    assert calls == {"svd": 3, "solve": 2}
    assert {row[1] for row in rows} >= {"schur_sum", "cov_schur_sum", "singular_interlacing_left"}


def test_float_formatting_round_trips(tmp_path):
    cfg = _cfg(experiment="pv", out_dir=str(tmp_path), label="fmt")
    report = run_experiment(cfg)
    lines = (report.out_path / "records.csv").read_text().splitlines()
    # repr-formatted floats parse back exactly
    first = lines[1].split(",")
    assert float(first[2]) == report.records[0][2]


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
    good.write_text(json.dumps({"experiment": "tail"}))
    assert cli_main(["pv", "--config", str(good)]) == 2
    # invalid override
    assert cli_main(["pv", "--n", "0", "--out", str(tmp_path)]) == 2


def test_cli_deloc_n_one_exit_two(tmp_path, capsys):
    assert cli_main(["deloc", "--n", "1", "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1


def test_cli_default_tail_exit_two(tmp_path, capsys):
    # the default 5 trials are fewer than the tail estimate needs
    assert cli_main(["tail", "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert not (tmp_path / "tail").exists()


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
