"""Golden records.csv hashes of seven small configs, on pinned CPU code paths.

A record is byte-stable only for one OpenBLAS kernel, one BLAS thread count
and one numpy SIMD dispatch level (README, *Determinism contract*).  The
runs go to one subprocess that pins all three:

- OPENBLAS_CORETYPE=Prescott: that kernel needs only SSE3, so any x86-64
  host can force it;
- OPENBLAS_NUM_THREADS=1;
- NPY_ENABLE_CPU_FEATURES=X86_V2: numpy's baseline, so numpy takes no AVX2
  or AVX-512 dispatch path.

Each value is the first 16 hex digits of the SHA-256 of ``records.csv``.
The ``tail`` records read no kernel-dependent number, so that config also
runs under the host's own kernel and must give the same bytes.  The table
holds for the numpy and scipy versions that CI pins; on any other host or
version the tests skip and say why.
"""

import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy

ROOT = Path(__file__).resolve().parents[1]

PINNED_ENV = {"OPENBLAS_CORETYPE": "Prescott", "OPENBLAS_NUM_THREADS": "1", "NPY_ENABLE_CPU_FEATURES": "X86_V2"}
PINNED_VERSIONS = {"numpy": "2.4.6", "scipy": "1.17.1"}

# label -> (config, hash); every field not named is its default
GOLDEN = {
    "tail": (dict(experiment="tail", n=400, trials=20_000, workers=2), "93d8073631fe0c0d"),
    "tail-projection": (
        dict(
            experiment="tail",
            n=64,
            d=16,
            trials=2_000,
            dist={"kind": "gaussian"},
            statistic="projection",
            envelopes=["projection"],
            workers=2,
        ),
        "e1920293a42c3348",
    ),
    "localscan": (dict(experiment="localscan", n=500, trials=2), "7c55eeb1f9df49bb"),
    "identities": (dict(experiment="identities", trials=200, base_seed=1), "d29c3edc7df593a8"),
    "covariance": (dict(experiment="covariance", n=600, p=300, trials=2), "14b8d29c2810730e"),
    "deloc": (dict(experiment="deloc", n=300, trials=2), "b4ee1910b2ceaf2b"),
    "pv": (dict(experiment="pv"), "93e006f9e177efb6"),
}

_RUN = """
import hashlib, json, sys
from rmtlab.harness import config_from_dict, run_experiment

hashes = {}
for label, raw in json.loads(sys.argv[1]).items():
    report = run_experiment(config_from_dict(dict(raw, out_dir=sys.argv[2], label=label)))
    hashes[label] = hashlib.sha256((report.out_path / "records.csv").read_bytes()).hexdigest()[:16]
print(json.dumps(hashes))
"""

_host = {"machine": platform.machine().lower(), "numpy": np.__version__, "scipy": scipy.__version__}
pytestmark = pytest.mark.skipif(
    _host["machine"] not in ("x86_64", "amd64") or any(_host[k] != v for k, v in PINNED_VERSIONS.items()),
    reason=(
        "golden hashes are recorded for x86-64 with numpy {numpy} and scipy {scipy}".format(**PINNED_VERSIONS)
        + "; this host is {machine} with numpy {numpy} and scipy {scipy}".format(**_host)
    ),
)


def _hashes(configs, out_dir, env):
    # pytest's -W reaches only its own process, so the run is told by the environment that a RuntimeWarning is an error
    env = dict(
        env,
        PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])),
        PYTHONWARNINGS="error::RuntimeWarning",
    )
    result = subprocess.run(
        [sys.executable, "-c", _RUN, json.dumps(configs), str(out_dir)],
        cwd=out_dir,
        env=env,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout)


def test_records_match_golden_hashes(tmp_path):
    env = dict(os.environ, **PINNED_ENV)
    env.pop("NPY_DISABLE_CPU_FEATURES", None)  # numpy rejects it beside NPY_ENABLE_CPU_FEATURES
    configs = {label: raw for label, (raw, _) in GOLDEN.items()}
    assert _hashes(configs, tmp_path, env) == {label: digest for label, (_, digest) in GOLDEN.items()}


def test_tail_records_do_not_depend_on_blas_kernel(tmp_path):
    # the tail statistic runs on one BLAS thread and ||A||_F is a correctly rounded fsum, so the
    # host's own kernel and Prescott, the oldest one it can force, give the same bytes
    configs = {"tail": GOLDEN["tail"][0]}
    native = {k: v for k, v in os.environ.items() if k != "OPENBLAS_CORETYPE"}
    prescott = dict(native, OPENBLAS_CORETYPE="Prescott")
    assert _hashes(configs, tmp_path, native) == _hashes(configs, tmp_path, prescott) == {"tail": GOLDEN["tail"][1]}
