"""rmtlab loads scipy only when a run calls gamma, erf/erfc or quad.

Each test runs in a fresh interpreter, since the test session itself has
scipy loaded long before these tests start.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

# Any later import of scipy or a submodule raises ImportError, in this process
# and so in its pool's worker threads, so the run fails and names the module.
_BLOCK_SCIPY = """
import sys

class _NoScipy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError(f"{name} imported")
        return None

sys.meta_path.insert(0, _NoScipy())
"""

_SCIPY_LOADED = "sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.'))"


def _python(code: str, cwd: Path) -> str:
    # pytest's -W reaches only its own process, so the child is told by the environment that a RuntimeWarning is an error
    env = dict(
        os.environ,
        PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])),
        PYTHONWARNINGS="error::RuntimeWarning",
    )
    result = subprocess.run(
        [sys.executable, "-c", code], cwd=cwd, env=env, capture_output=True, text=True, timeout=300
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


def test_import_leaves_scipy_unloaded(tmp_path):
    out = _python(f"import sys, rmtlab, rmtlab.harness, rmtlab.cli\nprint({_SCIPY_LOADED})", tmp_path)
    assert out.strip() == "[]"


def test_rademacher_runs_leave_scipy_unloaded(tmp_path):
    runs = [
        dict(experiment="localscan", n=60, trials=2, scales=[10.0, 20.0]),
        dict(experiment="deloc", n_grid=[16, 24], trials=2),
        dict(experiment="identities", trials=8),
        dict(experiment="covariance", n=60, p=30, trials=2, scales=[10.0, 20.0]),
        dict(experiment="tail", n=20, trials=200, statistic="quadratic", envelopes=["hw", "esy1"]),
        # three blocks of draws, so both pool workers compute blocks under the BLAS pin
        dict(experiment="tail", n=20, trials=600, statistic="quadratic"),
        dict(experiment="tail", n=20, d=8, trials=600, statistic="projection"),
    ]
    code = (
        _BLOCK_SCIPY
        + f"""
from rmtlab.harness import config_from_dict, run_experiment
for raw in {runs!r}:
    run_experiment(config_from_dict(dict(raw, workers=2)), write=False)
print({_SCIPY_LOADED})
print("numpy.ma" in sys.modules)
"""
    )
    scipy_loaded, ma_loaded = _python(code, tmp_path).splitlines()
    assert scipy_loaded == "[]"
    # identities groups its instances without np.unique(..., axis=0), whose first call imports numpy.ma
    assert ma_loaded == "False"


@pytest.mark.parametrize(
    "raw",
    [
        dict(experiment="pv"),
        dict(
            experiment="tail",
            n=20,
            trials=200,
            dist={"kind": "subexp", "alpha": 0.5},
            envelopes=["subexp", "vw2"],
        ),
    ],
    ids=["pv", "subexp-tail"],
)
def test_records_do_not_depend_on_scipy_import_order(tmp_path, raw):
    written = []
    for first in ("", "import scipy.integrate, scipy.special"):
        out_dir = tmp_path / ("scipy_first" if first else "rmtlab_first")
        code = f"""
{first}
from rmtlab.harness import config_from_dict, run_experiment
report = run_experiment(config_from_dict(dict({raw!r}, out_dir={str(out_dir)!r}, label="run")))
print(report.out_path)
"""
        written.append((Path(_python(code, tmp_path).strip()) / "records.csv").read_bytes())
    assert written[0] == written[1]
    assert written[0].count(b"\n") > 1


def test_pv_quadrature_calls_patched_quad(tmp_path):
    # the benchmark tracer counts quad calls by patching the scipy.integrate module attribute
    code = """
from rmtlab.spectral import pv_semicircle_numeric
import scipy.integrate

calls = []
original = scipy.integrate.quad

def counting(*args, **kwargs):
    calls.append(1)
    return original(*args, **kwargs)

scipy.integrate.quad = counting
value = pv_semicircle_numeric(0.0)
print(len(calls), abs(value))
"""
    calls, value = _python(code, tmp_path).split()
    assert int(calls) > 0
    assert float(value) < 1e-8
