import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


# every demo, so one that still imports a deleted or renamed name fails here
DEMOS = [
    "delocalization_scaling.py",
    "marchenko_pastur.py",
    "exact_identities.py",
    "local_law_scan.py",
    "quadratic_tails.py",
    "semicircle_law.py",
]


@pytest.mark.parametrize("demo", DEMOS)
def test_record_demos_run(demo):
    # pytest's -W reaches only its own process, so the demo is told by the environment that a RuntimeWarning is an error
    env = dict(
        os.environ,
        PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])),
        PYTHONWARNINGS="error::RuntimeWarning",
    )
    result = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)], env=env, capture_output=True, text=True, timeout=300
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout
