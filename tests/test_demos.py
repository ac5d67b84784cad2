import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


# the demos that read delocalization records or call the identity kernels, so a change to either reaches them
@pytest.mark.parametrize("demo", ["delocalization_scaling.py", "marchenko_pastur.py", "exact_identities.py"])
def test_record_demos_run(demo):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    result = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)], env=env, capture_output=True, text=True, timeout=300
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout
