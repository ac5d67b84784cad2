import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

# every demo on disk, so one that still imports a deleted or renamed name, or a new one, runs here
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def _run_python(args):
    """Run ``python args`` in a fresh interpreter on the source tree, a RuntimeWarning an error."""
    # pytest's -W reaches only its own process, so the child is told by the environment that a RuntimeWarning is an error
    env = dict(
        os.environ,
        PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])),
        PYTHONWARNINGS="error::RuntimeWarning",
    )
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("demo", DEMOS, ids=[path.name for path in DEMOS])
def test_record_demos_run(demo):
    result = _run_python([str(demo)])
    assert result.returncode == 0, result.stderr
    assert result.stdout


def test_readme_quick_start_runs():
    # the Python block under README's "## Quick start", so a snippet that names a deleted or renamed function fails
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Quick start", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    result = _run_python(["-c", block])
    assert result.returncode == 0, result.stderr
    assert result.stdout
