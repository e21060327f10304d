import os
import subprocess
import sys
from pathlib import Path

import pytest

import sgipair

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_runs_clean(demo):
    src = str(Path(sgipair.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", str(demo)],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
        cwd=demo.parent,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
