"""Each walkthrough in demos/ runs to completion against the package."""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import mixident

DEMOS = Path(__file__).resolve().parent.parent / "demos"
SRC = Path(mixident.__file__).resolve().parent.parent


@pytest.mark.parametrize("demo", sorted(p.name for p in DEMOS.glob("0*.py")))
def test_demo_runs(demo, tmp_path):
    # a copy runs in tmp_path, so whatever the demo writes stays out of the checkout
    script = shutil.copy(DEMOS / demo, tmp_path)
    done = subprocess.run(
        [sys.executable, script], cwd=tmp_path, capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(SRC)}, timeout=120,
    )
    assert done.returncode == 0, done.stderr
