"""Each demo script runs to completion against the package in ``src/``.

The demos build TaskSpec, ExecutionRecord, DeviceSnapshot and
ObservableState positionally, which no other test does.  Each runs in a
fresh interpreter from a temporary directory, because 05 writes
``./out_semantic/``.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("0*.py"))


def test_demos_are_found():
    # An empty glob would parametrize test_demo_runs into a skip.
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs(tmp_path, demo):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, str(demo)], cwd=tmp_path, env=env, capture_output=True, text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
