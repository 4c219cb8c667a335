"""``scripts/interleave.py`` runs this checkout against itself."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_interleave_runs_this_checkout_against_itself():
    # A subprocess, so the two renamed packages stay out of this process.
    argv = [
        sys.executable, str(ROOT / "scripts" / "interleave.py"),
        "--parent", str(ROOT), "--change", str(ROOT), "--workload", "presets", "--rounds", "2",
    ]
    done = subprocess.run(argv, capture_output=True, text=True, timeout=300, check=False)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    summary = json.loads(lines[-1])
    assert summary["artifacts_identical"] is True
    assert len(summary["parent_cpu_s"]) == len(summary["change_cpu_s"]) == 2
    assert all(t > 0 for t in summary["parent_cpu_s"] + summary["change_cpu_s"])
    assert [line.split()[2] for line in lines[:2]] == ["first=parent", "first=change"]
    assert lines[2].startswith(f"median paired ratio {summary['median_ratio']:.4f}; ")
