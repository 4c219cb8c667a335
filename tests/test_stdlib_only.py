"""The package runs on the standard library alone.

The test extras pull in third-party packages, so an accidental runtime
import would still pass every other test.  Here a fresh interpreter started
with ``-S`` (no site-packages, no ``.pth`` hooks) runs a small experiment
and lists every top-level module it loaded.
"""

import json
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

PROBE = """
import json, sys
sys.path.insert(0, sys.argv[1])
from edgesched.cli import main
argv = ["run", "--scenario", "semantic", "--horizon", "40", "--trace-decisions"]
code = main(argv + ["--out", sys.argv[2]])
loaded = {name.partition(".")[0] for name in sys.modules}
print(json.dumps({"code": code, "loaded": sorted(loaded)}))
"""


def test_a_run_loads_only_stdlib_modules(tmp_path):
    done = subprocess.run(
        [sys.executable, "-S", "-c", PROBE, str(SRC), str(tmp_path / "out")],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["code"] == 0
    assert "edgesched" in result["loaded"]
    allowed = set(sys.stdlib_module_names) | {"edgesched", "__main__"}
    assert [name for name in result["loaded"] if name not in allowed] == []
