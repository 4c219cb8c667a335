"""``scripts/interleave.py`` runs this checkout against itself."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# Every file emit_report writes for one experiment, without a decision trace.
EMITTED = (
    "audit.log", "events.log", "opm_snapshot.txt", "report.json", "trajectory_e3.csv",
    "trajectory_fixed_heuristic.csv", "trajectory_oracle.csv", "trajectory_round_robin.csv",
)


def run_interleave(*extra):
    # A subprocess, so the two renamed packages stay out of this process.
    argv = [
        sys.executable, str(ROOT / "scripts" / "interleave.py"),
        "--parent", str(ROOT), "--change", str(ROOT), "--rounds", "2", *extra,
    ]
    done = subprocess.run(argv, capture_output=True, text=True, timeout=300, check=False)
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()


def load_script():
    spec = importlib.util.spec_from_file_location("interleave_script", ROOT / "scripts" / "interleave.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_interleave_runs_this_checkout_against_itself():
    lines = run_interleave("--workload", "presets")
    summary = json.loads(lines[-1])
    assert summary["artifacts_identical"] is True and summary["first_difference"] is None
    assert summary["compared_files"] == [f"exp{i}/{name}" for i in range(6) for name in EMITTED]
    assert len(summary["parent_cpu_s"]) == len(summary["change_cpu_s"]) == 2
    assert all(t > 0 for t in summary["parent_cpu_s"] + summary["change_cpu_s"])
    assert [line.split()[2] for line in lines[:2]] == ["first=parent", "first=change"]
    assert lines[2].startswith(f"median paired ratio {summary['median_ratio']:.4f}; ")
    assert lines[3] == f"all {6 * len(EMITTED)} written files identical"


def test_horizon_and_lam_override_every_experiment(tmp_path):
    lines = run_interleave("--workload", "event_dense", "--horizon", "400", "--lam", "2.0")
    summary = json.loads(lines[-1])
    assert (summary["horizon"], summary["lam"]) == (400, 2.0)
    assert summary["artifacts_identical"] is True
    assert summary["compared_files"] == [f"exp0/{name}" for name in EMITTED]

    script = load_script()
    package = script.load_package(ROOT, "edgesched_override")
    try:
        (config,) = script.build_configs(package, "event_dense", 1, tmp_path, horizon=400, lam=2.0)
        assert (config.horizon, config.lam) == (400, 2.0)
        # The plan is built for the overridden horizon: its last window closes before it.
        assert 0 < max(event.at_task for event in config.plan.events) < 400
        for config in script.build_configs(package, "presets", 1, tmp_path, horizon=120):
            assert (config.horizon, config.lam) == (120, 0.5)
    finally:
        for name in [n for n in sys.modules if n.startswith("edgesched_override")]:
            del sys.modules[name]


def test_the_first_differing_file_is_named():
    script = load_script()
    parent = {"exp0/audit.log": "a", "exp0/report.json": "b", "exp1/report.json": "c"}
    assert script.first_difference(parent, dict(parent)) is None
    assert script.first_difference(parent, {**parent, "exp1/report.json": "x"}) == "exp1/report.json"
    assert script.first_difference(parent, {**parent, "exp0/events.log": "d"}) == "exp0/events.log"
    missing = dict(parent)
    del missing["exp0/audit.log"]
    assert script.first_difference(parent, missing) == "exp0/audit.log"
