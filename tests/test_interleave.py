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


def test_trace_decisions_writes_and_compares_every_decision_trace(tmp_path):
    lines = run_interleave("--workload", "event_dense", "--horizon", "200", "--trace-decisions")
    summary = json.loads(lines[-1])
    assert summary["trace_decisions"] is True and summary["artifacts_identical"] is True
    assert summary["compared_files"] == sorted(f"exp0/{name}" for name in (*EMITTED, "decisions.log"))

    script = load_script()
    package = script.load_package(ROOT, "edgesched_traced")
    try:
        for traced in (False, True):
            configs = script.build_configs(package, "presets", 1, tmp_path, trace_decisions=traced)
            assert [config.trace_decisions for config in configs] == [traced] * 6
    finally:
        for name in [n for n in sys.modules if n.startswith("edgesched_traced")]:
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


def test_setup_mode_times_fresh_imports_and_writes_nothing():
    lines = run_interleave("--workload", "presets", "--setup")
    summary = json.loads(lines[-1])
    assert summary["setup"] is True and summary["rounds"] == 2
    assert summary["artifacts_identical"] is None and summary["compared_files"] == []
    assert all(t > 0 for t in summary["parent_cpu_s"] + summary["change_cpu_s"])
    assert [line.split()[2] for line in lines[:2]] == ["first=parent", "first=change"]
    assert lines[2].startswith(f"median paired ratio {summary['median_ratio']:.4f}; ")
    assert lines[3] == "set-up writes no files"


def test_a_setup_round_imports_afresh_and_stops_each_experiment_at_its_run(tmp_path):
    script = load_script()
    built = []

    def build(package):
        built.append(package)
        return script.build_configs(package, "presets", 1, tmp_path)

    try:
        for _ in range(2):
            assert script.setup_round(ROOT, "edgesched_setup", build) > 0
        first, second = built
        assert first is not second and sys.modules["edgesched_setup"] is second
        # Engine.run is restored, and no experiment got as far as writing its report.
        assert second.sim.engine.Engine.run.__name__ == "run"
        assert not any(tmp_path.iterdir())
    finally:
        for name in [n for n in sys.modules if n.startswith("edgesched_setup")]:
            del sys.modules[name]
