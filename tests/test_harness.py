"""Metrics pipeline, report emission, experiment wiring, CLI."""

import json
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest

import edgesched
from conftest import slot_values
from edgesched.cli import _ADAPTER_FLAGS as cli_adapter_flags
from edgesched.cli import _FILE_KEYS as cli_file_keys
from edgesched.cli import _build_parser as cli_parser
from edgesched.cli import _merge as cli_merge
from edgesched.cli import main as cli_main
from edgesched.harness import (
    ExperimentConfig,
    ExperimentError,
    PolicyMetrics,
    compute_metrics,
    emit_report,
    run_experiment,
    smooth_ma,
)
from edgesched.metacontrol import AdapterConfig
from edgesched.profiles import LLM, default_profiles_path
from edgesched.sim.engine import Engine, ExecutionRecord
from edgesched.sim.truth import GroundTruthState, PlanError, ScenarioPlan, builtin_plans, plan_from_dicts
from edgesched.sim.workload import generate_workload


def record(task_id, latency, stutter=0, device=0):
    """Arrival and start at 0.0: the record's latency and service are ``latency``."""
    return ExecutionRecord(
        task_id=task_id,
        device_id=device,
        kind=LLM,
        arrival_time=0.0,
        dispatch_time=0.0,
        start_time=0.0,
        completion_time=latency,
        n_in=256,
        n_out=32,
        stutter=stutter,
    )


# --- moving average -------------------------------------------------------------


def means(series, window=20):
    """Every point's moving average: smooth_ma's rows sampled at every point."""
    return [ma for _k, _raw, ma in smooth_ma(series, window)]


def test_ma_constant_series_unchanged():
    assert means([5.0] * 30) == [5.0] * 30


def test_ma_example_first_two():
    out = means([0.0, 20.0])
    assert out[1] == 10.0


def test_ma_window_one_is_identity():
    series = [3.0, 1.0, 4.0, 1.0, 5.0]
    assert means(series, window=1) == series


def test_ma_window_covers_last_twenty():
    series = [float(i) for i in range(40)]
    out = means(series, window=20)
    assert out[39] == pytest.approx(sum(range(20, 40)) / 20)
    assert len(out) == len(series)


def test_ma_rejects_bad_window():
    with pytest.raises(ValueError):
        smooth_ma([1.0], window=0)


# --- metric arithmetic ------------------------------------------------------------


def test_vs_oracle_formula_simple():
    policy_records = [record(0, 100.0), record(1, 200.0)]
    oracle_records = [record(0, 80.0), record(1, 120.0)]
    metrics = compute_metrics({"x": policy_records, "oracle": oracle_records}, oracle_records)
    assert metrics["x"].avg_latency_ms == pytest.approx(150.0)
    assert metrics["x"].vs_oracle_pct == pytest.approx(50.0)
    assert metrics["oracle"].vs_oracle_pct == 0.0


def test_vs_oracle_reproduces_published_ratio():
    # avg 19475.24 over oracle 5018.93 rounds to +288.04%.
    policy_records = [record(0, 19475.24)]
    oracle_records = [record(0, 5018.93)]
    metrics = compute_metrics({"x": policy_records}, oracle_records)
    assert round(metrics["x"].vs_oracle_pct, 2) == 288.04


def test_stutter_rate_is_fraction_of_tasks():
    records = [record(0, 10.0, stutter=1), record(1, 10.0), record(2, 10.0, stutter=1), record(3, 10.0)]
    metrics = compute_metrics({"x": records}, records)
    assert metrics["x"].stutter_rate == pytest.approx(0.5)


def test_mismatched_task_coverage_is_an_error():
    with pytest.raises(ExperimentError, match="must match"):
        compute_metrics({"x": [record(0, 1.0)]}, [record(0, 1.0), record(1, 2.0)])


def test_metric_algebra_matches_independent_recomputation():
    rng = random.Random(2)
    oracle_records = [record(i, rng.uniform(50, 500)) for i in range(50)]
    policy_records = [record(i, rng.uniform(100, 2000)) for i in range(50)]
    metrics = compute_metrics({"p": policy_records}, oracle_records)
    avg = sum(r.latency_ms for r in policy_records) / 50
    oracle_avg = sum(r.latency_ms for r in oracle_records) / 50
    expected = (avg / oracle_avg - 1.0) * 100.0
    assert metrics["p"].vs_oracle_pct == pytest.approx(expected, rel=1e-9)


def test_trajectory_sampling_and_prefix():
    records = [record(i, float(i)) for i in range(30)]
    metrics = compute_metrics({"p": records}, records, prefix_end=10)
    ks = [k for k, _raw, _ma in metrics["p"].trajectory]
    assert ks == [10, 15, 20, 25]
    k, raw, ma = metrics["p"].trajectory[0]
    assert raw == 10.0
    assert ma == pytest.approx(sum(range(11)) / 11)


# --- experiment wiring --------------------------------------------------------------


def test_run_experiment_reports_requested_policies(tmp_path):
    config = ExperimentConfig(
        scenario="warmup",
        warmup_budget=0,
        horizon=20,
        policies=("e3", "oracle"),
        out_dir=tmp_path / "out",
    )
    result = run_experiment(config)
    assert set(result.report.policies) == {"e3", "oracle"}
    assert result.report.policies["oracle"].vs_oracle_pct == 0.0
    assert (tmp_path / "out" / "report.json").exists()


def test_oracle_run_implicit_when_not_requested():
    config = ExperimentConfig(scenario="warmup", horizon=10, policies=("round_robin",))
    result = run_experiment(config)
    assert set(result.report.policies) == {"round_robin"}
    assert result.report.policies["round_robin"].vs_oracle_pct != 0.0


def test_zero_horizon_empty_report(tmp_path):
    config = ExperimentConfig(scenario="warmup", horizon=0, out_dir=tmp_path / "out")
    result = run_experiment(config)
    assert result.report.policies == {}
    payload = json.loads((tmp_path / "out" / "report.json").read_text())
    assert payload["policies"] == {}
    assert not list((tmp_path / "out").glob("trajectory_*.csv"))


def test_all_policies_share_workload_and_plan(tmp_path):
    config = ExperimentConfig(scenario="churn", horizon=40)
    result = run_experiment(config)
    ids = {name: sorted(r.task_id for r in run.records) for name, run in result.runs.items()}
    reference = ids["oracle"]
    assert all(v == reference for v in ids.values())
    assert len(result.report.workload_sha256) == 64


def test_unknown_policy_and_scenario_rejected():
    with pytest.raises(ExperimentError, match="unknown policy"):
        ExperimentConfig(scenario="warmup", policies=("greedy",))
    with pytest.raises(ExperimentError, match="unknown scenario"):
        ExperimentConfig(scenario="bogus")


@pytest.mark.parametrize("policies", ["e3", "e3,oracle", {"e3"}, None])
def test_policies_must_be_a_tuple_or_list(policies):
    with pytest.raises(ExperimentError, match="policies must be a tuple or list of policy names, got "):
        ExperimentConfig(scenario="semantic", policies=policies)


def test_adapter_must_be_an_adapter_config():
    # A dict once ran, and every invocation fell back to the scripted policy.
    with pytest.raises(ExperimentError, match=r"^adapter must be None or an AdapterConfig, got \{'url': 'u'\}$"):
        ExperimentConfig(scenario="semantic", adapter={"url": "u"})


def test_adapter_transport_must_be_a_callable():
    # A string once ran, and every invocation logged "adapter failed ('str'
    # object is not callable)" and fell back to the scripted policy.
    with pytest.raises(ExperimentError, match="^adapter_transport must be None or a callable, got 'x'$"):
        ExperimentConfig(
            scenario="semantic", horizon=120, policies=("e3",), adapter=AdapterConfig(url="u"),
            adapter_transport="x",
        )


@pytest.mark.parametrize("value", [5, True, b"p"], ids=["int", "bool", "bytes"])
@pytest.mark.parametrize("field", ["out_dir", "profiles_path"])
def test_path_fields_must_be_a_str_or_a_path_like(monkeypatch, field, value):
    # out_dir=5 once ran every policy and then failed in emit_report with a
    # bare TypeError; profiles_path=5 failed the same way in load_profiles.
    runs = []
    engine_run = Engine.run
    monkeypatch.setattr(Engine, "run", lambda self: runs.append(self) or engine_run(self))
    message = f"{field} must be None or a non-empty str or an os.PathLike, got {value!r}"
    with pytest.raises(ExperimentError, match=f"^{re.escape(message)}$"):
        run_experiment(ExperimentConfig(scenario="semantic", horizon=10, **{field: value}))
    assert runs == []


@pytest.mark.parametrize("field", ["out_dir", "profiles_path"])
def test_path_fields_must_not_be_empty(monkeypatch, tmp_path, field):
    # out_dir="" once wrote every artifact into the current directory, and
    # profiles_path="" silently loaded the shipped profiles.
    monkeypatch.chdir(tmp_path)
    runs = []
    engine_run = Engine.run
    monkeypatch.setattr(Engine, "run", lambda self: runs.append(self) or engine_run(self))
    message = f"{field} must be None or a non-empty str or an os.PathLike, got ''"
    with pytest.raises(ExperimentError, match=f"^{re.escape(message)}$"):
        run_experiment(ExperimentConfig(scenario="semantic", horizon=10, **{field: ""}))
    flag = {"out_dir": "--out", "profiles_path": "--profiles"}[field]
    assert cli_main(["run", "--scenario", "semantic", "--horizon", "10", flag, ""]) == 1
    assert runs == [] and list(tmp_path.iterdir()) == []


def test_path_fields_take_a_str_or_a_path(tmp_path):
    profiles = default_profiles_path()
    for i, (out, profiles_path) in enumerate(
        [(str(tmp_path / "a"), str(profiles)), (tmp_path / "b", Path(profiles))]
    ):
        config = ExperimentConfig(scenario="semantic", horizon=10, out_dir=out, profiles_path=profiles_path)
        assert config.out_dir == out and config.profiles_path == profiles_path
        run_experiment(config)
        assert (Path(out) / "report.json").is_file(), i


@pytest.mark.parametrize("plan", ["x", [], ()])
def test_plan_must_be_a_scenario_plan(plan):
    message = f"plan must be None or a ScenarioPlan, got {plan!r}"
    with pytest.raises(ExperimentError, match=f"^{re.escape(message)}$"):
        ExperimentConfig(scenario="semantic", plan=plan)


def test_emit_report_is_byte_stable(tmp_path):
    config = ExperimentConfig(scenario="warmup", warmup_budget=0, horizon=30)
    result = run_experiment(config)
    out = tmp_path / "out"
    emit_report(result, out)
    first = {p.name: p.read_bytes() for p in out.iterdir()}
    emit_report(result, out)
    second = {p.name: p.read_bytes() for p in out.iterdir()}
    assert first == second
    assert "report.json" in first
    assert "events.log" in first
    assert "audit.log" in first


def test_emit_report_writes_one_trajectory_per_policy(tmp_path):
    config = ExperimentConfig(scenario="warmup", warmup_budget=0, horizon=30, out_dir=tmp_path)
    run_experiment(config)
    names = sorted(p.name for p in tmp_path.glob("trajectory_*.csv"))
    assert names == [
        "trajectory_e3.csv",
        "trajectory_fixed_heuristic.csv",
        "trajectory_oracle.csv",
        "trajectory_round_robin.csv",
    ]
    lines = (tmp_path / "trajectory_e3.csv").read_text().splitlines()
    assert lines[0] == "task_index,latency_ms,ma20_ms"
    assert lines[1].startswith("0,")


def test_semantic_audit_contains_risk_overrides(tmp_path):
    config = ExperimentConfig(scenario="semantic", horizon=300, policies=("e3",))
    result = run_experiment(config)
    risky = [e for e in result.audit.entries if e.tool == "set_device_risky"]
    assert len(risky) >= 5  # one per semantic window


def test_event_log_lines_have_expected_shape():
    config = ExperimentConfig(scenario="churn", horizon=40)
    result = run_experiment(config)
    assert result.event_log
    for line in result.event_log:
        parts = line.split()
        assert len(parts) == 5
        int(parts[0])
        float(parts[1])


# --- CLI --------------------------------------------------------------------------------


def test_cli_run_writes_artifacts(tmp_path, capsys):
    out = tmp_path / "cli_out"
    code = cli_main(
        [
            "run",
            "--scenario",
            "warmup",
            "--warmup",
            "0",
            "--horizon",
            "20",
            "--policies",
            "e3,oracle",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    captured = capsys.readouterr()
    assert "oracle" in captured.out
    assert (out / "report.json").exists()


def test_cli_module_runs_as_a_program(tmp_path):
    """`python -m edgesched.cli` in a subprocess: a run writes its report and
    exits 0; a rate outside the contract exits 1 with one error line."""
    src = str(Path(edgesched.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}

    def run(*flags):
        argv = [sys.executable, "-m", "edgesched.cli", "run", "--scenario", "semantic", "--horizon", "40", *flags]
        return subprocess.run(argv, capture_output=True, text=True, env=env, timeout=120)

    out = tmp_path / "out"
    done = run("--out", str(out))
    assert done.returncode == 0, done.stderr
    assert json.loads((out / "report.json").read_text())["horizon"] == 40
    failed = run("--lambda", "nan", "--out", str(tmp_path / "nan"))
    assert failed.returncode == 1
    assert failed.stderr.startswith("error: ") and failed.stderr.count("\n") == 1, failed.stderr
    assert not (tmp_path / "nan").exists()


def test_cli_rejects_unknown_policy(tmp_path, capsys):
    code = cli_main(
        ["run", "--scenario", "warmup", "--horizon", "10", "--policies", "nope"]
    )
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_cli_config_file_with_flag_override(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        json.dumps(
            {
                "scenario": "warmup",
                "warmup": 0,
                "horizon": 50,
                "policies": "round_robin,oracle",
            }
        )
    )
    out = tmp_path / "out"
    code = cli_main(
        ["run", "--config", str(cfg), "--horizon", "10", "--out", str(out)]
    )
    assert code == 0
    payload = json.loads((out / "report.json").read_text())
    assert payload["horizon"] == 10  # flag overrides the config file
    assert set(payload["policies"]) == {"round_robin", "oracle"}


def test_cli_custom_plan_from_config(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        json.dumps(
            {
                "scenario": "semantic",
                "horizon": 30,
                "policies": "oracle",
                "plan": [
                    {"type": "semantic_onset", "at_task": 5, "device": 0, "label": "game", "factor": 2.0},
                    {"type": "semantic_offset", "at_task": 10, "device": 0, "label": "game"},
                ],
            }
        )
    )
    out = tmp_path / "out"
    code = cli_main(["run", "--config", str(cfg), "--out", str(out)])
    assert code == 0
    events = (out / "events.log").read_text().splitlines()
    assert any("semantic_onset" in line for line in events)
    assert len(events) == 2


@pytest.mark.parametrize("jitter", [float("nan"), float("inf"), True, -0.1, 1.0])
def test_jitter_outside_its_contract_is_rejected(tmp_path, jitter):
    with pytest.raises(ValueError, match=r"service_jitter must be a finite number in \[0, 1\)"):
        run_experiment(ExperimentConfig(scenario="drift", horizon=60, service_jitter=jitter))
    if isinstance(jitter, float):
        out = tmp_path / "out"
        argv = ["run", "--scenario", "drift", "--horizon", "60", "--jitter", str(jitter), "--out", str(out)]
        assert cli_main(argv) == 1
        assert not (out / "report.json").exists()


NAN, INF = float("nan"), float("inf")
HUGE = 10**400  # an int too large for a float


@pytest.mark.parametrize(
    "fields, error, message",
    [
        ({"horizon": 0, "service_jitter": NAN}, ValueError, r"service_jitter must be a finite number in \[0, 1\)"),
        ({"lam": NAN}, ExperimentError, "lambda must be a finite number > 0"),
        ({"lam": INF}, ExperimentError, "lambda must be a finite number > 0"),
        ({"lam": True}, ExperimentError, "lambda must be a finite number > 0"),
        ({"lam": HUGE}, ExperimentError, "lambda must be a finite number > 0"),
        ({"service_jitter": HUGE}, ValueError, r"service_jitter must be a finite number in \[0, 1\)"),
        ({"horizon": True}, ExperimentError, "horizon must be an int >= 0, got True"),
        ({"horizon": 30.0}, ExperimentError, "horizon must be an int >= 0, got 30.0"),
        ({"warmup_budget": True}, ExperimentError, "warmup_budget must be an int, got True"),
        ({"horizon": -1}, ExperimentError, "horizon must be an int >= 0, got -1"),
        ({"horizon": 10, "warmup_budget": 11}, ExperimentError,
         r"warmup_budget must be within \[0, horizon=10\], got 11"),
        ({"warmup_budget": -1}, ExperimentError, r"warmup_budget must be within \[0, horizon=300\], got -1"),
    ],
    ids=["jitter_nan_h0", "lam_nan", "lam_inf", "lam_bool", "lam_huge_int", "jitter_huge_int",
         "horizon_bool", "horizon_float", "warmup_bool",
         "horizon_negative", "warmup_above_horizon", "warmup_negative"],
)
def test_numeric_config_fields_are_checked_for_every_horizon(fields, error, message):
    with pytest.raises(error, match=message):
        ExperimentConfig(scenario="drift", **fields)


@pytest.mark.parametrize(
    "prior_error",
    [{0: NAN}, {0: (2.0, INF)}, {0: -1.0}, {0: "x"}, {0: True}, {0: [2.0, 2.0]}, {0: (2.0,)},
     {"0": 2.0}, [(0, 2.0)], {0: HUGE}],
    ids=["nan", "pair_inf", "negative", "str", "bool", "list_pair", "short_pair", "str_key", "not_a_dict",
         "huge_int"],
)
def test_prior_error_is_checked_before_the_run(fixture_priors, prior_error):
    message = "prior_error must map device ids to a finite number > 0 or a pair of them"
    with pytest.raises(ValueError, match=message):
        ExperimentConfig(scenario="drift", horizon=60, prior_error=prior_error)
    with pytest.raises(ValueError, match=message):
        GroundTruthState(fixture_priors, prior_error=prior_error)


@pytest.mark.parametrize("key", ["²", "-1", "x"])
def test_config_file_prior_error_key_must_be_a_device_id(tmp_path, capsys, key):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"scenario": "drift", "horizon": 30, "prior_error": {key: 2.0}}))
    assert cli_main(["run", "--config", str(cfg)]) == 1
    assert "prior_error must map device ids" in capsys.readouterr().err


def test_events_past_the_last_arrival_change_no_record():
    # The semantic plan starts at task 60: at H=60 every event fires after
    # the last completion, at the clock that completion left.
    def run(plan):
        return run_experiment(ExperimentConfig(scenario="semantic", horizon=60, lam=2.0, plan=plan))

    planned, empty = run(None), run(ScenarioPlan(()))
    events = builtin_plans("semantic").events
    for name, sim in planned.runs.items():
        assert sim.records == empty.runs[name].records, name
        last = max(r.completion_time for r in sim.records)
        assert sim.event_log == [f"{e.at_task} {last:.0f} {e.type} {e.device} {e.label}" for e in events]


def test_prior_error_pair_is_rejected_only_on_a_diffusion_device(fixture_priors):
    with pytest.raises(ValueError, match="device 2 is the pair .* diffusion device takes one factor"):
        GroundTruthState(fixture_priors, prior_error={2: (2.0, 5.0)})
    with pytest.raises(ValueError, match="device 2 is the pair"):  # even when no task runs
        run_experiment(ExperimentConfig(scenario="semantic", horizon=0, prior_error={2: (2.0, 5.0)}))
    truth = GroundTruthState(fixture_priors, prior_error={0: (2.0, 5.0)})
    assert (truth.devices[0].alpha, truth.devices[0].beta) == (2.0, 250.0)


def test_prior_error_naming_a_device_outside_the_pool_fails_before_the_run(monkeypatch):
    # Such a factor was once dropped without a word and the run went on.
    runs = []
    engine_run = Engine.run
    monkeypatch.setattr(Engine, "run", lambda self: runs.append(self) or engine_run(self))
    message = "prior_error names device 7, which is not in the pool; its devices are [0, 1, 2, 3]"
    for horizon in (0, 10):  # even when no task runs
        config = ExperimentConfig("warmup", horizon=horizon, policies=("oracle",), prior_error={0: 2.0, 7: 2.0})
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            run_experiment(config)
    assert runs == []


@pytest.mark.parametrize("scenario", ["semantic", "churn", "drift"])
def test_dynamic_scenarios_reject_a_warmup_budget(tmp_path, capsys, scenario):
    with pytest.raises(ExperimentError, match="50-task settling prefix"):
        ExperimentConfig(scenario=scenario, warmup_budget=30)
    out = tmp_path / "out"
    assert cli_main(["run", "--scenario", scenario, "--warmup", "100", "--out", str(out)]) == 1
    assert "50-task settling prefix" in capsys.readouterr().err
    assert not (out / "report.json").exists()


@pytest.mark.parametrize(
    "flags",
    [["--lambda", "nan"], ["--lambda", "inf"], ["--horizon", "0", "--jitter", "nan"]],
    ids=["lambda_nan", "lambda_inf", "horizon0_jitter_nan"],
)
def test_cli_rejects_non_finite_numbers_before_writing(tmp_path, flags):
    out = tmp_path / "out"
    assert cli_main(["run", "--scenario", "drift", "--horizon", "30", *flags, "--out", str(out)]) == 1
    assert not (out / "report.json").exists()


@pytest.mark.parametrize("lam", ["1e-306", "1e-303"])
def test_cli_rejects_a_rate_too_slow_for_a_float_clock(tmp_path, capsys, lam):
    # 1e-306 once failed as "completes at nan"; 1e-303 once reported a
    # latency in which the service times had vanished into the arrival times.
    out = tmp_path / "out"
    assert cli_main(["run", "--scenario", "semantic", "--horizon", "20", "--lambda", lam, "--out", str(out)]) == 1
    assert "lambda must put the last arrival, (horizon - 1) * 1000/lambda ms, below 2**53 ms" in capsys.readouterr().err
    assert not (out / "report.json").exists()


def test_cli_rejects_a_horizon_past_the_largest_float(tmp_path, capsys):
    # A 400-digit horizon once ended in an OverflowError traceback, then in a
    # message that blamed lambda and printed all 401 digits.
    out = tmp_path / "out"
    assert cli_main(["run", "--scenario", "warmup", "--horizon", "1" + "0" * 400, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err == "error: horizon must be at most MAX_HORIZON = 10**7 tasks, got about 10**400\n"
    assert not out.exists()


@pytest.mark.parametrize("lam", [NAN, INF, -INF, True, 0.0])
def test_generate_workload_rejects_a_rate_outside_its_contract(lam):
    with pytest.raises(ValueError, match="lambda must be a finite number > 0"):
        generate_workload(10, lam)


def test_plan_naming_a_missing_device_fails_before_the_run(tmp_path):
    rows = [
        {"type": "device_leave", "at_task": 5, "device": 9},
        {"type": "device_return", "at_task": 10, "device": 9},
    ]
    with pytest.raises(PlanError, match="device 9"):
        run_experiment(ExperimentConfig(scenario="churn", horizon=30, plan=plan_from_dicts(rows)))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"scenario": "churn", "horizon": 30, "plan": rows}))
    assert cli_main(["run", "--config", str(cfg)]) == 1


@pytest.mark.parametrize(
    "field, message",
    [
        ({"horizon": True}, "horizon must be an int >= 0, got True"),
        ({"horizon": 2.5}, "horizon must be an int >= 0, got 2.5"),
        ({"horizon": "10"}, "horizon must be an int >= 0, got '10'"),
        ({"lambda": True}, "lambda must be a finite number > 0, got True"),
        ({"lambda": HUGE}, f"lambda must be a finite number > 0, got {HUGE}"),
        ({"trace_decisions": "no"}, "trace_decisions must be a bool, got 'no'"),
        ({"policies": 5}, "policies must be a comma-separated string or list, got 5"),
        ({"prior_error": [1]}, "prior_error must map device ids to a finite number > 0 or a pair"),
        ({"prior_error": {"0": [1.0]}}, "prior_error must map device ids to a finite number > 0"),
        ({"prior_error": {"0": True}}, "prior_error must map device ids to a finite number > 0"),
        ({"prior_error": {"2": [2.0, 5.0]}},
         "error: prior_error for device 2 is the pair (2.0, 5.0), but a diffusion device takes one factor\n"),
        ({"policies": []}, "error: policies must name at least one of "
                           "['e3', 'fixed_heuristic', 'oracle', 'round_robin']\n"),
        ({"policies": ","}, "error: policies must name at least one of "),
    ],
    ids=["horizon_bool", "horizon_float", "horizon_str", "lambda_bool", "lambda_huge_int", "trace_str",
         "policies_int", "prior_error_list", "prior_error_short_pair", "prior_error_bool",
         "prior_error_pair_on_sdxl", "policies_empty_list", "policies_empty_string"],
)
def test_config_file_values_are_checked_as_written(tmp_path, capsys, field, message):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"scenario": "drift", "horizon": 30, "policies": "oracle", **field}))
    out = tmp_path / "out"
    assert cli_main(["run", "--config", str(cfg), "--out", str(out)]) == 1
    assert message in capsys.readouterr().err
    assert not (out / "report.json").exists()


ADAPTER_URL = "http://127.0.0.1:9/v1"  # never contacted: every row fails before the run


@pytest.mark.parametrize(
    "field, message",
    [
        ({"plan": 5}, "a plan must be a list of event objects, got 5"),
        ({"plan": [5]}, "a plan row must be an object, got 5"),
        ({"profiles": 5}, "profiles_path must be None or a non-empty str or an os.PathLike, got 5"),
        ({"out": 5}, "out_dir must be None or a non-empty str or an os.PathLike, got 5"),
        ({"adapter": 5}, "adapter must be an object, got 5"),
        ({"adapter": {"url": ADAPTER_URL, "timeout_s": "a"}}, "timeout_s must be a finite number > 0, got 'a'"),
        ({"adapter": {"url": ADAPTER_URL, "timeout_s": True}}, "timeout_s must be a finite number > 0, got True"),
        ({"adapter": {"url": ADAPTER_URL, "timeout_s": NAN}}, "timeout_s must be a finite number > 0, got nan"),
        ({"adapter": {"url": ADAPTER_URL, "timeout_s": 0}}, "timeout_s must be a finite number > 0, got 0"),
        ({"adapter": {"url": 5}}, "adapter url must be a non-empty string, got 5"),
        ({"adapter": {"url": ADAPTER_URL, "model": 5}}, "adapter model must be a string, got 5"),
        ({"adapter": {"url": ADAPTER_URL, "api_key_env": ""}},
         "adapter api_key_env must be a non-empty string, got ''"),
        ({"adapter": {"url": ADAPTER_URL, "api_key_env": ["KEY"]}},
         "adapter api_key_env must be a non-empty string, got ['KEY']"),
    ],
    ids=["plan_int", "plan_row_int", "profiles_int", "out_int", "adapter_int",
         "timeout_str", "timeout_bool", "timeout_nan", "timeout_zero",
         "url_int", "model_int", "api_key_env_empty", "api_key_env_list"],
)
def test_config_file_values_of_the_wrong_type_are_rejected(tmp_path, capsys, field, message):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"scenario": "drift", "horizon": 30, "policies": "oracle", **field}))
    assert cli_main(["run", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert message in err


@pytest.mark.parametrize("timeout_s", [0, -1.0, NAN, INF, True, "10"])
def test_adapter_timeout_outside_its_contract_is_rejected(tmp_path, timeout_s):
    with pytest.raises(ValueError, match="timeout_s must be a finite number > 0"):
        AdapterConfig(url=ADAPTER_URL, timeout_s=timeout_s)
    if isinstance(timeout_s, float):
        out = tmp_path / "out"
        argv = ["run", "--scenario", "drift", "--horizon", "30", "--policies", "oracle",
                "--adapter-url", ADAPTER_URL, "--adapter-timeout", str(timeout_s), "--out", str(out)]
        assert cli_main(argv) == 1
        assert not (out / "report.json").exists()


@pytest.mark.parametrize(
    "field, message",
    [
        ({"url": ""}, "adapter url must be a non-empty string, got ''"),
        ({"url": [ADAPTER_URL]}, f"adapter url must be a non-empty string, got {[ADAPTER_URL]!r}"),
        ({"url": None}, "adapter url must be a non-empty string, got None"),
        ({"model": 5}, "adapter model must be a string, got 5"),
        ({"api_key_env": ""}, "adapter api_key_env must be a non-empty string, got ''"),
        ({"api_key_env": None}, "adapter api_key_env must be a non-empty string, got None"),
    ],
)
def test_adapter_fields_outside_their_contract_are_rejected(field, message):
    with pytest.raises(ValueError) as info:
        AdapterConfig(**{"url": ADAPTER_URL, **field})
    assert str(info.value) == message


def test_config_file_int_lambda_is_reported_as_a_float(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"scenario": "drift", "horizon": 30, "policies": "oracle", "lambda": 2}))
    out = tmp_path / "out"
    assert cli_main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    assert '"lambda": 2.0' in (out / "report.json").read_text()


@pytest.mark.parametrize(
    "field, message",
    [
        ({"horizn": 30}, "unknown config key 'horizn'; accepted keys: adapter, horizon,"),
        ({"adapter": {"url": ADAPTER_URL, "timeout": 1}},
         "unknown adapter key 'timeout'; accepted keys: url, model, api_key_env, timeout_s"),
        ({"risk_penalty_ms": 1}, "unknown config key 'risk_penalty_ms'; accepted keys: adapter,"),
    ],
    ids=["top_level", "adapter", "risk_penalty_ms"],
)
def test_config_file_unknown_keys_are_rejected(tmp_path, capsys, field, message):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"scenario": "drift", "horizon": 30, "policies": "oracle", **field}))
    out = tmp_path / "out"
    assert cli_main(["run", "--config", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert message in err
    assert not (out / "report.json").exists()


FILE_ADAPTER = {"url": ADAPTER_URL, "model": "file-model", "api_key_env": "FILE_KEY", "timeout_s": 3.0}
FLAG_VALUES = {"url": ADAPTER_URL + "/flag", "model": "flag-model", "api_key_env": "FLAG_KEY", "timeout_s": 7.0}


def adapter_argv(tmp_path, adapter, flags):
    """``run`` argv over a config file holding ``adapter`` (or none), plus one
    flag per ``flags`` field, named from the CLI's adapter flag table."""
    argv = ["run", "--scenario", "drift", "--horizon", "30", "--policies", "oracle"]
    if adapter is not None:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"adapter": adapter}))
        argv += ["--config", str(cfg)]
    for key, value in flags.items():
        argv += ["--" + cli_adapter_flags[key].replace("_", "-"), str(value)]
    return argv


@pytest.mark.parametrize("key", [None, *FLAG_VALUES])
@pytest.mark.parametrize("in_file", [True, False], ids=["file", "no_file"])
def test_each_adapter_flag_wins_over_its_file_field(tmp_path, key, in_file):
    """A flag overrides its own field of the file's adapter object; the other
    fields come from the file, or else from AdapterConfig's defaults."""
    flags = {} if key is None else {key: FLAG_VALUES[key]}
    if not in_file and key != "url":
        flags["url"] = ADAPTER_URL
    config = cli_merge(cli_parser().parse_args(adapter_argv(tmp_path, FILE_ADAPTER if in_file else None, flags)))
    assert slot_values(config.adapter) == slot_values(AdapterConfig(**{**(FILE_ADAPTER if in_file else {}), **flags}))


def test_no_adapter_setting_builds_no_adapter(tmp_path):
    assert cli_merge(cli_parser().parse_args(adapter_argv(tmp_path, None, {}))).adapter is None
    assert cli_merge(cli_parser().parse_args(adapter_argv(tmp_path, {}, {}))).adapter is None


@pytest.mark.parametrize(
    "adapter, flags, message",
    [
        (None, {"model": "m"}, "adapter url must be a non-empty string, got ''"),
        ({"model": "m"}, {}, "adapter url must be a non-empty string, got ''"),
        ({"timeout_s": 5.0}, {"api_key_env": "KEY"}, "adapter url must be a non-empty string, got ''"),
        (None, {"url": ""}, "adapter url must be a non-empty string, got ''"),
        (FILE_ADAPTER, {"api_key_env": ""}, "adapter api_key_env must be a non-empty string, got ''"),
        (None, {"url": ADAPTER_URL, "api_key_env": ""},
         "adapter api_key_env must be a non-empty string, got ''"),
    ],
    ids=["model_flag_without_url", "model_in_file_without_url", "file_and_flag_without_url",
         "empty_url_flag", "empty_key_env_flag_over_file", "empty_key_env_flag"],
)
def test_adapter_settings_outside_the_contract_are_one_cli_error(tmp_path, capsys, adapter, flags, message):
    """Any adapter setting asks for an adapter, so one without a url exits 1,
    and an empty flag value does not fall back to the file's."""
    out = tmp_path / "out"
    assert cli_main([*adapter_argv(tmp_path, adapter, flags), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err == f"error: {message}\n"
    assert not (out / "report.json").exists()


def test_every_config_file_key_names_a_real_flag():
    """_merge reads each file key's field and overriding flag from the one key
    table, and each AdapterConfig field has its own flag."""
    args = cli_parser().parse_args(["run"])
    config_fields = set(ExperimentConfig.__slots__)
    for key, (field, flag) in cli_file_keys.items():
        assert field in config_fields, key
        assert flag is None or hasattr(args, flag), key
    assert args.trace_decisions is None  # unset, so a file's value is used
    assert list(cli_adapter_flags) == list(AdapterConfig.__slots__)
    for key, flag in cli_adapter_flags.items():
        assert getattr(args, flag) is None, key  # unset, so the file's field is used


def test_a_scenario_alone_gives_the_config_defaults(tmp_path):
    """The CLI repeats no default: a run named by its scenario alone, by flag
    or by file, is ExperimentConfig's own."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"scenario": "semantic"}))
    expected = ExperimentConfig("semantic")
    for argv in (["run", "--scenario", "semantic"], ["run", "--config", str(cfg)]):
        merged = cli_merge(cli_parser().parse_args(argv))
        for name in ExperimentConfig.__slots__:
            assert getattr(merged, name) == getattr(expected, name), (argv, name)


# config-file key -> the error a null value raises, or None when it keeps the default
NULL_OUTCOMES = {
    "adapter": None,
    "horizon": "horizon must be an int >= 0, got None",
    "lambda": "lambda must be a finite number > 0, got None",
    "out": None,
    "plan": "a plan must be a list of event objects, got None",
    "policies": "policies must be a comma-separated string or list, got None",
    "prior_error": None,
    "profiles": None,
    "scenario": "a scenario is required (--scenario or config file)",
    "service_jitter": None,
    "trace_decisions": "trace_decisions must be a bool, got None",
    "warmup": "warmup_budget must be an int, got None",
}


@pytest.mark.parametrize("key", sorted(NULL_OUTCOMES))
def test_a_null_config_file_value_is_passed_on_as_written(tmp_path, key):
    """A file key set to null reaches ExperimentConfig as None: a field that
    takes None keeps its default, any other is rejected."""
    assert sorted(NULL_OUTCOMES) == sorted(cli_file_keys)
    message = NULL_OUTCOMES[key]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"scenario": "drift", key: None}))
    args = cli_parser().parse_args(["run", "--config", str(cfg)])
    if message is None:
        assert slot_values(cli_merge(args)) == slot_values(ExperimentConfig("drift"))
    else:
        with pytest.raises((ExperimentError, PlanError)) as info:
            cli_merge(args)
        assert str(info.value) == message


@pytest.mark.parametrize("in_file", [None, False, True])
@pytest.mark.parametrize("flag", [False, True])
def test_trace_decisions_flag_wins_over_the_file(tmp_path, in_file, flag):
    body = {"scenario": "drift"} if in_file is None else {"scenario": "drift", "trace_decisions": in_file}
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(body))
    argv = ["run", "--config", str(cfg)] + (["--trace-decisions"] if flag else [])
    assert cli_merge(cli_parser().parse_args(argv)).trace_decisions is (flag or in_file is True)


# --- errors a caller can provoke -------------------------------------------------


@pytest.mark.parametrize(
    "text, message",
    [
        (None, "cannot read config"),
        ("{", "cannot read config"),
        ("[1]", "must hold a JSON object"),
        ('"drift"', "must hold a JSON object"),
        ('{"horizon": 10}', "a scenario is required (--scenario or config file)"),
    ],
    ids=["missing_file", "malformed", "list", "string", "no_scenario"],
)
def test_config_file_that_holds_no_config_is_one_cli_error(tmp_path, capsys, text, message):
    cfg = tmp_path / "cfg.json"
    if text is not None:
        cfg.write_text(text)
    assert cli_main(["run", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert message in err


def _profile_file(tmp_path, rows):
    path = tmp_path / "profiles.jsonl"
    lines = [json.loads(line) for line in default_profiles_path().read_text().splitlines()]
    path.write_text("".join(json.dumps(dict(lines[i], **extra)) + "\n" for i, extra in rows))
    return path


def test_prior_error_for_a_device_not_in_the_pool_is_one_cli_error(tmp_path, capsys):
    # The factor for device 7 was once dropped without a word and the run went on.
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"scenario": "semantic", "horizon": 30, "prior_error": {"7": 2.0}}))
    out = tmp_path / "out"
    assert cli_main(["run", "--config", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err == "error: prior_error names device 7, which is not in the pool; its devices are [0, 1, 2, 3]\n"
    assert not out.exists()


def test_a_warmup_run_on_another_pool_takes_the_preset_factors_of_its_devices(tmp_path, capsys):
    # The preset names devices 0-3; a pool without device 3 runs with the
    # factors of 0-2, and a factor the caller names for device 3 is rejected.
    path = _profile_file(tmp_path, [(0, {}), (1, {}), (2, {})])
    argv = ["run", "--scenario", "warmup", "--horizon", "10", "--profiles", str(path)]
    assert cli_main([*argv, "--out", str(tmp_path / "out")]) == 0
    assert (tmp_path / "out" / "report.json").is_file()
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"scenario": "warmup", "prior_error": {"3": 2.0}}))
    capsys.readouterr()
    assert cli_main([*argv, "--config", str(cfg)]) == 1
    assert capsys.readouterr().err == (
        "error: prior_error names device 3, which is not in the pool; its devices are [0, 1, 2]\n"
    )


@pytest.mark.parametrize(
    "scenario, rows, message",
    [
        ("semantic", [(0, {}), (1, {}), (2, {})],
         "built-in scenario plans expect the 4-device pool (two LLM devices 0-1, two SDXL "
         "devices 2-3); got kinds ['LLM', 'LLM', 'SDXL']"),
        ("warmup", [(0, {"scenario": "Offline"}), (2, {"scenario": "Server"})], "no usable profiles in"),
        ("warmup", [(0, {}), (1, {})], "no device in the pool runs the workload's ['SDXL'] tasks"),
    ],
    ids=["three_devices_dynamic", "no_single_stream_rows", "no_sdxl_device"],
)
def test_pool_that_cannot_run_the_experiment_is_one_cli_error(tmp_path, capsys, scenario, rows, message):
    path = _profile_file(tmp_path, rows)
    out = tmp_path / "out"
    argv = ["run", "--scenario", scenario, "--horizon", "10", "--profiles", str(path), "--out", str(out)]
    assert cli_main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert message in err
    assert not out.exists()


def test_output_directory_under_a_regular_file_is_one_cli_error(tmp_path, capsys):
    (tmp_path / "file").write_text("x")
    out = tmp_path / "file" / "out"
    config = ExperimentConfig("warmup", horizon=10, policies=("oracle",), out_dir=out)
    with pytest.raises(ExperimentError, match=f"cannot create output directory {out}"):
        run_experiment(config)
    assert cli_main(["run", "--scenario", "warmup", "--horizon", "10", "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith(f"error: cannot create output directory {out}: ")


def test_drift_naming_another_kinds_model_fails_before_the_run(tmp_path, capsys):
    model = "llama3.1-8b-edge"
    rows = [
        {"type": "drift_step", "at_task": 120, "device": 2, "model": model, "factor": 2.0},
        {"type": "drift_restore", "at_task": 220, "device": 2, "model": model},
    ]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"scenario": "drift", "plan": rows}))
    out = tmp_path / "out"
    assert cli_main(["run", "--config", str(cfg), "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        f"error: drift_step at task 120: model '{model}' does not run on SDXL device 2\n"
    )
    assert not out.exists()
