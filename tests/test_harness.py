"""Metrics pipeline, report emission, experiment wiring, CLI."""

import json
import random

import pytest

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
from edgesched.profiles import LLM
from edgesched.sim.engine import ExecutionRecord
from edgesched.sim.truth import GroundTruthState, PlanError, ScenarioPlan, builtin_plans, plan_from_dicts
from edgesched.sim.workload import generate_workload


def record(task_id, latency, stutter=0, device=0):
    return ExecutionRecord(
        task_id=task_id,
        device_id=device,
        kind=LLM,
        arrival_time=0.0,
        dispatch_time=0.0,
        start_time=0.0,
        completion_time=latency,
        latency_ms=latency,
        service_ms=latency,
        n_in=256,
        n_out=32,
        stutter=stutter,
    )


# --- moving average -------------------------------------------------------------


def test_ma_constant_series_unchanged():
    assert smooth_ma([5.0] * 30) == [5.0] * 30


def test_ma_example_first_two():
    out = smooth_ma([0.0, 20.0])
    assert out[1] == 10.0


def test_ma_window_one_is_identity():
    series = [3.0, 1.0, 4.0, 1.0, 5.0]
    assert smooth_ma(series, window=1) == series


def test_ma_window_covers_last_twenty():
    series = [float(i) for i in range(40)]
    out = smooth_ma(series, window=20)
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


def test_explore_weight_flag_reaches_the_router():
    """The scripted first warmup point switches the router and keeps the
    configured weight, so --explore-weight changes what e3 does."""

    def e3_latency(*flags):
        argv = ["run", "--scenario", "warmup", "--warmup", "100", "--policies", "e3", *flags]
        config = cli_merge(cli_parser().parse_args(argv))
        return run_experiment(config).report.policies["e3"].avg_latency_ms

    default = e3_latency()
    assert round(default, 2) == 2715.29  # the warmup W=100 preset is unchanged
    assert e3_latency("--explore-weight", "2000") == default
    assert e3_latency("--explore-weight", "0") != e3_latency("--explore-weight", "8000")


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
        ({"policies": ("oracle",), "explore_weight_ms": HUGE}, ValueError,
         "explore_weight_ms must be a finite number >= 0"),
        ({"horizon": True}, ExperimentError, "horizon must be an int"),
        ({"horizon": 30.0}, ExperimentError, "horizon must be an int"),
        ({"warmup_budget": True}, ExperimentError, "warmup_budget must be an int"),
        ({"policies": ("oracle",), "explore_weight_ms": -5.0}, ValueError,
         "explore_weight_ms must be a finite number >= 0"),
    ],
    ids=["jitter_nan_h0", "lam_nan", "lam_inf", "lam_bool", "lam_huge_int", "jitter_huge_int",
         "explore_weight_huge_int", "horizon_bool", "horizon_float", "warmup_bool",
         "explore_weight_without_e3"],
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
    truth = GroundTruthState(fixture_priors, prior_error={0: (2.0, 5.0), 7: (2.0, 5.0)})
    assert (truth.devices[0].alpha, truth.devices[0].beta) == (2.0, 250.0)


def test_prior_error_may_name_devices_outside_the_pool():
    result = run_experiment(
        ExperimentConfig(scenario="warmup", horizon=10, policies=("oracle",), prior_error={7: 2.0})
    )
    assert len(result.runs["oracle"].records) == 10


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
        ({"horizon": True}, "horizon must be an int, got True"),
        ({"horizon": 2.5}, "horizon must be an int, got 2.5"),
        ({"horizon": "10"}, "horizon must be an int, got '10'"),
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
        ({"profiles": 5}, "profiles must be a path string, got 5"),
        ({"out": 5}, "out must be a path string, got 5"),
        ({"adapter": 5}, "adapter must be an object, got 5"),
        ({"adapter": {"url": ADAPTER_URL, "timeout_s": "a"}}, "timeout_s must be a finite number > 0, got 'a'"),
        ({"adapter": {"url": ADAPTER_URL, "timeout_s": True}}, "timeout_s must be a finite number > 0, got True"),
        ({"adapter": {"url": ADAPTER_URL, "timeout_s": NAN}}, "timeout_s must be a finite number > 0, got nan"),
        ({"adapter": {"url": ADAPTER_URL, "timeout_s": 0}}, "timeout_s must be a finite number > 0, got 0"),
        ({"adapter": {"url": 5}}, "adapter url must be a string, got 5"),
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
        AdapterConfig(enabled=True, url=ADAPTER_URL, timeout_s=timeout_s)
    if isinstance(timeout_s, float):
        out = tmp_path / "out"
        argv = ["run", "--scenario", "drift", "--horizon", "30", "--policies", "oracle",
                "--adapter-url", ADAPTER_URL, "--adapter-timeout", str(timeout_s), "--out", str(out)]
        assert cli_main(argv) == 1
        assert not (out / "report.json").exists()


@pytest.mark.parametrize(
    "field, message",
    [
        ({"enabled": 1}, "adapter enabled must be a bool, got 1"),
        ({"enabled": "yes"}, "adapter enabled must be a bool, got 'yes'"),
        ({"url": None}, "adapter url must be a string, got None"),
        ({"model": 5}, "adapter model must be a string, got 5"),
        ({"api_key_env": ""}, "adapter api_key_env must be a non-empty string, got ''"),
        ({"api_key_env": None}, "adapter api_key_env must be a non-empty string, got None"),
    ],
)
def test_adapter_fields_outside_their_contract_are_rejected(field, message):
    with pytest.raises(ValueError) as info:
        AdapterConfig(**{"enabled": True, "url": ADAPTER_URL, **field})
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
        ({"horizn": 30}, "unknown config key 'horizn'; accepted keys: adapter, explore_weight_ms,"),
        ({"adapter": {"url": ADAPTER_URL, "timeout": 1}},
         "unknown adapter key 'timeout'; accepted keys: enabled, url, model, api_key_env, timeout_s"),
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


@pytest.mark.parametrize("enabled", [False, True, None])
@pytest.mark.parametrize("url_flag", [False, True], ids=["file_url", "flag_url"])
def test_config_file_adapter_enabled_is_honoured(tmp_path, enabled, url_flag):
    """The file's "enabled" holds for its own url; --adapter-url wins over it,
    as every flag wins over the file."""
    adapter = {"url": ADAPTER_URL} if enabled is None else {"url": ADAPTER_URL, "enabled": enabled}
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"scenario": "drift", "adapter": adapter}))
    argv = ["run", "--config", str(cfg)]
    if url_flag:
        argv += ["--adapter-url", ADAPTER_URL + "/flag"]
    config = cli_merge(cli_parser().parse_args(argv))
    assert config.adapter.enabled is (url_flag or enabled is not False)
    assert config.adapter.url == ADAPTER_URL + ("/flag" if url_flag else "")


def test_every_config_file_key_names_a_real_flag():
    """pick() reads each file key's overriding flag from the one key table."""
    args = cli_parser().parse_args(["run"])
    for key, flag in cli_file_keys.items():
        assert flag is None or hasattr(args, flag), key
    assert args.trace_decisions is None  # unset, so a file's value is used


@pytest.mark.parametrize("in_file", [None, False, True])
@pytest.mark.parametrize("flag", [False, True])
def test_trace_decisions_flag_wins_over_the_file(tmp_path, in_file, flag):
    body = {"scenario": "drift"} if in_file is None else {"scenario": "drift", "trace_decisions": in_file}
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(body))
    argv = ["run", "--config", str(cfg)] + (["--trace-decisions"] if flag else [])
    assert cli_merge(cli_parser().parse_args(argv)).trace_decisions is (flag or in_file is True)
