"""Triggers, tool execution, scripted policy, external adapter."""

import inspect
import json
import random
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer

import pytest

from edgesched import metacontrol
from edgesched.metacontrol import (
    TOOLS,
    AdapterConfig,
    AuditLog,
    Invocation,
    MetaController,
    ToolCall,
    ToolExecutor,
    TriggerState,
    _default_transport,
    _tool_catalog,
    evaluate_triggers,
    llm_adapter_invoke,
    model_kind,
    scripted_policy,
    warmup_points,
)
from edgesched.harness import ExperimentConfig, run_experiment
from edgesched.opm import DRIFT_WINDOW_MS, Opm
from edgesched.profiles import LLM, SDXL, DevicePrior
from edgesched.router import RiskOverrideTable, RouterConfig
from edgesched.sim.engine import EventAnnotation, ExecutionRecord, assert_no_ground_truth


class FakeTelemetry:
    def __init__(self, now=0.0):
        self._now = now
        self._observations = []

    def now(self):
        return self._now

    def system_status(self):
        return {"sim_time_ms": self._now, "devices": {}, "active_semantic_events": {}}

    def observations(self, window_ms=None, limit=None):
        rows = self._observations
        if limit is not None:
            rows = rows[-limit:]
        return [dict(r) for r in rows]


def make_executor(now=0.0):
    opm = Opm()
    opm.seed(
        [
            DevicePrior(0, LLM, alpha0=1.0, beta0=50.0),
            DevicePrior(1, LLM, alpha0=2.0, beta0=80.0),
            DevicePrior(2, SDXL, gamma0=4000.0),
        ]
    )
    config = RouterConfig()
    overrides = RiskOverrideTable()
    audit = AuditLog()
    executor = ToolExecutor(opm, config, overrides, FakeTelemetry(now), audit)
    executor.begin_invocation(Invocation("semantic_onset", task_index=5, device=0))
    return executor


def make_controller(warmup_budget=0, now=0.0, **kwargs):
    opm = Opm()
    opm.seed([DevicePrior(0, LLM, alpha0=1.0, beta0=50.0)])
    meta = MetaController(opm, RouterConfig(), RiskOverrideTable(), warmup_budget, **kwargs)
    meta.attach_telemetry(FakeTelemetry(now))
    return meta


# --- warmup points ------------------------------------------------------------


@pytest.mark.parametrize(
    "budget,expected",
    [(0, frozenset()), (30, frozenset({10, 30})), (100, frozenset({10, 100})), (5, frozenset({5}))],
)
def test_warmup_points(budget, expected):
    assert warmup_points(budget) == expected


# --- trigger evaluation ----------------------------------------------------------


def test_semantic_onset_fires_and_cooldown_suppresses():
    state = TriggerState()
    inv = evaluate_triggers(Invocation("semantic_onset", 60, device=0, label="game"), state)
    assert inv is not None and inv.reason == "semantic_onset"
    # Same signature inside the 20-task cooldown window (expires at 80).
    assert evaluate_triggers(Invocation("semantic_onset", 70, device=0, label="game"), state) is None
    assert evaluate_triggers(Invocation("semantic_onset", 85, device=0, label="game"), state) is not None


def test_different_signatures_do_not_share_cooldowns():
    state = TriggerState()
    assert evaluate_triggers(Invocation("semantic_onset", 60, device=0, label="game"), state)
    assert evaluate_triggers(Invocation("semantic_onset", 61, device=1, label="game"), state)
    assert evaluate_triggers(Invocation("semantic_offset", 62, device=0, label="game"), state)


def test_device_leave_is_informational_return_triggers_churn():
    meta = make_controller()
    meta.on_annotation(EventAnnotation(80, 0.0, "device_leave", 3), 80)
    assert meta.invocations == [] and meta.trigger_state.cooldowns == {}
    meta.on_annotation(EventAnnotation(160, 0.0, "device_return", 3), 160)
    [inv] = meta.invocations
    assert inv is not None and inv.reason == "churn_event"


def test_residual_alarm_respects_nonevent_gap():
    state = TriggerState()
    state.last_invocation_task = 30
    alarm = dict(device=1, model=LLM, ratio=2.0, sample_count=5)
    assert evaluate_triggers(Invocation("residual_alarm", 45, **alarm), state) is None  # gap 15 < 20
    inv = evaluate_triggers(Invocation("residual_alarm", 50, **alarm), state)
    assert inv is not None and inv.reason == "residual_alarm"
    assert inv.ratio == 2.0


def test_residual_alarm_is_governed_by_the_gap_alone():
    state = TriggerState()

    def alarm(task, device, model):
        candidate = Invocation("residual_alarm", task, device=device, model=model, ratio=2.0)
        return evaluate_triggers(candidate, state)

    assert alarm(100, 1, LLM)
    # Another device or model inside the gap is suppressed all the same.
    assert alarm(119, 0, LLM) is None and alarm(119, 1, SDXL) is None
    # At the gap the same device and model fire again.
    assert alarm(120, 1, LLM)
    assert state.last_invocation_task == 120 and state.cooldowns == {}


def test_warmup_tick_fires_once_per_point():
    state = TriggerState(warmup_points=warmup_points(30))
    assert 5 not in state.warmup_points  # so on_task_arrival(5) builds no candidate
    first = evaluate_triggers(Invocation("warmup_point", 10, label="first"), state)
    assert first is not None and first.label == "first"
    assert evaluate_triggers(Invocation("warmup_point", 10, label="first"), state) is None
    last = evaluate_triggers(Invocation("warmup_point", 30, label="last"), state)
    assert last is not None and last.label == "last"
    assert evaluate_triggers(Invocation("warmup_point", 10**9, label="last"), state) is None
    meta = make_controller(warmup_budget=30)
    for task_index in range(40):
        meta.on_task_arrival(task_index, 0.0)
    assert [(i.task_index, i.label) for i in meta.invocations] == [(10, "first"), (30, "last")]


def test_single_warmup_point_is_treated_as_last():
    meta = make_controller(warmup_budget=5)
    meta.on_task_arrival(5, 0.0)
    [inv] = meta.invocations
    assert inv is not None and inv.label == "last"


def parent_rule(event, state, now_task):
    """The three-branch trigger rule the one-rule ``evaluate_triggers`` replaced,
    kept here as the reference.  Returns the fired invocation's fields or None."""
    kind = event[0]
    if kind == "annotation":
        _, type_, device, label = event
        if type_ in ("semantic_onset", "semantic_offset"):
            reason, signature = type_, (type_, device, label)
        elif type_ == "device_return":
            reason, signature = "churn_event", ("churn_event", device, "return")
        else:
            return None
        if now_task < state["cooldowns"].get(signature, -(10**9)):
            return None
        state["cooldowns"][signature] = now_task + 20
        state["last"] = now_task
        return (reason, now_task, device, label, None, None, None)
    if kind == "alarm":
        _, device, model, ratio, count = event
        signature = ("residual_alarm", device, model)
        if now_task < state["cooldowns"].get(signature, -(10**9)):
            return None
        if now_task - state["last"] < 20:
            return None
        state["cooldowns"][signature] = now_task + 20
        state["last"] = now_task
        return ("residual_alarm", now_task, device, None, model, ratio, count)
    points = state["points"]
    if now_task not in points:
        return None
    signature = ("warmup_point", now_task)
    if signature in state["cooldowns"]:
        return None
    state["cooldowns"][signature] = 10**9
    state["last"] = now_task
    first = now_task == min(points) and len(points) > 1
    return ("warmup_point", now_task, None, "first" if first else "last", None, None, None)


class AlarmingOpm:
    """Stands in for the OPM in ``on_feedback``: each record raises the alarm it is given."""

    alarm = (1.0, 0)

    def drift_ratio(self, device, kind, window_ms, now):
        return self.alarm

    def is_drift_alarm(self, ratio, count, min_samples):
        return True


@pytest.mark.parametrize("budget", [0, 5, 30])
def test_one_rule_fires_what_the_three_branch_rule_fired(budget, monkeypatch):
    """3,000 seeded events through the three hooks fire, in order and field for
    field, what the three-branch rule fired for the same events."""
    rng = random.Random(budget)
    meta = make_controller(warmup_budget=budget)
    meta.opm = AlarmingOpm()
    monkeypatch.setattr(metacontrol, "scripted_policy", lambda invocation, executor: [])
    reference = {"cooldowns": {}, "last": -(10**9), "points": warmup_points(budget)}
    expected = []

    def feed(event, now_task):
        fired = parent_rule(event, reference, now_task)
        if fired is not None:
            expected.append(fired)

    annotation_types = ("semantic_onset", "semantic_offset", "device_leave", "device_return")
    arrivals = 0
    for _ in range(3000):
        task = max(arrivals - 1, 0)
        if rng.random() < 0.6:  # the engine announces every arrival once, in order
            task = arrivals
            arrivals += 1
            meta.on_task_arrival(task, 0.0)
            feed(("warmup",), task)
        elif rng.random() < 0.2:
            device, type_ = rng.randrange(3), rng.choice(annotation_types)
            label = rng.choice(("game", "video")) if type_.startswith("semantic") else None
            meta.on_annotation(EventAnnotation(task, 0.0, type_, device, label), task)
            feed(("annotation", type_, device, label), task)
        else:
            device, model = rng.randrange(3), rng.choice((LLM, SDXL))
            meta.opm.alarm = ratio, count = rng.uniform(0.2, 3.0), rng.randrange(3, 9)
            record = ExecutionRecord(task, device, model, *[0.0] * 6, 1, 1, 0)
            meta.on_feedback(record, 0.0, task)
            feed(("alarm", device, model, ratio, count), task)
    got = [
        (i.reason, i.task_index, i.device, i.label, i.model, i.ratio, i.sample_count)
        for i in meta.invocations
    ]
    assert got == expected
    assert {inv[0] for inv in got} == {
        "semantic_onset", "semantic_offset", "churn_event", "residual_alarm"
    } | ({"warmup_point"} if budget else set())


# --- tool execution ------------------------------------------------------------------


def test_model_kind_mapping():
    assert model_kind("llama3.1-8b-edge") == LLM
    assert model_kind("LLM") == LLM
    assert model_kind("stable-diffusion-xl") == SDXL
    assert model_kind("SDXL") == SDXL
    # Names the profile loader accepts as LLM and SDXL rows.
    assert model_kind("tiny-llm-q4") == LLM
    assert model_kind("sdxl-base-1.0") == SDXL
    with pytest.raises(ValueError):
        model_kind("resnet50")


def test_get_system_status_and_audit():
    executor = make_executor(now=1234.0)
    result = executor.execute_tool(ToolCall("get_system_status", {}))
    assert result.ok
    assert result.payload["sim_time_ms"] == 1234.0
    entry = executor.audit.entries[-1]
    assert entry.tool == "get_system_status"
    assert entry.reason == "semantic_onset"
    assert entry.task_index == 5


def test_pull_observations_counts_stutter():
    executor = make_executor()
    executor.telemetry._observations = [
        {"task_id": 0, "stutter": 1},
        {"task_id": 1, "stutter": 0},
        {"task_id": 2, "stutter": 1},
    ]
    result = executor.execute_tool(ToolCall("pull_observations", {"limit": 10}))
    assert result.ok
    assert result.payload["stutter_count"] == 2
    bad = executor.execute_tool(ToolCall("pull_observations", {"limit": 0}))
    assert not bad.ok


def test_compute_drift_empty_window():
    executor = make_executor()
    result = executor.execute_tool(
        ToolCall("compute_drift", {"device": 0, "model": "llama3.1-8b-edge", "window_ms": 60000})
    )
    assert result.ok
    assert result.payload == {"ratio": 1.0, "sample_count": 0}


def test_update_calibration_logs_old_and_new():
    executor = make_executor()
    result = executor.execute_tool(
        ToolCall("update_calibration", {"device": 0, "model": "LLM", "ratio": 2.0})
    )
    assert result.ok
    assert result.payload["old_factor"] == 1.0
    assert result.payload["new_factor"] == pytest.approx(1.3)
    delta = executor.audit.entries[-1].state_delta
    assert delta["calibration_factor"]["old"] == 1.0
    assert delta["calibration_factor"]["new"] == pytest.approx(1.3)
    bad = executor.execute_tool(
        ToolCall("update_calibration", {"device": 0, "model": "LLM", "ratio": -1})
    )
    assert not bad.ok


def test_switch_router_and_params():
    executor = make_executor()
    result = executor.execute_tool(ToolCall("switch_router", {"router": "explore_risk"}))
    assert result.ok and executor.config.policy == "explore_risk"
    assert executor.audit.entries[-1].state_delta["policy"] == {
        "old": "sect",
        "new": "explore_risk",
    }
    bad = executor.execute_tool(ToolCall("switch_router", {"router": "random"}))
    assert not bad.ok
    result = executor.execute_tool(ToolCall("set_router_params", {"explore_weight_ms": 1500}))
    assert result.ok
    assert executor.config.explore_weight_ms == 1500
    assert executor.audit.entries[-1].state_delta == {
        "explore_weight_ms": {"old": 2000.0, "new": 1500}
    }


@pytest.mark.parametrize(
    "arguments",
    [
        {"explore_weight_ms": float("nan")},
        {"risk_penalty_ms": float("inf")},
        {"explore_weight_ms": True},
        {"explore_weight_ms": 100.0, "risk_penalty_ms": -1},
        {},
        {"risk_penalty_ms": 1000},
    ],
)
def test_set_router_params_rejects_bad_values_and_keeps_config(arguments):
    executor = make_executor()
    before = executor.config.to_dict()
    result = executor.execute_tool(ToolCall("set_router_params", arguments))
    assert not result.ok
    assert executor.config.to_dict() == before
    [entry] = executor.audit.entries
    assert entry.result == f"rejected: {result.error}" and entry.state_delta == {}


def test_update_calibration_rejects_bool_ratio():
    executor = make_executor()
    result = executor.execute_tool(
        ToolCall("update_calibration", {"device": 0, "model": "LLM", "ratio": True})
    )
    assert not result.ok
    assert executor.opm.oplog[-1][0] == "seed"


def test_set_and_clear_device_risky():
    executor = make_executor()
    result = executor.execute_tool(ToolCall("set_device_risky", {"device": 0}))
    assert result.ok
    assert result.payload["ttl"] == 50
    assert executor.overrides.is_risky(0)
    assert executor.audit.entries[-1].state_delta["risk_mask"] == {"old": [], "new": [0]}
    result = executor.execute_tool(ToolCall("clear_device_risky", {"device": 0}))
    assert result.ok and not executor.overrides.is_risky(0)
    bad = executor.execute_tool(ToolCall("set_device_risky", {"device": 0, "ttl": 0}))
    assert not bad.ok
    bad = executor.execute_tool(ToolCall("set_device_risky", {"device": 42}))
    assert not bad.ok


@pytest.mark.parametrize(
    "tool,arguments,contract",
    [
        ("set_device_risky", {"device": 0, "ttl": True}, "ttl must be an int >= 1, not a bool"),
        ("set_device_risky", {"device": 0, "ttl": 2.5}, "ttl must be an int >= 1, not a bool"),
        ("pull_observations", {"limit": True}, "limit must be an int >= 1, not a bool"),
        ("pull_observations", {"limit": 5.0}, "limit must be an int >= 1, not a bool"),
        ("pull_observations", {"window_ms": float("nan")}, "window_ms must be a finite number > 0"),
        ("pull_observations", {"window_ms": True}, "window_ms must be a finite number > 0"),
        ("compute_drift", {"device": 0, "model": "LLM", "window_ms": float("nan")},
         "window_ms must be a finite number > 0"),
        ("compute_drift", {"device": 0, "model": "LLM", "window_ms": float("inf")},
         "window_ms must be a finite number > 0"),
        ("compute_drift", {"device": 0, "model": "LLM", "window_ms": "60000"},
         "window_ms must be a finite number > 0"),
        ("compute_drift", {"device": 0, "model": "LLM", "window_ms": 10**400},
         "window_ms must be a finite number > 0"),
        ("pull_observations", {"window_ms": 10**400}, "window_ms must be a finite number > 0"),
        ("update_calibration", {"device": 0, "model": "LLM", "ratio": 10**400},
         "ratio must be a finite number > 0"),
        ("trigger_online_profile_update", {"window": True, "min_samples": 1},
         "window must be an int >= 1, not a bool"),
        ("trigger_online_profile_update", {"window": 40, "min_samples": True},
         "min_samples must be an int >= 1, not a bool"),
        ("trigger_online_profile_update", {"window": 2.5, "min_samples": 1},
         "window must be an int >= 1, not a bool"),
        ("set_device_risky", {"device": True}, "device must be a device id the OPM knows, got True"),
        ("set_device_risky", {"device": 2.0}, "device must be a device id the OPM knows, got 2.0"),
        ("set_device_risky", {"device": "0"}, "device must be a device id the OPM knows, got '0'"),
        ("update_calibration", {"device": True, "model": "LLM", "ratio": 2.0},
         "device must be a device id the OPM knows, got True"),
        ("compute_drift", {"device": 0, "model": 5}, "model must be an LLM or SDXL model name, got 5"),
        ("set_device_risky", {"device": 0, "ttl_tasks": 5}, "set_device_risky takes no argument 'ttl_tasks'"),
        ("get_system_status", [1], "arguments must be a JSON object, got [1]"),
        ("compute_drift", {"model": "LLM"}, "compute_drift needs argument 'device'"),
        ("compute_drift", {"device": 2, "model": "LLM"}, "no estimate for device 2 kind LLM"),
    ],
    ids=[
        "ttl-bool", "ttl-float", "limit-bool", "limit-float", "pull-window-nan", "pull-window-bool",
        "drift-window-nan", "drift-window-inf", "drift-window-str", "drift-window-huge-int",
        "pull-window-huge-int", "ratio-huge-int", "window-bool", "min_samples-bool",
        "window-float", "device-bool", "device-float", "device-str", "calibration-device-bool",
        "model-int", "unknown-argument", "not-an-object", "missing-argument", "device-of-the-other-kind",
    ],
)
def test_tool_arguments_outside_their_contract_are_rejected(tool, arguments, contract):
    executor = make_executor()
    oplog_len = len(executor.opm.oplog)
    result = executor.execute_tool(ToolCall(tool, arguments))
    assert not result.ok
    assert contract in result.error
    assert executor.audit.entries[-1].result == f"rejected: {result.error}"
    assert executor.audit.entries[-1].arguments == arguments  # as given
    assert executor.overrides.devices() == []
    assert len(executor.opm.oplog) == oplog_len
    assert all(e.calibration_factor == 1.0 for e in executor.opm.estimates.values())


def test_catalog_is_generated_from_the_table():
    catalog = {entry["function"]["name"]: entry["function"] for entry in _tool_catalog()}
    assert list(catalog) == list(TOOLS)
    for name, function in catalog.items():
        parameters = inspect.signature(getattr(ToolExecutor, f"_tool_{name}")).parameters
        handler_args = [arg for arg in parameters if arg != "self"]
        schema = function["parameters"]
        assert function["description"] == TOOLS[name][0]
        assert list(schema["properties"]) == handler_args
        assert schema["required"] == [
            arg for arg in handler_args if parameters[arg].default is inspect.Parameter.empty
        ]
        assert schema["additionalProperties"] is False
    assert catalog["set_device_risky"]["parameters"]["properties"]["ttl"]["type"] == "integer"
    assert catalog["set_router_params"]["parameters"]["required"] == ["explore_weight_ms"]
    assert catalog["switch_router"]["parameters"]["properties"]["router"]["enum"] == [
        "sect", "explore_risk"
    ]


def test_trigger_online_profile_update_refits_all():
    executor = make_executor()
    result = executor.execute_tool(
        ToolCall("trigger_online_profile_update", {"window": 40, "min_samples": 3})
    )
    assert result.ok
    assert result.payload["refit"] == {"0": "insufficient", "1": "insufficient", "2": "insufficient"}
    bad = executor.execute_tool(
        ToolCall("trigger_online_profile_update", {"window": 0, "min_samples": 1})
    )
    assert not bad.ok


def test_unknown_tool_rejected_and_audited():
    executor = make_executor()
    before = len(executor.audit.entries)
    result = executor.execute_tool(ToolCall("dispatch_task", {"task": 1}))
    assert not result.ok
    assert len(executor.audit.entries) == before + 1
    assert "rejected" in executor.audit.entries[-1].result


def test_round_cap_rejects_third_batch():
    executor = make_executor()
    executor.execute_round([ToolCall("get_system_status", {})])
    executor.execute_round([ToolCall("get_system_status", {})])
    results = executor.execute_round([ToolCall("get_system_status", {})])
    assert not results[0].ok
    assert "round cap" in results[0].error


def test_tool_results_carry_no_ground_truth():
    executor = make_executor()
    for call in (
        ToolCall("get_system_status", {}),
        ToolCall("pull_observations", {"limit": 5}),
        ToolCall("compute_drift", {"device": 0, "model": "LLM", "window_ms": 60000}),
        ToolCall("update_calibration", {"device": 0, "model": "LLM", "ratio": 1.1}),
        ToolCall("set_device_risky", {"device": 1}),
    ):
        result = executor.execute_tool(call)
        assert_no_ground_truth(result.payload)
    for entry in executor.audit.entries:
        assert_no_ground_truth(entry.to_dict())


# --- scripted policy -----------------------------------------------------------------


def test_scripted_semantic_onset_sequence():
    executor = make_executor()
    inv = Invocation("semantic_onset", 60, device=0, label="game")
    executor.begin_invocation(inv)
    calls = scripted_policy(inv, executor)
    assert [c.tool for c in calls] == ["get_system_status", "set_device_risky"]
    assert calls[1].arguments == {"device": 0, "ttl": 50}
    assert executor.overrides.is_risky(0)


def test_scripted_semantic_offset_clears():
    executor = make_executor()
    executor.overrides.set(0, 50)
    inv = Invocation("semantic_offset", 100, device=0, label="game")
    executor.begin_invocation(inv)
    calls = scripted_policy(inv, executor)
    assert [c.tool for c in calls] == ["clear_device_risky"]
    assert not executor.overrides.is_risky(0)


def test_scripted_residual_alarm_diagnoses_then_refits():
    executor = make_executor()
    # Feed the model so compute_drift sees a 2x mismatch.
    from edgesched.sim.engine import ExecutionRecord

    for i in range(4):
        executor.opm.ingest_feedback(
            ExecutionRecord(i, 0, LLM, 0.0, 0.0, 0.0, 1000.0 * i, 1000.0 * i,
                            2 * 1856.0, 256, 32, 0),
            now=1e9,
        )
    executor.telemetry._now = 4000.0
    inv = Invocation("residual_alarm", 130, device=0, model=LLM, ratio=2.0, sample_count=4)
    executor.begin_invocation(inv)
    calls = scripted_policy(inv, executor)
    assert [c.tool for c in calls] == ["compute_drift", "trigger_online_profile_update"]
    [drift, refit] = executor.audit.entries
    assert drift.result == {"ratio": 2.0, "sample_count": 4}
    assert refit.result["refit"]["0"] == "updated"
    assert executor.opm.estimates[(0, LLM)].calibration_factor == 1.0
    assert executor.opm.estimates[(0, LLM)].alpha_hat != 1.0


def calibrating_policy(shipped):
    """The scripted controller with the residual-alarm branch that calibrated
    before it refit (compute the drift, calibrate by its ratio, refit), kept
    here as the reference; every other trigger goes to ``shipped``."""

    def policy(invocation, executor):
        if invocation.reason != "residual_alarm":
            return shipped(invocation, executor)
        device, model = invocation.device, invocation.model
        drift = ToolCall("compute_drift", {"device": device, "model": model, "window_ms": DRIFT_WINDOW_MS})
        [result] = executor.execute_round([drift])
        second = []
        if result.ok and 0 < result.payload["ratio"] != float("inf"):
            ratio = result.payload["ratio"]
            second.append(ToolCall("update_calibration", {"device": device, "model": model, "ratio": ratio}))
        second.append(ToolCall("trigger_online_profile_update", {"window": 40, "min_samples": 3}))
        executor.execute_round(second)
        return [drift, *second]

    return policy


# name -> ExperimentConfig arguments; each run raises residual alarms
ALARM_CONFIGS = {
    "warmup_w30": {"scenario": "warmup", "warmup_budget": 30},
    "drift": {"scenario": "drift"},
    "semantic_h600_lam2": {"scenario": "semantic", "horizon": 600, "lam": 2.0},
    "drift_h600_lam2": {"scenario": "drift", "horizon": 600, "lam": 2.0},
}


@pytest.mark.parametrize("name", sorted(ALARM_CONFIGS))
def test_alarm_decides_what_the_calibrating_alarm_decided(name, monkeypatch):
    """e3's records and decision trace equal those of the controller whose alarm
    calibrated first, because each calibration was erased by the refit that
    followed it in the same invocation before any prediction read it."""
    config = {**ALARM_CONFIGS[name], "policies": ("e3",), "trace_decisions": True}
    shipped = run_experiment(ExperimentConfig(**config))
    monkeypatch.setattr(metacontrol, "scripted_policy", calibrating_policy(scripted_policy))
    reference = run_experiment(ExperimentConfig(**config))
    for result in (shipped, reference):
        assert any(i.reason == "residual_alarm" for i in result.agent.meta.invocations)
    entries = reference.audit.entries
    calibrations = [i for i, e in enumerate(entries) if e.tool == "update_calibration"]
    assert calibrations
    for i in calibrations:
        calibration, refit = entries[i], entries[i + 1]
        assert (refit.tool, refit.task_index, refit.reason) == (
            "trigger_online_profile_update", calibration.task_index, calibration.reason
        )
        assert refit.result["refit"][str(calibration.arguments["device"])] == "updated"
    assert shipped.runs["e3"].records == reference.runs["e3"].records
    assert shipped.agent.trace == reference.agent.trace


def test_scripted_warmup_first_and_last():
    executor = make_executor()
    first = Invocation("warmup_point", 10, label="first")
    executor.begin_invocation(first)
    executor.config.explore_weight_ms = 8000.0
    calls = scripted_policy(first, executor)
    assert [c.tool for c in calls] == ["switch_router"]
    assert executor.config.policy == "explore_risk"
    assert executor.config.explore_weight_ms == 8000.0  # the configured weight is kept

    last = Invocation("warmup_point", 30, label="last")
    executor.begin_invocation(last)
    calls = scripted_policy(last, executor)
    assert [c.tool for c in calls] == ["trigger_online_profile_update", "switch_router"]
    assert executor.config.policy == "sect"
    refit_call = calls[0]
    assert refit_call.arguments["min_samples"] == 1


def test_scripted_churn_event_refreshes_estimates():
    executor = make_executor()
    inv = Invocation("churn_event", 160, device=3)
    executor.begin_invocation(inv)
    calls = scripted_policy(inv, executor)
    assert [c.tool for c in calls] == ["get_system_status", "trigger_online_profile_update"]
    assert calls[1].arguments["min_samples"] == 3


# --- external adapter ------------------------------------------------------------------


def adapter_response(tool_calls):
    return {
        "choices": [
            {
                "message": {
                    "tool_calls": [
                        {"function": {"name": name, "arguments": json.dumps(args)}}
                        for name, args in tool_calls
                    ]
                }
            }
        ]
    }


def test_adapter_executes_returned_calls():
    executor = make_executor()
    responses = [
        adapter_response([("set_device_risky", {"device": 1, "ttl": 20})]),
        adapter_response([]),
    ]

    def transport(payload, config):
        return responses.pop(0)

    inv = Invocation("semantic_onset", 60, device=1, label="game")
    executor.begin_invocation(inv)
    calls = llm_adapter_invoke(inv, AdapterConfig(enabled=True, url="http://x"), executor, transport)
    assert [c.tool for c in calls] == ["set_device_risky"]
    assert executor.overrides.is_risky(1)


def test_adapter_rejects_out_of_bounds_but_continues():
    executor = make_executor()
    responses = [
        adapter_response(
            [("set_device_risky", {"device": 1, "ttl": 0}), ("get_system_status", {})]
        ),
        adapter_response([]),
    ]

    def transport(payload, config):
        return responses.pop(0)

    inv = Invocation("semantic_onset", 60, device=1)
    executor.begin_invocation(inv)
    llm_adapter_invoke(inv, AdapterConfig(enabled=True, url="http://x"), executor, transport)
    assert not executor.overrides.is_risky(1)
    tools_audited = [e.tool for e in executor.audit.entries]
    assert "set_device_risky" in tools_audited
    assert "get_system_status" in tools_audited


def test_adapter_survives_non_object_arguments_and_a_bad_model():
    executor = make_executor()
    responses = [
        {"choices": [{"message": {"tool_calls": [
            {"function": {"name": "get_system_status", "arguments": "[1]"}},
            {"function": {"name": "compute_drift", "arguments": json.dumps({"device": 0, "model": 5})}},
        ]}}]},
        adapter_response([]),
    ]

    def transport(payload, config):
        return responses.pop(0)

    inv = Invocation("residual_alarm", 60, device=0, model=LLM, ratio=2.0, sample_count=4)
    executor.begin_invocation(inv)
    calls = llm_adapter_invoke(inv, AdapterConfig(enabled=True, url="http://x"), executor, transport)
    assert [c.tool for c in calls] == ["get_system_status", "compute_drift"]
    assert [(e.tool, e.arguments, e.result) for e in executor.audit.entries] == [
        ("get_system_status", [1], "rejected: arguments must be a JSON object, got [1]"),
        ("compute_drift", {"device": 0, "model": 5},
         "rejected: model must be an LLM or SDXL model name, got 5"),
    ]
    assert executor.audit.to_jsonl()  # rejected non-object arguments still serialize


def test_adapter_int_too_large_for_a_float_is_rejected_and_audited():
    executor = make_executor()
    huge = 10**400
    responses = [
        adapter_response(
            [("set_router_params", {"explore_weight_ms": huge}), ("get_system_status", {})]
        ),
        adapter_response([]),
    ]

    def transport(payload, config):
        return responses.pop(0)

    weight = executor.config.explore_weight_ms
    inv = Invocation("semantic_onset", 60, device=1, label="game")
    executor.begin_invocation(inv)
    calls = llm_adapter_invoke(inv, AdapterConfig(enabled=True, url="http://x"), executor, transport)
    assert [c.tool for c in calls] == ["set_router_params", "get_system_status"]
    rejected, status = executor.audit.entries
    assert rejected.result == f"rejected: explore_weight_ms must be a finite number >= 0, got {huge!r}"
    assert status.tool == "get_system_status" and isinstance(status.result, dict)
    assert executor.config.explore_weight_ms == weight
    assert executor.audit.to_jsonl()


def test_adapter_failure_falls_back_to_scripted():
    executor = make_executor()

    def transport(payload, config):
        raise TimeoutError("no response in 10 s")

    inv = Invocation("semantic_onset", 60, device=0, label="game")
    executor.begin_invocation(inv)
    calls = llm_adapter_invoke(inv, AdapterConfig(enabled=True, url="http://x"), executor, transport)
    # Identical tool sequence to the scripted policy for the same invocation.
    assert [c.tool for c in calls] == ["get_system_status", "set_device_risky"]
    assert any(e.tool == "adapter_fallback" for e in executor.audit.entries)
    assert executor.overrides.is_risky(0)


ONSET_USER_MESSAGE = (
    '{"context": {"active_semantic_events": {}, "devices": {}, "sim_time_ms": 1234.0}, '
    '"device": 0, "label": "game", "model": null, "ratio": null, "reason": "semantic_onset", '
    '"sample_count": null, "task_index": 60}'
)
ONSET_SCRIPTED_AUDIT = [
    '{"arguments": {}, "reason": "semantic_onset", "result": {"active_semantic_events": {}, '
    '"devices": {}, "sim_time_ms": 1234.0}, "sim_time_ms": 1234.0, "state_delta": {}, '
    '"task_index": 60, "tool": "get_system_status"}',
    '{"arguments": {"device": 0, "ttl": 50}, "reason": "semantic_onset", "result": {"device": 0, '
    '"ttl": 50}, "sim_time_ms": 1234.0, "state_delta": {"risk_mask": {"new": [0], "old": []}}, '
    '"task_index": 60, "tool": "set_device_risky"}',
]


def adapter_controller(replies):
    """A controller whose adapter transport records each payload and answers from ``replies``
    (an exception is raised instead of returned)."""
    payloads = []

    def transport(payload, config):
        payloads.append(payload)
        reply = replies.pop(0)
        if isinstance(reply, Exception):
            raise reply
        return reply

    adapter = AdapterConfig(enabled=True, url="http://x", model="m")
    meta = make_controller(now=1234.0, adapter=adapter, transport=transport)
    meta.on_annotation(EventAnnotation(60, 1234.0, "semantic_onset", 0, "game"), 60)
    return meta, payloads


@pytest.mark.parametrize(
    "reply,fallback",
    [
        (TimeoutError("no response in 10 s"),
         '{"arguments": {"error": "no response in 10 s"}, "reason": "semantic_onset", '
         '"result": "adapter failure; scripted policy used", "sim_time_ms": 1234.0, '
         '"state_delta": {}, "task_index": 60, "tool": "adapter_fallback"}'),
        (adapter_response([]),
         '{"arguments": {"error": "no tool calls returned"}, "reason": "semantic_onset", '
         '"result": "adapter returned no tool calls; scripted policy used", "sim_time_ms": 1234.0, '
         '"state_delta": {}, "task_index": 60, "tool": "adapter_fallback"}'),
    ],
    ids=["transport-raised", "no-tool-calls"],
)
def test_adapter_message_and_fallback_audit_bytes(reply, fallback):
    meta, payloads = adapter_controller([reply])
    [payload] = payloads
    assert payload["model"] == "m"
    assert payload["tools"] == _tool_catalog()
    system, user = payload["messages"]
    assert system["role"] == "system" and user["role"] == "user"
    assert user["content"] == ONSET_USER_MESSAGE
    assert list(meta.audit.lines()) == [fallback, *ONSET_SCRIPTED_AUDIT]


def test_adapter_second_round_extends_the_first_rounds_messages():
    meta, payloads = adapter_controller(
        [adapter_response([("get_system_status", {})]), adapter_response([])]
    )
    first, second = payloads
    assert len(first["messages"]) == 2  # the first payload is not extended in place
    assert first["messages"][1]["content"] == ONSET_USER_MESSAGE
    assert second["messages"] == first["messages"] + [
        {"role": "tool", "name": "get_system_status",
         "content": '{"active_semantic_events": {}, "devices": {}, "sim_time_ms": 1234.0}'}
    ]
    assert second["model"] == "m" and second["tools"] == _tool_catalog()
    assert [e.tool for e in meta.audit.entries] == ["get_system_status"]


def test_adapter_round_cap_is_enforced():
    executor = make_executor()

    def transport(payload, config):
        return adapter_response([("get_system_status", {})])

    inv = Invocation("churn_event", 160, device=3)
    executor.begin_invocation(inv)
    calls = llm_adapter_invoke(inv, AdapterConfig(enabled=True, url="http://x"), executor, transport)
    assert len(calls) == 2  # two rounds maximum, despite endless responses


def test_controller_uses_scripted_when_adapter_disabled():
    opm = Opm()
    opm.seed([DevicePrior(0, LLM, alpha0=1.0, beta0=50.0)])
    config = RouterConfig()
    overrides = RiskOverrideTable()
    meta = MetaController(opm, config, overrides, warmup_budget=0, adapter=AdapterConfig(enabled=False))
    meta.attach_telemetry(FakeTelemetry())
    meta.on_annotation(
        type("Ann", (), {"type": "semantic_onset", "device": 0, "label": "game"})(), 60
    )
    assert meta.llm_calls == 1
    assert overrides.is_risky(0)
    assert [e.tool for e in meta.audit.entries] == ["get_system_status", "set_device_risky"]


def test_default_transport_posts_json_over_http(monkeypatch):
    requests_seen = []
    status = [200]

    class Handler(BaseHTTPRequestHandler):
        def do_POST(self):
            body = self.rfile.read(int(self.headers["Content-Length"]))
            requests_seen.append(
                (json.loads(body), self.headers["Authorization"], self.headers["Content-Type"])
            )
            reply = json.dumps(adapter_response([])).encode()
            self.send_response(status[0])
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(reply)))
            self.end_headers()
            self.wfile.write(reply)

        def log_message(self, *args):
            pass

    monkeypatch.setenv("EDGESCHED_ADAPTER_API_KEY", "key-123")
    monkeypatch.setenv("no_proxy", "127.0.0.1")
    monkeypatch.setenv("NO_PROXY", "127.0.0.1")
    server = HTTPServer(("127.0.0.1", 0), Handler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        config = AdapterConfig(
            enabled=True, url=f"http://127.0.0.1:{server.server_port}/v1", timeout_s=5.0
        )
        payload = {"model": "m", "messages": [{"role": "user", "content": "x"}]}
        assert _default_transport(payload, config) == adapter_response([])
        assert requests_seen == [(payload, "Bearer key-123", "application/json")]

        status[0] = 500
        executor = make_executor()
        inv = Invocation("semantic_onset", 60, device=0, label="game")
        executor.begin_invocation(inv)
        calls = llm_adapter_invoke(inv, config, executor)
        assert len(requests_seen) == 2
        assert [c.tool for c in calls] == ["get_system_status", "set_device_risky"]
        assert any(e.tool == "adapter_fallback" for e in executor.audit.entries)
    finally:
        server.shutdown()
        server.server_close()
        thread.join()
