"""Triggers, tool execution, scripted policy, external adapter."""

import functools
import inspect
import json
import logging
import random
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer

import pytest

from conftest import assert_no_ground_truth
from edgesched.metacontrol import (
    ANNOTATION_REASONS,
    SCRIPT,
    TOOLS,
    AdapterConfig,
    Invocation,
    MetaController,
    ToolCall,
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
from edgesched.profiles import LLM, SDXL, DevicePrior
from edgesched.router import DEFAULT_EXPLORE_WEIGHT_MS
from edgesched.sim.engine import EventAnnotation, ExecutionRecord


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


def serving_controller(now=0.0):
    """A controller over three seeded devices, serving a semantic onset at task 5."""
    meta = MetaController(
        [
            DevicePrior(0, LLM, alpha0=1.0, beta0=50.0),
            DevicePrior(1, LLM, alpha0=2.0, beta0=80.0),
            DevicePrior(2, SDXL, gamma0=4000.0),
        ]
    )
    meta.attach_telemetry(FakeTelemetry(now))
    meta.invocations.append(Invocation("semantic_onset", task_index=5, device=0))
    return meta


def make_controller(warmup_budget=0, now=0.0, **kwargs):
    meta = MetaController([DevicePrior(0, LLM, alpha0=1.0, beta0=50.0)], warmup_budget, **kwargs)
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
    meta.on_annotation(EventAnnotation(80, 0.0, "device_leave", 3))
    assert meta.invocations == [] and meta.trigger_state.cooldowns == {}
    meta.on_annotation(EventAnnotation(160, 0.0, "device_return", 3))
    [inv] = meta.invocations
    assert inv is not None and inv.reason == "churn_event"


def test_residual_alarm_respects_nonevent_gap():
    earlier = Invocation("semantic_onset", 30, device=0, label="game")
    state = TriggerState()
    state.fired.append(earlier)
    alarm = dict(device=1, model=LLM, ratio=2.0, sample_count=5)
    assert evaluate_triggers(Invocation("residual_alarm", 45, **alarm), state) is None  # gap 15 < 20
    assert state.fired == [earlier]  # a suppressed candidate is not recorded
    inv = evaluate_triggers(Invocation("residual_alarm", 50, **alarm), state)
    assert inv is not None and inv.reason == "residual_alarm"
    assert inv.ratio == 2.0
    assert state.fired == [earlier, inv]


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
    assert [i.task_index for i in state.fired] == [100, 120] and state.cooldowns == {}


def test_warmup_tick_fires_once_per_point():
    # The engine announces each task index once, so each point is a candidate once.
    meta = make_controller(warmup_budget=30)
    assert meta.warmup_points == {10, 30}
    for task_index in range(40):
        meta.on_task_arrival(task_index)
    assert [(i.task_index, i.label) for i in meta.invocations] == [(10, "first"), (30, "last")]


def test_the_controller_refits_every_five_tasks_below_the_warmup_budget():
    """The whole warmup schedule runs in the controller, no agent needed: a
    model refit at tasks 5..25, before the warmup point at task 10 fires,
    and the tool refit of the last warmup point at task 30."""
    priors = [DevicePrior(0, LLM, alpha0=1.0, beta0=50.0), DevicePrior(2, SDXL, gamma0=4000.0)]
    meta = MetaController(priors, warmup_budget=30)
    meta.attach_telemetry(FakeTelemetry())
    opm = meta.opm
    audited = []  # (tool, oplog length when its entry was appended)
    append = meta.audit.append
    meta.audit.append = lambda entry: (audited.append((entry.tool, len(opm.oplog))), append(entry))
    refits, after = {}, {}
    for k in range(31):
        device, kind, n_in, n_out = (0, LLM, 256, 32) if k % 2 else (2, SDXL, None, None)
        t = 1000.0 * k
        # Arrives and starts at t, completes 900 ms later.
        done = t + 900.0
        opm.ingest_feedback(ExecutionRecord(k, device, kind, t, t, t, done, n_in, n_out, 0), done)
        before = len(opm.oplog)
        meta.on_task_arrival(k)
        after[k] = len(opm.oplog)
        refits[k] = opm.oplog[before:]
    scheduled = [("refit", 0, LLM, 1, None), ("refit", 2, SDXL, 1, None)]
    assert {k: ops for k, ops in refits.items() if ops} == {
        **{k: scheduled for k in (5, 10, 15, 20, 25)},
        30: [("refit", 0, LLM, 1, 40), ("refit", 2, SDXL, 1, 40)],
    }
    assert audited == [
        ("switch_router", after[10]),
        ("trigger_online_profile_update", after[30]),
        ("switch_router", after[30]),
    ]


def test_single_warmup_point_is_treated_as_last():
    meta = make_controller(warmup_budget=5)
    meta.on_task_arrival(5)
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

    def is_drift_alarm(self, ratio, count):
        return True

    def refit_all(self, min_samples=1, window=None):  # the warmup schedule's refits
        return {}


@pytest.mark.parametrize("budget", [0, 5, 30])
def test_one_rule_fires_what_the_three_branch_rule_fired(budget):
    """3,000 seeded events through the three hooks fire, in order and field for
    field, what the three-branch rule fired for the same events."""
    rng = random.Random(budget)
    meta = make_controller(warmup_budget=budget, controller=lambda invocation, meta: [])
    meta.opm = AlarmingOpm()
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
            meta.on_task_arrival(task)
            feed(("warmup",), task)
        elif rng.random() < 0.2:
            device, type_ = rng.randrange(3), rng.choice(annotation_types)
            label = rng.choice(("game", "video")) if type_.startswith("semantic") else None
            meta.on_annotation(EventAnnotation(task, 0.0, type_, device, label))
            feed(("annotation", type_, device, label), task)
        else:
            device, model = rng.randrange(3), rng.choice((LLM, SDXL))
            meta.opm.alarm = ratio, count = rng.uniform(0.2, 3.0), rng.randrange(3, 9)
            record = ExecutionRecord(task, device, model, *[0.0] * 4, 1, 1, 0)
            meta.on_feedback(record, task)
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
    assert model_kind("resnet50") is None


def test_get_system_status_and_audit():
    meta = serving_controller(now=1234.0)
    result = meta.execute_tool(ToolCall("get_system_status", {}))
    assert result.ok
    assert result.payload["sim_time_ms"] == 1234.0
    entry = meta.audit.entries[-1]
    assert entry.tool == "get_system_status"
    assert entry.reason == "semantic_onset"
    assert entry.task_index == 5


def test_pull_observations_counts_stutter():
    meta = serving_controller()
    meta.telemetry._observations = [
        {"task_id": 0, "stutter": 1},
        {"task_id": 1, "stutter": 0},
        {"task_id": 2, "stutter": 1},
    ]
    result = meta.execute_tool(ToolCall("pull_observations", {"limit": 10}))
    assert result.ok
    assert result.payload["stutter_count"] == 2
    bad = meta.execute_tool(ToolCall("pull_observations", {"limit": 0}))
    assert not bad.ok


def test_compute_drift_empty_window():
    meta = serving_controller()
    result = meta.execute_tool(
        ToolCall("compute_drift", {"device": 0, "model": "llama3.1-8b-edge", "window_ms": 60000})
    )
    assert result.ok
    assert result.payload == {"ratio": 1.0, "sample_count": 0}


def test_update_calibration_logs_old_and_new():
    meta = serving_controller()
    result = meta.execute_tool(
        ToolCall("update_calibration", {"device": 0, "model": "LLM", "ratio": 2.0})
    )
    assert result.ok
    assert result.payload["old_factor"] == 1.0
    assert result.payload["new_factor"] == pytest.approx(1.3)
    delta = meta.audit.entries[-1].state_delta
    assert delta["calibration_factor"]["old"] == 1.0
    assert delta["calibration_factor"]["new"] == pytest.approx(1.3)
    bad = meta.execute_tool(
        ToolCall("update_calibration", {"device": 0, "model": "LLM", "ratio": -1})
    )
    assert not bad.ok


def test_switch_router_and_params():
    meta = serving_controller()
    result = meta.execute_tool(ToolCall("switch_router", {"router": "explore_risk"}))
    assert result.ok and meta.config.policy == "explore_risk"
    assert meta.audit.entries[-1].state_delta["policy"] == {
        "old": "sect",
        "new": "explore_risk",
    }
    bad = meta.execute_tool(ToolCall("switch_router", {"router": "random"}))
    assert not bad.ok and meta.config.policy == "explore_risk"
    result = meta.execute_tool(ToolCall("set_router_params", {"explore_weight_ms": 1500}))
    assert result.ok
    assert meta.config.explore_weight_ms == 1500
    assert meta.audit.entries[-1].state_delta == {
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
    meta = serving_controller()
    before = meta.config.to_dict()
    result = meta.execute_tool(ToolCall("set_router_params", arguments))
    assert not result.ok
    assert meta.config.to_dict() == before
    [entry] = meta.audit.entries
    assert entry.result == f"rejected: {result.error}" and entry.state_delta == {}


def test_update_calibration_rejects_bool_ratio():
    meta = serving_controller()
    result = meta.execute_tool(
        ToolCall("update_calibration", {"device": 0, "model": "LLM", "ratio": True})
    )
    assert not result.ok
    assert meta.opm.oplog[-1][0] == "seed"


def test_set_and_clear_device_risky():
    meta = serving_controller()
    result = meta.execute_tool(ToolCall("set_device_risky", {"device": 0}))
    assert result.ok
    assert result.payload["ttl"] == 50
    assert meta.overrides.is_risky(0)
    assert meta.audit.entries[-1].state_delta["risk_mask"] == {"old": [], "new": [0]}
    result = meta.execute_tool(ToolCall("clear_device_risky", {"device": 0}))
    assert result.ok and not meta.overrides.is_risky(0)
    bad = meta.execute_tool(ToolCall("set_device_risky", {"device": 0, "ttl": 0}))
    assert not bad.ok
    bad = meta.execute_tool(ToolCall("set_device_risky", {"device": 42}))
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
         "window must be an int in [1, 40], not a bool"),
        ("trigger_online_profile_update", {"window": 41, "min_samples": 1},
         "window must be an int in [1, 40], not a bool, got 41"),
        ("trigger_online_profile_update", {"window": 40, "min_samples": True},
         "min_samples must be an int >= 1, not a bool"),
        ("trigger_online_profile_update", {"window": 2.5, "min_samples": 1},
         "window must be an int in [1, 40], not a bool"),
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
        "pull-window-huge-int", "ratio-huge-int", "window-bool", "window-above-capacity", "min_samples-bool",
        "window-float", "device-bool", "device-float", "device-str", "calibration-device-bool",
        "model-int", "unknown-argument", "not-an-object", "missing-argument", "device-of-the-other-kind",
    ],
)
def test_tool_arguments_outside_their_contract_are_rejected(tool, arguments, contract):
    meta = serving_controller()
    oplog_len = len(meta.opm.oplog)
    result = meta.execute_tool(ToolCall(tool, arguments))
    assert not result.ok
    assert contract in result.error
    assert meta.audit.entries[-1].result == f"rejected: {result.error}"
    assert meta.audit.entries[-1].arguments == arguments  # as given
    assert meta.overrides.devices() == []
    assert len(meta.opm.oplog) == oplog_len
    assert all(e.calibration_factor == 1.0 for e in meta.opm.estimates.values())


def test_catalog_is_generated_from_the_table():
    catalog = {entry["function"]["name"]: entry["function"] for entry in _tool_catalog()}
    assert list(catalog) == list(TOOLS)
    for name, function in catalog.items():
        parameters = inspect.signature(getattr(MetaController, f"_tool_{name}")).parameters
        handler_args = [arg for arg in parameters if arg != "self"]
        schema = function["parameters"]
        assert function["description"] == TOOLS[name][0]
        assert list(schema["properties"]) == handler_args
        assert schema["required"] == [
            arg for arg in handler_args if parameters[arg].default is inspect.Parameter.empty
        ]
        assert schema["additionalProperties"] is False
    assert catalog["set_device_risky"]["parameters"]["properties"]["ttl"]["type"] == "integer"
    assert catalog["trigger_online_profile_update"]["parameters"]["properties"]["window"] == {
        "type": "integer", "minimum": 1, "maximum": 40, "description": "an int in [1, 40], not a bool"
    }
    assert catalog["set_router_params"]["parameters"]["required"] == ["explore_weight_ms"]
    assert catalog["switch_router"]["parameters"]["properties"]["router"]["enum"] == [
        "sect", "explore_risk"
    ]


def test_trigger_online_profile_update_refits_all():
    meta = serving_controller()
    result = meta.execute_tool(
        ToolCall("trigger_online_profile_update", {"window": 40, "min_samples": 3})
    )
    assert result.ok
    assert result.payload["refit"] == {"0": "insufficient", "1": "insufficient", "2": "insufficient"}
    bad = meta.execute_tool(
        ToolCall("trigger_online_profile_update", {"window": 0, "min_samples": 1})
    )
    assert not bad.ok


def test_unknown_tool_rejected_and_audited():
    meta = serving_controller()
    before = len(meta.audit.entries)
    result = meta.execute_tool(ToolCall("dispatch_task", {"task": 1}))
    assert not result.ok
    assert len(meta.audit.entries) == before + 1
    assert "rejected" in meta.audit.entries[-1].result


def test_tool_results_carry_no_ground_truth():
    meta = serving_controller()
    for call in (
        ToolCall("get_system_status", {}),
        ToolCall("pull_observations", {"limit": 5}),
        ToolCall("compute_drift", {"device": 0, "model": "LLM", "window_ms": 60000}),
        ToolCall("update_calibration", {"device": 0, "model": "LLM", "ratio": 1.1}),
        ToolCall("set_device_risky", {"device": 1}),
    ):
        result = meta.execute_tool(call)
        assert_no_ground_truth(result.payload)
    for entry in meta.audit.entries:
        assert_no_ground_truth(entry)


# --- scripted policy -----------------------------------------------------------------


def test_scripted_semantic_onset_sequence():
    meta = serving_controller()
    inv = Invocation("semantic_onset", 60, device=0, label="game")
    meta.invocations.append(inv)
    calls = scripted_policy(inv, meta)
    assert [c.tool for c in calls] == ["get_system_status", "set_device_risky"]
    assert calls[1].arguments == {"device": 0, "ttl": 50}
    assert meta.overrides.is_risky(0)


def test_scripted_semantic_offset_clears():
    meta = serving_controller()
    meta.overrides.set(0, 50)
    inv = Invocation("semantic_offset", 100, device=0, label="game")
    meta.invocations.append(inv)
    calls = scripted_policy(inv, meta)
    assert [c.tool for c in calls] == ["clear_device_risky"]
    assert not meta.overrides.is_risky(0)


def test_scripted_residual_alarm_diagnoses_then_refits():
    meta = serving_controller()
    # Feed the model so compute_drift sees a 2x mismatch.
    from edgesched.sim.engine import ExecutionRecord

    for i in range(4):
        # Each task runs 2 * 1856 ms, twice the seeded prediction, and completes at 1000 * i.
        start = 1000.0 * i - 2 * 1856.0
        meta.opm.ingest_feedback(
            ExecutionRecord(i, 0, LLM, start, start, start, 1000.0 * i, 256, 32, 0),
            now=1e9,
        )
    meta.telemetry._now = 4000.0
    inv = Invocation("residual_alarm", 130, device=0, model=LLM, ratio=2.0, sample_count=4)
    meta.invocations.append(inv)
    calls = scripted_policy(inv, meta)
    assert [c.tool for c in calls] == ["compute_drift", "trigger_online_profile_update"]
    [drift, refit] = meta.audit.entries
    assert drift.result == {"ratio": 2.0, "sample_count": 4}
    assert refit.result["refit"]["0"] == "updated"
    assert meta.opm.estimates[(0, LLM)].calibration_factor == 1.0
    assert meta.opm.estimates[(0, LLM)].alpha_hat != 1.0


def calibrating_transport(payload, config):
    """An adapter double for the controller whose residual alarm calibrated
    before it refit, kept here as the reference.  Round one answers the
    scripted calls, but for an alarm only its compute_drift; round two
    calibrates an alarm's device by the ratio that call read (unless it is 0
    or infinite) and then makes the scripted refit."""
    messages = payload["messages"]
    fields = json.loads(messages[1]["content"])
    del fields["context"]
    drift, *rest = scripted_calls(fields)
    if fields["reason"] != "residual_alarm":
        return adapter_response([] if len(messages) > 2 else [drift, *rest])
    if len(messages) == 2:
        return adapter_response([drift])
    ratio = json.loads(messages[-1]["content"]).get("ratio", 0)
    calibration = ("update_calibration", {"device": fields["device"], "model": fields["model"], "ratio": ratio})
    return adapter_response(([calibration] if 0 < ratio != float("inf") else []) + rest)


# name -> ExperimentConfig arguments; each run raises residual alarms
ALARM_CONFIGS = {
    "warmup_w30": {"scenario": "warmup", "warmup_budget": 30},
    "drift": {"scenario": "drift"},
    "semantic_h600_lam2": {"scenario": "semantic", "horizon": 600, "lam": 2.0},
    "drift_h600_lam2": {"scenario": "drift", "horizon": 600, "lam": 2.0},
}


@pytest.mark.parametrize("name", sorted(ALARM_CONFIGS))
def test_alarm_decides_what_the_calibrating_alarm_decided(name):
    """e3's records and decision trace equal those of the controller whose alarm
    calibrated first, because each calibration was erased by the refit that
    followed it in the same invocation before any prediction read it."""
    config = {**ALARM_CONFIGS[name], "policies": ("e3",), "trace_decisions": True}
    shipped = run_experiment(ExperimentConfig(**config))
    reference = run_experiment(ExperimentConfig(**config, adapter=DOUBLE, adapter_transport=calibrating_transport))
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
    meta = serving_controller()
    first = Invocation("warmup_point", 10, label="first")
    meta.invocations.append(first)
    meta.config.explore_weight_ms = 8000.0
    calls = scripted_policy(first, meta)
    assert [c.tool for c in calls] == ["switch_router"]
    assert meta.config.policy == "explore_risk"
    assert meta.config.explore_weight_ms == 8000.0  # the configured weight is kept

    last = Invocation("warmup_point", 30, label="last")
    meta.invocations.append(last)
    calls = scripted_policy(last, meta)
    assert [c.tool for c in calls] == ["trigger_online_profile_update", "switch_router"]
    assert meta.config.policy == "sect"
    refit_call = calls[0]
    assert refit_call.arguments["min_samples"] == 1


def test_scripted_churn_event_refreshes_estimates():
    meta = serving_controller()
    inv = Invocation("churn_event", 160, device=3)
    meta.invocations.append(inv)
    calls = scripted_policy(inv, meta)
    assert [c.tool for c in calls] == ["get_system_status", "trigger_online_profile_update"]
    assert calls[1].arguments["min_samples"] == 3


def test_script_has_a_row_for_each_reason_an_invocation_fires_for():
    assert set(SCRIPT) == {
        *ANNOTATION_REASONS.values(), "residual_alarm", ("warmup_point", "first"), ("warmup_point", "last")
    }


def test_script_rows_name_tools_their_arguments_and_invocation_fields():
    """Every template names a tool in TOOLS and only arguments that tool
    takes; an argument read off the invocation names one of its fields."""
    invocation = Invocation(*Invocation._fields)  # each field holds its own name
    for key, row in SCRIPT.items():
        assert row, key
        for tool, arguments in row:
            assert tool in TOOLS, key
            assert set(arguments) <= set(TOOLS[tool][1]), (key, tool)
            for name, value in arguments.items():
                if callable(value):
                    assert value(invocation) in Invocation._fields, (key, tool, name)


# --- external adapter ------------------------------------------------------------------


def adapter_response(tool_calls):
    """A chat-completions reply whose assistant message carries ``tool_calls``."""
    return {
        "choices": [
            {
                "message": {
                    "role": "assistant",
                    "content": None,
                    "tool_calls": [
                        {
                            "id": f"call_{i}",
                            "type": "function",
                            "function": {"name": name, "arguments": json.dumps(args)},
                        }
                        for i, (name, args) in enumerate(tool_calls)
                    ],
                }
            }
        ]
    }


def test_adapter_executes_returned_calls():
    meta = serving_controller()
    responses = [
        adapter_response([("set_device_risky", {"device": 1, "ttl": 20})]),
        adapter_response([]),
    ]

    def transport(payload, config):
        return responses.pop(0)

    inv = Invocation("semantic_onset", 60, device=1, label="game")
    meta.invocations.append(inv)
    calls = llm_adapter_invoke(inv, meta, AdapterConfig(url="http://x"), transport)
    assert [c.tool for c in calls] == ["set_device_risky"]
    assert meta.overrides.is_risky(1)


def test_adapter_rejects_out_of_bounds_but_continues():
    meta = serving_controller()
    responses = [
        adapter_response(
            [("set_device_risky", {"device": 1, "ttl": 0}), ("get_system_status", {})]
        ),
        adapter_response([]),
    ]

    def transport(payload, config):
        return responses.pop(0)

    inv = Invocation("semantic_onset", 60, device=1)
    meta.invocations.append(inv)
    llm_adapter_invoke(inv, meta, AdapterConfig(url="http://x"), transport)
    assert not meta.overrides.is_risky(1)
    tools_audited = [e.tool for e in meta.audit.entries]
    assert "set_device_risky" in tools_audited
    assert "get_system_status" in tools_audited


def test_adapter_survives_non_object_arguments_and_a_bad_model():
    meta = serving_controller()
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
    meta.invocations.append(inv)
    calls = llm_adapter_invoke(inv, meta, AdapterConfig(url="http://x"), transport)
    assert [c.tool for c in calls] == ["get_system_status", "compute_drift"]
    assert [(e.tool, e.arguments, e.result) for e in meta.audit.entries] == [
        ("get_system_status", [1], "rejected: arguments must be a JSON object, got [1]"),
        ("compute_drift", {"device": 0, "model": 5},
         "rejected: model must be an LLM or SDXL model name, got 5"),
    ]
    assert list(meta.audit.lines())  # rejected non-object arguments still serialize


def test_adapter_int_too_large_for_a_float_is_rejected_and_audited():
    meta = serving_controller()
    huge = 10**400
    responses = [
        adapter_response(
            [("set_router_params", {"explore_weight_ms": huge}), ("get_system_status", {})]
        ),
        adapter_response([]),
    ]

    def transport(payload, config):
        return responses.pop(0)

    weight = meta.config.explore_weight_ms
    inv = Invocation("semantic_onset", 60, device=1, label="game")
    meta.invocations.append(inv)
    calls = llm_adapter_invoke(inv, meta, AdapterConfig(url="http://x"), transport)
    assert [c.tool for c in calls] == ["set_router_params", "get_system_status"]
    rejected, status = meta.audit.entries
    assert rejected.result == f"rejected: explore_weight_ms must be a finite number >= 0, got {huge!r}"
    assert status.tool == "get_system_status" and isinstance(status.result, dict)
    assert meta.config.explore_weight_ms == weight
    assert list(meta.audit.lines())


def test_adapter_failure_falls_back_to_scripted():
    meta = serving_controller()

    def transport(payload, config):
        raise TimeoutError("no response in 10 s")

    inv = Invocation("semantic_onset", 60, device=0, label="game")
    meta.invocations.append(inv)
    calls = llm_adapter_invoke(inv, meta, AdapterConfig(url="http://x"), transport)
    # Identical tool sequence to the scripted policy for the same invocation.
    assert [c.tool for c in calls] == ["get_system_status", "set_device_risky"]
    assert any(e.tool == "adapter_fallback" for e in meta.audit.entries)
    assert meta.overrides.is_risky(0)


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

    adapter = AdapterConfig(url="http://x", model="m")
    controller = functools.partial(llm_adapter_invoke, endpoint=adapter, transport=transport)
    meta = make_controller(now=1234.0, controller=controller)
    meta.on_annotation(EventAnnotation(60, 1234.0, "semantic_onset", 0, "game"))
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
    """Round two follows the chat-completions tool protocol: the assistant
    message that carried round one's calls, then one tool message per call
    that answers its id, a rejected call with its error."""
    reply = adapter_response([("get_system_status", {}), ("set_device_risky", {"device": 0, "ttl": 0})])
    meta, payloads = adapter_controller([reply, adapter_response([])])
    first, second = payloads
    assert len(first["messages"]) == 2  # the first payload is not extended in place
    assert first["messages"][1]["content"] == ONSET_USER_MESSAGE
    assert second["messages"] == first["messages"] + [
        {"role": "assistant", "content": None, "tool_calls": reply["choices"][0]["message"]["tool_calls"]},
        {"role": "tool", "tool_call_id": "call_0",
         "content": '{"active_semantic_events": {}, "devices": {}, "sim_time_ms": 1234.0}'},
        {"role": "tool", "tool_call_id": "call_1",
         "content": '{"error": "ttl must be an int >= 1, not a bool, got 0"}'},
    ]
    assert second["model"] == "m" and second["tools"] == _tool_catalog()
    assert [e.tool for e in meta.audit.entries] == ["get_system_status", "set_device_risky"]


def test_adapter_round_cap_is_enforced():
    meta = serving_controller()

    def transport(payload, config):
        return adapter_response([("get_system_status", {})])

    inv = Invocation("churn_event", 160, device=3)
    meta.invocations.append(inv)
    calls = llm_adapter_invoke(inv, meta, AdapterConfig(url="http://x"), transport)
    assert len(calls) == 2  # two rounds maximum, despite endless responses


def test_controller_uses_scripted_when_adapter_disabled():
    """The adapter is off unless one is configured: the scripted policy answers."""
    meta = make_controller()
    meta.on_annotation(
        type("Ann", (), {"at_task": 60, "type": "semantic_onset", "device": 0, "label": "game"})()
    )
    assert len(meta.invocations) == 1
    assert meta.overrides.is_risky(0)
    assert [e.tool for e in meta.audit.entries] == ["get_system_status", "set_device_risky"]


def test_default_transport_posts_json_over_http(monkeypatch):
    requests_seen = []
    status = [200]
    bodies = []  # raw replies to send before the default one

    class Handler(BaseHTTPRequestHandler):
        def do_POST(self):
            body = self.rfile.read(int(self.headers["Content-Length"]))
            requests_seen.append(
                (json.loads(body), self.headers["Authorization"], self.headers["Content-Type"])
            )
            reply = bodies.pop() if bodies else json.dumps(adapter_response([])).encode()
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
        config = AdapterConfig(url=f"http://127.0.0.1:{server.server_port}/v1", timeout_s=5.0)
        payload = {"model": "m", "messages": [{"role": "user", "content": "x"}]}
        assert _default_transport(payload, config) == adapter_response([])
        assert requests_seen == [(payload, "Bearer key-123", "application/json")]
        bodies.append(b'{"choices": [], "choices": []}')
        with pytest.raises(ValueError, match="^repeated key 'choices'$"):
            _default_transport(payload, config)

        status[0] = 500
        meta = serving_controller()
        inv = Invocation("semantic_onset", 60, device=0, label="game")
        meta.invocations.append(inv)
        calls = llm_adapter_invoke(inv, meta, config)
        assert len(requests_seen) == 3
        assert [c.tool for c in calls] == ["get_system_status", "set_device_risky"]
        assert any(e.tool == "adapter_fallback" for e in meta.audit.entries)
    finally:
        server.shutdown()
        server.server_close()
        thread.join()


def test_adapter_second_round_failure_keeps_the_first_rounds_calls(caplog):
    with caplog.at_level(logging.WARNING, logger="edgesched.metacontrol"):
        meta, payloads = adapter_controller(
            [adapter_response([("get_system_status", {})]), TimeoutError("no second answer")]
        )
    assert len(payloads) == 2
    assert [e.tool for e in meta.audit.entries] == ["get_system_status"]  # no fallback
    assert "adapter round 2 failed (no second answer); stopping after round 1" in caplog.text


def onset_fallback_line(error, outcome):
    return (
        f'{{"arguments": {{"error": {json.dumps(error)}}}, "reason": "semantic_onset", '
        f'"result": "{outcome}; scripted policy used", "sim_time_ms": 1234.0, '
        '"state_delta": {}, "task_index": 60, "tool": "adapter_fallback"}'
    )


# A bad reply: (the reply, the error a round-one fallback records, or None when
# the reply parses but carries no calls).
BAD_REPLIES = {
    "raises": (TimeoutError("no answer"), "no answer"),
    "no-tool-calls": ({"choices": [{"message": {"role": "assistant", "content": "done"}}]}, None),
    "no-choices": ({"error": "busy"}, "'choices'"),
    # Plain json would read this as device 0 without a word.
    "repeated-key": ({"choices": [{"message": {"tool_calls": [
        {"id": "call_0", "function": {"name": "set_device_risky", "arguments": '{"device": 3, "device": 0}'}},
    ]}}]}, "repeated key 'device'"),
}


@pytest.mark.parametrize("bad", sorted(BAD_REPLIES))
@pytest.mark.parametrize("bad_round", [1, 2])
def test_adapter_exchange_when_a_round_fails(caplog, bad_round, bad):
    """What a failed or empty reply leaves behind, round by round: the audit
    lines, the requests sent, the second request's messages and the warnings.
    In round one it falls back to the scripted policy; in round two it stops
    the loop and keeps round one's calls."""
    reply, error = BAD_REPLIES[bad]
    status_call = adapter_response([("get_system_status", {})])
    replies = [reply] if bad_round == 1 else [status_call, reply]
    with caplog.at_level(logging.WARNING, logger="edgesched.metacontrol"):
        meta, payloads = adapter_controller(replies)
    warnings = [r.getMessage() for r in caplog.records if r.name == "edgesched.metacontrol"]
    assert replies == []  # every reply was asked for
    if bad_round == 1:
        assert len(payloads) == 1
        if error is None:
            fallback = onset_fallback_line("no tool calls returned", "adapter returned no tool calls")
            assert warnings == []
        else:
            fallback = onset_fallback_line(error, "adapter failure")
            assert warnings == [f"adapter failed ({error}); falling back to scripted policy"]
        assert list(meta.audit.lines()) == [fallback, *ONSET_SCRIPTED_AUDIT]
        assert meta.tool_calls == 2
        return
    first, second = payloads
    assert second["messages"] == first["messages"] + [
        {"role": "assistant", "content": None,
         "tool_calls": status_call["choices"][0]["message"]["tool_calls"]},
        {"role": "tool", "tool_call_id": "call_0",
         "content": '{"active_semantic_events": {}, "devices": {}, "sim_time_ms": 1234.0}'},
    ]
    assert list(meta.audit.lines()) == ONSET_SCRIPTED_AUDIT[:1]
    assert meta.tool_calls == 1
    if error is None:
        assert warnings == []
    else:
        assert warnings == [f"adapter round 2 failed ({error}); stopping after round 1"]


def test_an_adapter_call_named_like_the_fallback_is_rejected_and_counted():
    """The fallback note is no tool, so an adapter that asks for it by name
    makes a rejected call, which counts as a tool call like any other."""
    meta, payloads = adapter_controller([adapter_response([("adapter_fallback", {})]), adapter_response([])])
    assert len(payloads) == 2
    [entry] = meta.audit.entries
    assert (entry.tool, entry.result) == ("adapter_fallback", "rejected: unknown tool 'adapter_fallback'")
    assert meta.tool_calls == 1


def test_controller_without_telemetry_cannot_run_an_invocation():
    meta = MetaController([DevicePrior(0, LLM, alpha0=1.0, beta0=50.0)], warmup_budget=10)
    meta.on_task_arrival(9)  # no trigger, so nothing needs telemetry
    with pytest.raises(RuntimeError, match="meta-controller has no telemetry attached"):
        meta.on_task_arrival(10)


# --- adapter doubles inside an engine run ------------------------------------------

DOUBLE = AdapterConfig(url="http://double.invalid", model="m")


class _Unexecuted:
    """Takes tool calls without running them."""

    def execute_tool(self, call):
        return None


def answering(first_round):
    """An adapter transport: round one answers ``first_round(invocation fields)``,
    round two answers no calls.  Returns the transport and the invocations asked."""
    asked = []

    def transport(payload, config):
        messages = payload["messages"]
        if len(messages) > 2:
            return adapter_response([])
        fields = json.loads(messages[1]["content"])
        del fields["context"]
        asked.append(fields)
        return adapter_response(first_round(fields))

    return transport, asked


def scripted_calls(fields):
    calls = scripted_policy(Invocation(**fields), _Unexecuted())
    return [(c.tool, c.arguments) for c in calls]


SCRIPTED_DOUBLE_CONFIGS = {
    "warmup_w30": {"scenario": "warmup", "warmup_budget": 30},
    "semantic": {"scenario": "semantic"},
    "churn": {"scenario": "churn"},
    "drift": {"scenario": "drift"},
}


@pytest.mark.parametrize("name", sorted(SCRIPTED_DOUBLE_CONFIGS))
def test_adapter_answering_the_scripted_calls_writes_the_scripted_artifacts(name, tmp_path):
    config = {**SCRIPTED_DOUBLE_CONFIGS[name], "trace_decisions": True}
    scripted = run_experiment(ExperimentConfig(**config, out_dir=tmp_path / "scripted"))
    transport, asked = answering(scripted_calls)
    run_experiment(
        ExperimentConfig(**config, adapter=DOUBLE, adapter_transport=transport, out_dir=tmp_path / "adapter")
    )
    assert [Invocation(**fields) for fields in asked] == scripted.agent.meta.invocations != []
    files = sorted(p.name for p in (tmp_path / "scripted").iterdir())
    assert "decisions.log" in files and "audit.log" in files
    assert sorted(p.name for p in (tmp_path / "adapter").iterdir()) == files
    for file in files:
        assert (tmp_path / "adapter" / file).read_bytes() == (tmp_path / "scripted" / file).read_bytes(), file


def test_set_router_params_at_the_first_warmup_point_reaches_the_router():
    """The explore weight is set at run time through the tool surface: an
    adapter that adds set_router_params to the scripted first warmup point
    changes what e3 does, and setting the default weight changes nothing."""

    def e3_latency(weight=None):
        config = {"scenario": "warmup", "warmup_budget": 100, "policies": ("e3",)}
        if weight is not None:

            def first_round(fields):
                calls = scripted_calls(fields)
                if fields["label"] == "first":
                    calls.append(("set_router_params", {"explore_weight_ms": weight}))
                return calls

            config["adapter"], config["adapter_transport"] = DOUBLE, answering(first_round)[0]
        return run_experiment(ExperimentConfig(**config)).report.policies["e3"].avg_latency_ms

    default = e3_latency()
    assert round(default, 2) == 2715.29  # the warmup W=100 preset is unchanged
    assert e3_latency(DEFAULT_EXPLORE_WEIGHT_MS) == default
    assert e3_latency(0.0) != e3_latency(8000.0)


def test_tools_the_scripted_controller_never_calls_run_inside_an_engine():
    calls = [
        ("pull_observations", {"window_ms": 60000.0, "limit": 5}),
        ("update_calibration", {"device": 0, "model": "llama3.1-8b-edge", "ratio": 1.2}),
        ("set_router_params", {"explore_weight_ms": 1500.0}),
    ]
    transport, asked = answering(lambda fields: calls)
    result = run_experiment(ExperimentConfig("semantic", adapter=DOUBLE, adapter_transport=transport))
    entries = result.audit.entries
    assert len(asked) == len(result.agent.meta.invocations) > 0
    assert [(e.tool, e.arguments) for e in entries] == calls * len(asked)
    assert all(isinstance(e.result, dict) for e in entries)  # none rejected
    pulled = [e.result["observations"] for e in entries if e.tool == "pull_observations"]
    assert all(0 < len(rows) <= 5 for rows in pulled)
    assert result.agent.opm.estimates[(0, LLM)].calibration_factor != 1.0
    assert result.agent.config.explore_weight_ms == 1500.0
    for name, run in result.runs.items():
        assert sorted(r.task_id for r in run.records) == list(range(300)), name
