"""Slow-path, event-driven meta-control.

One :class:`MetaController` holds the control surface: the model's
calibration and refit entry points, the router config and the risk mask.
Triggers fire on exposed scenario annotations, residual alarms, and scheduled
warmup intervention points; a repeated annotation or warmup point is
suppressed by its signature's cooldown, a residual alarm by a minimum task gap
since the last invocation.  Every invocation acts through a closed set of nine
executable tools, which the controller checks against :data:`TOOLS`, runs and
records in an append-only audit log.  Below the warmup budget it also refits
the model every :data:`WARMUP_REFIT_PERIOD` tasks.  A deterministic scripted
policy is the default controller; an optional external chat-completions
adapter can drive the same tools for at most :data:`MAX_TOOL_ROUNDS` rounds
and falls back to the scripted policy when its first round fails.
"""

from __future__ import annotations

import functools
import inspect
import json
import logging
import os
from collections.abc import Iterator
from typing import NamedTuple

from .opm import DRIFT_WINDOW_MS, WINDOW, WINDOW_CAPACITY, Opm, UnknownDeviceError
from .profiles import COUNT, NAME, NON_NEGATIVE, POSITIVE, STRING, DevicePrior, check, is_int, model_kind
from .router import (
    DEFAULT_RISK_TTL_TASKS,
    EXPLORE_RISK,
    ROUTER_CHOICES,
    SECT,
    RiskOverrideTable,
    RouterConfig,
)

logger = logging.getLogger(__name__)

MAX_TOOL_ROUNDS = 2
MIN_NONEVENT_GAP = 20
WARMUP_REFIT_PERIOD = 5
ANOMALY_COOLDOWN = 20
# Annotation type -> invocation reason.  A departure needs no invocation: the
# feasible set and re-dispatch handle it; a return triggers an estimate refresh.
ANNOTATION_REASONS = {
    "semantic_onset": "semantic_onset",
    "semantic_offset": "semantic_offset",
    "device_return": "churn_event",
}


def warmup_points(budget: int) -> frozenset[int]:
    """Scheduled intervention points {min(10, W), W}; empty when W == 0."""
    if budget <= 0:
        return frozenset()
    return frozenset({min(10, budget), budget})


def _is_model(value: object) -> bool:
    return isinstance(value, str) and model_kind(value) is not None


# --- the tool table ------------------------------------------------------------
# An argument kind is a rule plus its JSON schema: (contract, check, schema).
COUNT = (*COUNT, {"type": "integer", "minimum": 1})
WINDOW = (*WINDOW, {"type": "integer", "minimum": 1, "maximum": WINDOW_CAPACITY})
POSITIVE = (*POSITIVE, {"type": "number", "exclusiveMinimum": 0})
NON_NEGATIVE = (*NON_NEGATIVE, {"type": "number", "minimum": 0})
ROUTER = (f"one of {ROUTER_CHOICES}", lambda v: v in ROUTER_CHOICES,
          {"type": "string", "enum": list(ROUTER_CHOICES)})
# The tool checker also checks that the OPM knows the device.
DEVICE = ("a device id the OPM knows", is_int, {"type": "integer"})
MODEL = ("an LLM or SDXL model name", _is_model, {"type": "string"})

# tool -> (description, {argument: kind}); ``MetaController._tool_<tool>`` holds the defaults
TOOLS = {
    "get_system_status": ("Queue lengths, utilization, sim time, exposed semantic events.", {}),
    "pull_observations": ("Recent completed-task summaries and stutter count.",
                          {"window_ms": POSITIVE, "limit": COUNT}),
    "compute_drift": ("Observed-to-predicted service ratio and sample count for a device-model.",
                      {"device": DEVICE, "model": MODEL, "window_ms": POSITIVE}),
    "update_calibration": ("Apply a smoothed multiplicative calibration correction.",
                           {"device": DEVICE, "model": MODEL, "ratio": POSITIVE}),
    "switch_router": ("Choose the fast-path scoring policy (sect or explore_risk).",
                      {"router": ROUTER}),
    "set_router_params": ("Set the exploration bonus weight in milliseconds.",
                          {"explore_weight_ms": NON_NEGATIVE}),
    "trigger_online_profile_update": ("Refit service-time estimates from recent completions.",
                                      {"window": WINDOW, "min_samples": COUNT}),
    "set_device_risky": ("Apply a risk override with a task-count TTL.",
                         {"device": DEVICE, "ttl": COUNT}),
    "clear_device_risky": ("Clear a device risk override.", {"device": DEVICE}),
}


class Invocation(NamedTuple):
    """One meta-controller activation: why, at which task, and about what."""

    reason: str
    task_index: int
    device: int | None = None
    label: str | None = None
    model: str | None = None
    ratio: float | None = None
    sample_count: int | None = None


class TriggerState:
    """The trigger rule's record: the invocations it let through and the cooldowns it set."""

    __slots__ = ("fired", "cooldowns")

    def __init__(self) -> None:
        self.fired: list[Invocation] = []  # every candidate let through, in order
        self.cooldowns: dict[tuple, int] = {}  # signature -> first task it fires again


def evaluate_triggers(candidate: Invocation, state: TriggerState) -> Invocation | None:
    """Return ``candidate``, appended to ``state.fired``, if it fires now, or
    None if it is suppressed.

    A residual alarm fires once ``MIN_NONEVENT_GAP`` tasks have passed since
    the last invocation, whatever its device and model, and sets no cooldown.
    Any other candidate (an annotation or a warmup point) holds its signature,
    (reason, device, label), for ``ANOMALY_COOLDOWN`` tasks.
    """
    now = candidate.task_index
    if candidate.reason == "residual_alarm":
        if state.fired and now - state.fired[-1].task_index < MIN_NONEVENT_GAP:
            return None
    else:
        signature = (candidate.reason, candidate.device, candidate.label)
        if now < state.cooldowns.get(signature, -(10**9)):
            return None
        state.cooldowns[signature] = now + ANOMALY_COOLDOWN
    state.fired.append(candidate)
    return candidate


class ToolCall(NamedTuple):
    tool: str
    arguments: dict


class ToolResult(NamedTuple):
    tool: str
    ok: bool
    payload: dict
    error: str | None = None


class AuditEntry(NamedTuple):
    """One meta-control action: what was asked, what happened, what changed."""

    task_index: int
    sim_time_ms: float
    reason: str
    tool: str
    arguments: object  # as the caller gave them; a rejected call's may not be a dict
    result: dict | str
    state_delta: dict


class AuditLog:
    """Append-only record of every tool execution (including rejections)."""

    def __init__(self) -> None:
        self.entries: list[AuditEntry] = []

    def append(self, entry: AuditEntry) -> None:
        self.entries.append(entry)

    def lines(self) -> Iterator[str]:
        """One JSON line per entry, without newlines; ``audit.log`` is these lines."""
        return (json.dumps(e._asdict(), sort_keys=True) for e in self.entries)


class MetaController:
    """The slow path: triggers, the nine tools, and their audit.

    It builds and holds the explicit control surface: a model seeded from
    ``priors`` (its calibration and refit entry points), the default router
    config and an empty risk mask.  Its tools are the only way a controller
    can change that surface; no tool can reach simulator ground truth.  The
    scripted policy answers each invocation, or the ``adapter`` endpoint
    does when one is given (over ``transport``, HTTP by default).  Every
    tool call, rejected or not, is audited under the invocation being
    served.  Below the warmup budget the model also refits every few tasks,
    so exploration samples become usable estimates quickly.
    """

    def __init__(
        self,
        priors: list[DevicePrior],
        warmup_budget: int = 0,
        adapter: AdapterConfig | None = None,
        transport=None,
    ) -> None:
        self.opm = Opm()
        self.opm.seed(priors)
        self.config = RouterConfig()
        self.overrides = RiskOverrideTable()
        self.warmup_budget = warmup_budget
        self.audit = AuditLog()
        self.adapter = adapter
        self.transport = transport
        self.warmup_points = warmup_points(warmup_budget)
        self.trigger_state = TriggerState()
        self.telemetry = None

    @property
    def invocations(self) -> list[Invocation]:
        """Every invocation the trigger rule let through; the last is the one being served."""
        return self.trigger_state.fired

    @property
    def llm_calls(self) -> int:
        return len(self.invocations)

    @property
    def tool_calls(self) -> int:
        """Tool calls run or rejected: every audit entry but the adapter's fallback
        notes, though a rejected call that an adapter named like one counts."""
        entries = self.audit.entries
        return sum(e.tool != "adapter_fallback" or e.result.startswith("rejected: ") for e in entries)

    def attach_telemetry(self, telemetry) -> None:
        self.telemetry = telemetry

    def _invoke(self, candidate: Invocation) -> None:
        """Run the controller on ``candidate`` if the trigger rule lets it fire."""
        invocation = evaluate_triggers(candidate, self.trigger_state)
        if invocation is None:
            return
        if self.telemetry is None:
            raise RuntimeError("meta-controller has no telemetry attached")
        if self.adapter is not None:
            llm_adapter_invoke(invocation, self.adapter, self, self.transport)
        else:
            scripted_policy(invocation, self)

    # -- tool execution ----------------------------------------------------------

    def _audit(self, call: ToolCall, result: dict | str, delta: dict) -> None:
        invocation = self.invocations[-1]  # the one being served
        self.audit.append(
            AuditEntry(
                task_index=invocation.task_index,
                sim_time_ms=self.telemetry.now(),
                reason=invocation.reason,
                tool=call.tool,
                arguments=call.arguments,
                result=result,
                state_delta=delta,
            )
        )

    def _reject(self, call: ToolCall, message: str) -> ToolResult:
        self._audit(call, f"rejected: {message}", {})
        return ToolResult(call.tool, False, {}, message)

    def _check(self, call: ToolCall) -> str | None:
        """The first contract in :data:`TOOLS` that ``call`` breaks, or None."""
        if not isinstance(call.tool, str) or call.tool not in TOOLS:
            return f"unknown tool {call.tool!r}"
        if not isinstance(call.arguments, dict):
            return f"arguments must be a JSON object, got {call.arguments!r}"
        kinds = TOOLS[call.tool][1]
        for name, value in call.arguments.items():
            if name not in kinds:
                return f"{call.tool} takes no argument {name!r}; it takes {sorted(kinds)}"
            rule = kinds[name]
            if rule is DEVICE:
                rule = (DEVICE[0], lambda v: is_int(v) and v in {d for d, _kind in self.opm.estimates})
            try:
                check(name, value, rule)
            except ValueError as exc:
                return str(exc)
        missing = [name for name in _required(call.tool) if name not in call.arguments]
        return f"{call.tool} needs argument {missing[0]!r}" if missing else None

    def execute_tool(self, call: ToolCall) -> ToolResult:
        """Check, run and audit one call; a rejected call counts and is audited too."""
        error = self._check(call)
        if error is not None:
            return self._reject(call, error)
        try:
            payload, delta = getattr(self, f"_tool_{call.tool}")(**call.arguments)
        except UnknownDeviceError as exc:  # the OPM knows the device, but not for this model
            return self._reject(call, str(exc))
        self._audit(call, payload, delta)
        return ToolResult(call.tool, True, payload)

    # -- sensing ---------------------------------------------------------------

    def _tool_get_system_status(self) -> tuple[dict, dict]:
        return self.telemetry.system_status(), {}

    def _tool_pull_observations(
        self, window_ms: float | None = None, limit: int = 50
    ) -> tuple[dict, dict]:
        rows = self.telemetry.observations(window_ms, limit)
        return {"observations": rows, "stutter_count": sum(r["stutter"] for r in rows)}, {}

    # -- diagnosis ---------------------------------------------------------------

    def _tool_compute_drift(
        self, device: int, model: str, window_ms: float = DRIFT_WINDOW_MS
    ) -> tuple[dict, dict]:
        now = self.telemetry.now()
        ratio, count = self.opm.drift_ratio(device, model_kind(model), window_ms, now)
        return {"ratio": ratio, "sample_count": count}, {}

    # -- actuation ---------------------------------------------------------------

    def _tool_update_calibration(self, device: int, model: str, ratio: float) -> tuple[dict, dict]:
        old, new = self.opm.apply_calibration(device, model_kind(model), ratio)
        return {"old_factor": old, "new_factor": new}, {
            "calibration_factor": {"device": device, "old": old, "new": new}
        }

    def _tool_switch_router(self, router: str) -> tuple[dict, dict]:
        old = self.config.policy
        self.config.policy = router
        return {"router": router}, {"policy": {"old": old, "new": router}}

    def _tool_set_router_params(self, explore_weight_ms: float) -> tuple[dict, dict]:
        old = self.config.explore_weight_ms
        self.config.explore_weight_ms = explore_weight_ms
        return self.config.to_dict(), {"explore_weight_ms": {"old": old, "new": explore_weight_ms}}

    def _tool_trigger_online_profile_update(
        self, window: int = WINDOW_CAPACITY, min_samples: int = 1
    ) -> tuple[dict, dict]:
        statuses = self.opm.refit_all(min_samples, window)
        refit = {str(d): s for d, s in statuses.items()}
        return {"refit": refit}, {"refit": dict(refit)}

    def _tool_set_device_risky(
        self, device: int, ttl: int = DEFAULT_RISK_TTL_TASKS
    ) -> tuple[dict, dict]:
        old_mask = self.overrides.devices()
        self.overrides.set(device, ttl)
        new_mask = self.overrides.devices()
        return {"device": device, "ttl": ttl}, {"risk_mask": {"old": old_mask, "new": new_mask}}

    def _tool_clear_device_risky(self, device: int) -> tuple[dict, dict]:
        old_mask = self.overrides.devices()
        cleared = self.overrides.clear(device)
        new_mask = self.overrides.devices()
        return {"device": device, "cleared": cleared}, {
            "risk_mask": {"old": old_mask, "new": new_mask}
        }

    # -- engine-facing hooks -----------------------------------------------------

    def on_task_arrival(self, task_index: int) -> None:
        if 0 < task_index < self.warmup_budget and task_index % WARMUP_REFIT_PERIOD == 0:
            self.opm.refit_all(min_samples=1)  # before a warmup point at this task fires
        if task_index in self.warmup_points:
            # Of two points the earlier is "first"; a single point is "last".
            first = task_index < max(self.warmup_points)
            self._invoke(Invocation("warmup_point", task_index, label="first" if first else "last"))

    def on_annotation(self, annotation) -> None:
        reason = ANNOTATION_REASONS.get(annotation.type)
        if reason is not None:
            self._invoke(Invocation(reason, annotation.at_task, device=annotation.device, label=annotation.label))

    def on_feedback(self, record, now_task: int) -> None:
        ratio, count = self.opm.drift_ratio(
            record.device_id, record.kind, DRIFT_WINDOW_MS, record.completion_time
        )
        if self.opm.is_drift_alarm(ratio, count):
            self._invoke(
                Invocation(
                    "residual_alarm", now_task, device=record.device_id, model=record.kind,
                    ratio=ratio, sample_count=count,
                )
            )


@functools.cache
def _required(tool: str) -> tuple[str, ...]:
    """The arguments of ``tool`` that its handler has no default for."""
    params = inspect.signature(getattr(MetaController, f"_tool_{tool}")).parameters.values()
    return tuple(p.name for p in params if p.default is p.empty and p.name != "self")


def scripted_policy(invocation: Invocation, meta: MetaController) -> list[ToolCall]:
    """Deterministic reference controller: one fixed round of tools per trigger.

    A residual alarm records the drift ratio that raised it and refits.  It
    does not calibrate: the refit always updates the alarm's device, which
    has at least :data:`opm.ALARM_MIN_SAMPLES` records, and would reset the
    calibration before any prediction read it.
    """
    reason = invocation.reason
    device = invocation.device
    calls: list[ToolCall] = []
    if reason == "semantic_onset":
        calls = [
            ToolCall("get_system_status", {}),
            ToolCall("set_device_risky", {"device": device, "ttl": DEFAULT_RISK_TTL_TASKS}),
        ]
    elif reason == "semantic_offset":
        calls = [ToolCall("clear_device_risky", {"device": device})]
    elif reason == "residual_alarm":
        calls = [
            ToolCall(
                "compute_drift",
                {"device": device, "model": invocation.model, "window_ms": DRIFT_WINDOW_MS},
            ),
            ToolCall("trigger_online_profile_update", {"window": WINDOW_CAPACITY, "min_samples": 3}),
        ]
    elif reason == "warmup_point" and invocation.label == "first":
        # Explore mode uses the configured weight; the controller sets none.
        calls = [ToolCall("switch_router", {"router": EXPLORE_RISK})]
    elif reason == "warmup_point":
        calls = [
            ToolCall("trigger_online_profile_update", {"window": WINDOW_CAPACITY, "min_samples": 1}),
            ToolCall("switch_router", {"router": SECT}),
        ]
    elif reason == "churn_event":
        calls = [
            ToolCall("get_system_status", {}),
            ToolCall("trigger_online_profile_update", {"window": WINDOW_CAPACITY, "min_samples": 3}),
        ]
    for call in calls:
        meta.execute_tool(call)
    return calls


# --- optional external controller -------------------------------------------


# AdapterConfig field -> rule, in field order
_ADAPTER_FIELDS = {"url": NAME, "model": STRING, "api_key_env": NAME, "timeout_s": POSITIVE}


class AdapterConfig:
    """External chat-completions endpoint settings; ``url`` must be given.

    A controller that holds one drives every invocation through the endpoint.
    """

    __slots__ = tuple(_ADAPTER_FIELDS)

    def __init__(
        self, url: str = "", model: str = "", api_key_env: str = "EDGESCHED_ADAPTER_API_KEY",
        timeout_s: float = 10.0,
    ) -> None:
        for name, value in zip(self.__slots__, (url, model, api_key_env, timeout_s)):
            check(f"adapter {name}", value, _ADAPTER_FIELDS[name])
            setattr(self, name, value)


def _tool_catalog() -> list[dict]:
    """The chat-completions tool list, generated from :data:`TOOLS`."""
    return [
        {
            "type": "function",
            "function": {
                "name": name,
                "description": description,
                "parameters": {
                    "type": "object",
                    "properties": {
                        arg: {**schema, "description": contract}
                        for arg, (contract, _check, schema) in kinds.items()
                    },
                    "required": list(_required(name)),
                    "additionalProperties": False,
                },
            },
        }
        for name, (description, kinds) in TOOLS.items()
    ]


def _default_transport(payload: dict, config: AdapterConfig) -> dict:
    """POST the payload as JSON; a non-2xx status raises ``HTTPError``."""
    import urllib.request  # only adapter runs pay for the import

    headers = {"Content-Type": "application/json"}
    api_key = os.environ.get(config.api_key_env, "")
    if api_key:
        headers["Authorization"] = f"Bearer {api_key}"
    request = urllib.request.Request(
        config.url, data=json.dumps(payload).encode(), headers=headers, method="POST"
    )
    with urllib.request.urlopen(request, timeout=config.timeout_s) as response:
        return json.load(response)


def _parse_tool_calls(response: dict) -> tuple[dict, list[ToolCall]]:
    """The reply's assistant message and the tool calls it carries, in order."""
    calls = []
    message = response["choices"][0]["message"]
    for item in message.get("tool_calls") or []:
        function = item["function"]
        arguments = function.get("arguments", {})
        if isinstance(arguments, str):
            arguments = json.loads(arguments) if arguments else {}
        calls.append(ToolCall(function["name"], arguments))
    return message, calls


def llm_adapter_invoke(
    invocation: Invocation,
    endpoint: AdapterConfig,
    meta: MetaController,
    transport=None,
) -> list[ToolCall]:
    """Drive one invocation through an external controller endpoint.

    The exchange follows the chat-completions tool protocol: message list
    plus tool catalog out, an assistant message with tool calls back.  Each
    later round's messages add that assistant message and one ``tool``
    message per call, answering its id.  The loop runs at most
    :data:`MAX_TOOL_ROUNDS` rounds.  A failed (timeout, transport error,
    unparseable reply) or empty first round falls back to the scripted
    policy, and the fallback itself is audited; a failed or empty later
    round ends the loop with the calls already made.
    """
    transport = transport or _default_transport
    user = {**invocation._asdict(), "context": meta.telemetry.system_status()}
    messages = [
        {
            "role": "system",
            "content": (
                "You manage an edge inference device pool through the provided tools. "
                "Respond only with tool calls; at most two rounds are executed."
            ),
        },
        {"role": "user", "content": json.dumps(user, sort_keys=True)},
    ]
    made: list[ToolCall] = []
    for round_ in range(1, MAX_TOOL_ROUNDS + 1):
        payload = {"model": endpoint.model, "messages": messages, "tools": _tool_catalog()}
        try:
            message, calls = _parse_tool_calls(transport(payload, endpoint))
            error, outcome = "no tool calls returned", "adapter returned no tool calls"
        except Exception as exc:  # network, schema, or JSON failure
            if made:
                logger.warning("adapter round %d failed (%s); stopping after round %d", round_, exc, round_ - 1)
            else:
                logger.warning("adapter failed (%s); falling back to scripted policy", exc)
            calls, error, outcome = [], str(exc), "adapter failure"
        if not calls:
            break
        results = [meta.execute_tool(call) for call in calls]
        made.extend(calls)
        if round_ == MAX_TOOL_ROUNDS:
            break
        items = message["tool_calls"]
        messages = [
            *messages,
            {"role": "assistant", "content": message.get("content"), "tool_calls": items},
            *(
                {
                    "role": "tool",
                    "tool_call_id": item.get("id"),
                    "content": json.dumps(r.payload if r.ok else {"error": r.error}, sort_keys=True),
                }
                for item, r in zip(items, results)
            ),
        ]
    if made:
        return made
    meta._audit(ToolCall("adapter_fallback", {"error": error}), f"{outcome}; scripted policy used", {})
    return scripted_policy(invocation, meta)
