"""Slow-path, event-driven meta-control.

Triggers fire on exposed scenario annotations, residual alarms, and scheduled
warmup intervention points; a repeated annotation or warmup point is
suppressed by its signature's cooldown, a residual alarm by a minimum task gap
since the last invocation.  Every invocation acts through a closed set of nine
executable tools, each bounded, validated, and recorded in an append-only
audit log.  A deterministic scripted policy is
the default controller; an optional external chat-completions adapter can
drive the same tools and falls back to the scripted policy on any failure.
"""

from __future__ import annotations

import functools
import inspect
import json
import logging
import os
from collections.abc import Iterator
from dataclasses import asdict, dataclass, field, fields

from .opm import DRIFT_WINDOW_MS, Opm, UnknownDeviceError
from .profiles import is_finite_number, is_int, model_kind
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
ANOMALY_COOLDOWN = 20
ALARM_MIN_SAMPLES = 3
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
    try:
        return isinstance(value, str) and bool(model_kind(value))
    except ValueError:
        return False


# --- the tool table ------------------------------------------------------------
# An argument kind is (contract, check, JSON schema); a rejection reads
# "<name> must be <contract>, got <value!r>".
COUNT = ("an int >= 1, not a bool", lambda v: is_int(v) and v >= 1,
         {"type": "integer", "minimum": 1})
POSITIVE = ("a finite number > 0", lambda v: is_finite_number(v) and v > 0,
            {"type": "number", "exclusiveMinimum": 0})
NON_NEGATIVE = ("a finite number >= 0", lambda v: is_finite_number(v) and v >= 0,
                {"type": "number", "minimum": 0})
ROUTER = (f"one of {ROUTER_CHOICES}", lambda v: v in ROUTER_CHOICES,
          {"type": "string", "enum": list(ROUTER_CHOICES)})
# The executor also checks that the OPM knows the device.
DEVICE = ("a device id the OPM knows", is_int, {"type": "integer"})
MODEL = ("an LLM or SDXL model name", _is_model, {"type": "string"})

# tool -> (description, {argument: kind}); ``ToolExecutor._tool_<tool>`` holds the defaults
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
                                      {"window": COUNT, "min_samples": COUNT}),
    "set_device_risky": ("Apply a risk override with a task-count TTL.",
                         {"device": DEVICE, "ttl": COUNT}),
    "clear_device_risky": ("Clear a device risk override.", {"device": DEVICE}),
}


@dataclass
class TriggerState:
    """Suppression bookkeeping for the event-driven controller."""

    warmup_points: frozenset[int] = frozenset()
    last_invocation_task: int = -(10**9)
    cooldowns: dict[tuple, float] = field(default_factory=dict)


@dataclass(frozen=True)
class Invocation:
    """One meta-controller activation: why, at which task, and about what."""

    reason: str
    task_index: int
    device: int | None = None
    label: str | None = None
    model: str | None = None
    ratio: float | None = None
    sample_count: int | None = None


def evaluate_triggers(candidate: Invocation, state: TriggerState) -> Invocation | None:
    """Return ``candidate`` if it fires now, or None if it is suppressed.

    A residual alarm fires once ``MIN_NONEVENT_GAP`` tasks have passed since
    the last invocation, whatever its device and model, and sets no cooldown.
    Any other candidate's signature is (reason, device, label): a fired
    warmup point holds it for the rest of the run, an annotation for
    ``ANOMALY_COOLDOWN`` tasks.
    """
    now = candidate.task_index
    if candidate.reason == "residual_alarm":
        if now - state.last_invocation_task < MIN_NONEVENT_GAP:
            return None
    else:
        signature = (candidate.reason, candidate.device, candidate.label)
        if now < state.cooldowns.get(signature, -(10**9)):
            return None
        forever = candidate.reason == "warmup_point"
        state.cooldowns[signature] = float("inf") if forever else now + ANOMALY_COOLDOWN
    state.last_invocation_task = now
    return candidate


@dataclass(frozen=True)
class ToolCall:
    tool: str
    arguments: dict


@dataclass(frozen=True)
class ToolResult:
    tool: str
    ok: bool
    payload: dict
    error: str | None = None


@dataclass(frozen=True)
class AuditEntry:
    """One meta-control action: what was asked, what happened, what changed."""

    task_index: int
    sim_time_ms: float
    reason: str
    tool: str
    arguments: object  # as the caller gave them; a rejected call's may not be a dict
    result: dict | str
    state_delta: dict

    def to_dict(self) -> dict:
        # Field-wise and shallow: asdict deep-copies (slow), vars() materialises a __dict__.
        return {f.name: getattr(self, f.name) for f in fields(self)}


class AuditLog:
    """Append-only record of every tool execution (including rejections)."""

    def __init__(self) -> None:
        self.entries: list[AuditEntry] = []

    def append(self, entry: AuditEntry) -> None:
        self.entries.append(entry)

    def lines(self) -> Iterator[str]:
        """One JSON line per entry, without newlines; ``audit.log`` is these lines."""
        return (json.dumps(e.to_dict(), sort_keys=True) for e in self.entries)

    def to_jsonl(self) -> str:
        return "\n".join(self.lines())


class ToolExecutor:
    """Validates and executes tool calls against the live agent state.

    The executor can mutate only the explicit control surface: the model's
    calibration/refit entry points, the router config, and the risk mask.
    No tool can reach simulator ground truth.
    """

    def __init__(
        self,
        opm: Opm,
        config: RouterConfig,
        overrides: RiskOverrideTable,
        telemetry,
        audit: AuditLog,
    ) -> None:
        self.opm = opm
        self.config = config
        self.overrides = overrides
        self.telemetry = telemetry
        self.audit = audit
        self.tool_calls = 0
        self._reason = "unsolicited"
        self._task_index = -1
        self._rounds_used = 0

    def begin_invocation(self, invocation: Invocation) -> None:
        self._reason = invocation.reason
        self._task_index = invocation.task_index
        self._rounds_used = 0

    def execute_round(self, calls: list[ToolCall]) -> list[ToolResult]:
        """Execute one batch of calls; batches beyond the round cap are rejected."""
        if self._rounds_used >= MAX_TOOL_ROUNDS:
            return [self._reject(call, "tool round cap exceeded") for call in calls]
        self._rounds_used += 1
        return [self.execute_tool(call) for call in calls]

    def _audit(self, call: ToolCall, result: dict | str, delta: dict) -> None:
        self.audit.append(
            AuditEntry(
                task_index=self._task_index,
                sim_time_ms=self.telemetry.now(),
                reason=self._reason,
                tool=call.tool,
                arguments=call.arguments,
                result=result,
                state_delta=delta,
            )
        )

    def _reject(self, call: ToolCall, message: str) -> ToolResult:
        self.tool_calls += 1
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
            contract, check, _schema = kinds[name]
            if not check(value) or (
                kinds[name] is DEVICE and value not in {d for d, _kind in self.opm.estimates}
            ):
                return f"{name} must be {contract}, got {value!r}"
        missing = [name for name in _required(call.tool) if name not in call.arguments]
        return f"{call.tool} needs argument {missing[0]!r}" if missing else None

    def execute_tool(self, call: ToolCall) -> ToolResult:
        error = self._check(call)
        if error is not None:
            return self._reject(call, error)
        try:
            payload, delta = getattr(self, f"_tool_{call.tool}")(**call.arguments)
        except UnknownDeviceError as exc:  # the OPM knows the device, but not for this model
            return self._reject(call, str(exc))
        self.tool_calls += 1
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
        self, window: int = 40, min_samples: int = 1
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


@functools.cache
def _required(tool: str) -> tuple[str, ...]:
    """The arguments of ``tool`` that its handler has no default for."""
    params = inspect.signature(getattr(ToolExecutor, f"_tool_{tool}")).parameters.values()
    return tuple(p.name for p in params if p.default is p.empty and p.name != "self")


def scripted_policy(invocation: Invocation, executor: ToolExecutor) -> list[ToolCall]:
    """Deterministic reference controller: one fixed round of tools per trigger.

    A residual alarm records the drift ratio that raised it and refits.  It
    does not calibrate: the refit always updates the alarm's device, which
    has at least :data:`ALARM_MIN_SAMPLES` records, and would reset the
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
            ToolCall("trigger_online_profile_update", {"window": 40, "min_samples": 3}),
        ]
    elif reason == "warmup_point" and invocation.label == "first":
        # Explore mode uses the configured weight; the controller sets none.
        calls = [ToolCall("switch_router", {"router": EXPLORE_RISK})]
    elif reason == "warmup_point":
        calls = [
            ToolCall("trigger_online_profile_update", {"window": 40, "min_samples": 1}),
            ToolCall("switch_router", {"router": SECT}),
        ]
    elif reason == "churn_event":
        calls = [
            ToolCall("get_system_status", {}),
            ToolCall("trigger_online_profile_update", {"window": 40, "min_samples": 3}),
        ]
    if calls:
        executor.execute_round(calls)
    return calls


# --- optional external controller -------------------------------------------


@dataclass
class AdapterConfig:
    """External chat-completions endpoint settings; disabled by default."""

    enabled: bool = False
    url: str = ""
    model: str = ""
    api_key_env: str = "EDGESCHED_ADAPTER_API_KEY"
    timeout_s: float = 10.0

    def __post_init__(self) -> None:
        for name, (contract, check) in _ADAPTER_FIELDS.items():
            value = getattr(self, name)
            if not check(value):
                raise ValueError(f"adapter {name} must be {contract}, got {value!r}")


# AdapterConfig field -> (contract, check)
_ADAPTER_FIELDS = {
    "enabled": ("a bool", lambda v: isinstance(v, bool)),
    "url": ("a string", lambda v: isinstance(v, str)),
    "model": ("a string", lambda v: isinstance(v, str)),
    "api_key_env": ("a non-empty string", lambda v: isinstance(v, str) and v != ""),
    "timeout_s": POSITIVE[:2],
}


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


def _parse_tool_calls(response: dict) -> list[ToolCall]:
    calls = []
    message = response["choices"][0]["message"]
    for item in message.get("tool_calls") or []:
        function = item["function"]
        arguments = function.get("arguments", {})
        if isinstance(arguments, str):
            arguments = json.loads(arguments) if arguments else {}
        calls.append(ToolCall(function["name"], arguments))
    return calls


def llm_adapter_invoke(
    invocation: Invocation,
    endpoint: AdapterConfig,
    executor: ToolExecutor,
    transport=None,
) -> list[ToolCall]:
    """Drive one invocation through an external controller endpoint.

    The exchange uses a chat-completions-style schema: message list plus tool
    catalog out, tool-call list back, at most two rounds.  Timeouts, transport
    errors, or an empty/unparseable first round fall back to the scripted
    policy; the fallback itself is audited.
    """
    transport = transport or _default_transport
    user = {**asdict(invocation), "context": executor.telemetry.system_status()}
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

    def ask() -> list[ToolCall]:
        payload = {"model": endpoint.model, "messages": messages, "tools": _tool_catalog()}
        return _parse_tool_calls(transport(payload, endpoint))

    try:
        calls = ask()
        error, outcome = "no tool calls returned", "adapter returned no tool calls"
    except Exception as exc:  # network, schema, or JSON failure
        logger.warning("adapter failed (%s); falling back to scripted policy", exc)
        calls, error, outcome = [], str(exc), "adapter failure"
    if not calls:
        executor._audit(
            ToolCall("adapter_fallback", {"error": error}), f"{outcome}; scripted policy used", {}
        )
        return scripted_policy(invocation, executor)

    made: list[ToolCall] = []
    for _round in range(MAX_TOOL_ROUNDS):
        results = executor.execute_round(calls)
        made.extend(calls)
        if _round + 1 >= MAX_TOOL_ROUNDS:
            break
        messages = messages + [
            {"role": "tool", "name": r.tool, "content": json.dumps(r.payload if r.ok else {"error": r.error}, sort_keys=True)}
            for r in results
        ]
        try:
            calls = ask()
        except Exception as exc:
            logger.warning("adapter round 2 failed (%s); stopping after round 1", exc)
            break
        if not calls:
            break
    return made


class MetaController:
    """Event-driven controller orchestrating triggers, tools, and audit."""

    def __init__(
        self,
        opm: Opm,
        config: RouterConfig,
        overrides: RiskOverrideTable,
        warmup_budget: int = 0,
        audit: AuditLog | None = None,
        adapter: AdapterConfig | None = None,
        transport=None,
    ) -> None:
        self.opm = opm
        self.config = config
        self.overrides = overrides
        self.audit = audit or AuditLog()
        self.adapter = adapter
        self.transport = transport
        self.trigger_state = TriggerState(warmup_points(warmup_budget))
        self.executor: ToolExecutor | None = None
        self.invocations: list[Invocation] = []

    @property
    def llm_calls(self) -> int:
        return len(self.invocations)

    @property
    def tool_calls(self) -> int:
        return self.executor.tool_calls if self.executor is not None else 0

    def attach_telemetry(self, telemetry) -> None:
        self.executor = ToolExecutor(
            self.opm, self.config, self.overrides, telemetry, self.audit
        )

    def _invoke(self, candidate: Invocation) -> None:
        """Run the controller on ``candidate`` if the trigger rule lets it fire."""
        invocation = evaluate_triggers(candidate, self.trigger_state)
        if invocation is None:
            return
        if self.executor is None:
            raise RuntimeError("meta-controller has no telemetry attached")
        self.invocations.append(invocation)
        self.executor.begin_invocation(invocation)
        if self.adapter is not None and self.adapter.enabled:
            llm_adapter_invoke(invocation, self.adapter, self.executor, self.transport)
        else:
            scripted_policy(invocation, self.executor)

    # -- engine-facing hooks -----------------------------------------------------

    def on_task_arrival(self, task_index: int, now: float) -> None:
        points = self.trigger_state.warmup_points
        if task_index in points:
            # Of two points the earlier is "first"; a single point is "last".
            first = task_index == min(points) and len(points) > 1
            self._invoke(Invocation("warmup_point", task_index, label="first" if first else "last"))

    def on_annotation(self, annotation, now_task: int) -> None:
        reason = ANNOTATION_REASONS.get(annotation.type)
        if reason is not None:
            self._invoke(Invocation(reason, now_task, device=annotation.device, label=annotation.label))

    def on_feedback(self, record, now: float, now_task: int) -> None:
        ratio, count = self.opm.drift_ratio(
            record.device_id, record.kind, DRIFT_WINDOW_MS, now
        )
        if self.opm.is_drift_alarm(ratio, count, ALARM_MIN_SAMPLES):
            self._invoke(
                Invocation(
                    "residual_alarm", now_task, device=record.device_id, model=record.kind,
                    ratio=ratio, sample_count=count,
                )
            )
