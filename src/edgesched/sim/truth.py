"""Simulator-private ground truth and scenario plans.

GroundTruthState holds the time-varying per-device service coefficients and
the hidden Stable/Degraded state.  Nothing in this module may leak into
policy-visible state; only the engine and the full-information reference
policy read it.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

from ..profiles import LLM, SDXL, DevicePrior
from .workload import TaskSpec

STABLE = "Stable"
DEGRADED = "Degraded"

SEMANTIC_LABELS = ("game", "video_call", "low_battery", "system_update", "overheating")

# Service-time multiplier applied while a device is semantically degraded.
DEFAULT_DEGRADATION_FACTOR = 3.0


class PlanError(ValueError):
    """Raised for scenario plans that violate pairing or ordering rules."""


# --- scenario events -------------------------------------------------------
#
# Event times are task indices: an event at index k mutates ground truth just
# before task k arrives (the engine orders same-time events ahead of arrivals).


@dataclass(frozen=True)
class SemanticOnset:
    at_task: int
    device: int
    label: str
    factor: float = DEFAULT_DEGRADATION_FACTOR


@dataclass(frozen=True)
class SemanticOffset:
    at_task: int
    device: int
    label: str


@dataclass(frozen=True)
class DeviceLeave:
    at_task: int
    device: int


@dataclass(frozen=True)
class DeviceReturn:
    at_task: int
    device: int


@dataclass(frozen=True)
class DriftStep:
    at_task: int
    device: int
    model: str
    factor: float


@dataclass(frozen=True)
class DriftRestore:
    at_task: int
    device: int
    model: str


ScenarioEvent = (
    SemanticOnset | SemanticOffset | DeviceLeave | DeviceReturn | DriftStep | DriftRestore
)


@dataclass(frozen=True)
class ScenarioPlan:
    """Ordered, validated list of timed ground-truth mutations."""

    events: tuple[ScenarioEvent, ...] = ()

    def __post_init__(self) -> None:
        indices = [e.at_task for e in self.events]
        if indices != sorted(indices):
            raise PlanError("plan events must be sorted by task index")
        self._check_pairing()

    def _check_pairing(self) -> None:
        open_semantic: dict[int, str] = {}
        departed: set[int] = set()
        drifting: set[tuple[int, str]] = set()
        for event in self.events:
            if isinstance(event, SemanticOnset):
                if event.device in open_semantic:
                    raise PlanError(f"device {event.device} already degraded")
                open_semantic[event.device] = event.label
            elif isinstance(event, SemanticOffset):
                if open_semantic.pop(event.device, None) is None:
                    raise PlanError(f"offset without onset for device {event.device}")
            elif isinstance(event, DeviceLeave):
                if event.device in departed:
                    raise PlanError(f"device {event.device} already departed")
                departed.add(event.device)
            elif isinstance(event, DeviceReturn):
                if event.device not in departed:
                    raise PlanError(f"return without leave for device {event.device}")
                departed.remove(event.device)
            elif isinstance(event, DriftStep):
                key = (event.device, event.model)
                if key in drifting:
                    raise PlanError(f"drift already active on {key}")
                drifting.add(key)
            elif isinstance(event, DriftRestore):
                key = (event.device, event.model)
                if key not in drifting:
                    raise PlanError(f"restore without drift step on {key}")
                drifting.remove(key)
        if open_semantic:
            raise PlanError(f"unmatched semantic onsets: {sorted(open_semantic)}")
        if departed:
            raise PlanError(f"unmatched departures: {sorted(departed)}")
        if drifting:
            raise PlanError(f"unmatched drift steps: {sorted(drifting)}")


_EVENT_TYPES = {
    "semantic_onset": SemanticOnset,
    "semantic_offset": SemanticOffset,
    "device_leave": DeviceLeave,
    "device_return": DeviceReturn,
    "drift_step": DriftStep,
    "drift_restore": DriftRestore,
}


def plan_from_dicts(rows: list[dict]) -> ScenarioPlan:
    """Build a plan from declarative config rows ({"type": ..., ...})."""
    events = []
    for row in rows:
        row = dict(row)
        type_name = row.pop("type", None)
        cls = _EVENT_TYPES.get(type_name)
        if cls is None:
            raise PlanError(
                f"unknown event type {type_name!r}; valid: {sorted(_EVENT_TYPES)}"
            )
        try:
            events.append(cls(**row))
        except TypeError as exc:
            raise PlanError(f"bad arguments for {type_name}: {exc}") from exc
    return ScenarioPlan(tuple(events))


def builtin_plans(name: str) -> ScenarioPlan:
    """Deterministic built-in plans over the default 4-device pool.

    Devices: 0 and 1 run the LLM, 2 and 3 run SDXL.  Event timings assume the
    default 300-task horizon with a 50-task settling prefix.
    """
    if name == "warmup":
        return ScenarioPlan(())
    if name == "semantic":
        f = DEFAULT_DEGRADATION_FACTOR
        return ScenarioPlan(
            (
                SemanticOnset(60, 0, "game", f),
                SemanticOffset(100, 0, "game"),
                SemanticOnset(110, 2, "video_call", f),
                SemanticOffset(140, 2, "video_call"),
                SemanticOnset(150, 1, "low_battery", f),
                SemanticOffset(180, 1, "low_battery"),
                SemanticOnset(190, 3, "system_update", f),
                SemanticOffset(230, 3, "system_update"),
                SemanticOnset(240, 0, "overheating", f),
                SemanticOffset(270, 0, "overheating"),
            )
        )
    if name == "churn":
        return ScenarioPlan(
            (
                DeviceLeave(80, 2),
                DeviceReturn(160, 2),
                DeviceLeave(200, 0),
                DeviceReturn(260, 0),
            )
        )
    if name == "drift":
        return ScenarioPlan(
            (
                DriftStep(120, 1, "llama3.1-8b-edge", 2.0),
                DriftRestore(220, 1, "llama3.1-8b-edge"),
            )
        )
    raise PlanError(f"unknown plan {name!r}; valid: ['churn', 'drift', 'semantic', 'warmup']")


# --- ground truth ----------------------------------------------------------


def _jitter_unit(device_id: int, task_id: int) -> float:
    """Deterministic, platform-stable pseudo-noise in [-1, 1)."""
    digest = hashlib.md5(f"{device_id}:{task_id}".encode()).digest()
    return int.from_bytes(digest[:8], "big") / 2**63 - 1.0


@dataclass
class _DeviceTruth:
    device_id: int
    kind: str
    name: str
    alpha: float = 0.0
    beta: float = 0.0
    gamma: float = 0.0
    z: str = STABLE
    available: bool = True
    # label -> multiplicative service-time modifier (semantic or drift)
    active_factors: dict[str, float] = field(default_factory=dict)

    def factor_product(self) -> float:
        product = 1.0
        for value in self.active_factors.values():
            product *= value
        return product


class GroundTruthState:
    """Hidden time-varying service parameters for the whole device pool.

    Per-device true coefficients are the priors scaled by configurable
    prior-error factors, so the offline profile is wrong by a known, hidden
    amount that the agent must recover online.  ``service_jitter`` adds a
    bounded deterministic per-task wobble (0 disables it exactly).

    Version contract: ``version`` counts the mutations made through
    :meth:`apply_event`, the only method that changes truth.  The engine
    caches true service times of queued tasks until the version moves, so a
    direct write to a device's fields bypasses that invalidation.
    """

    def __init__(
        self,
        priors: list[DevicePrior],
        device_names: list[str] | None = None,
        prior_error: dict[int, float | tuple[float, float]] | None = None,
        service_jitter: float = 0.0,
    ) -> None:
        if service_jitter < 0 or service_jitter >= 1:
            raise ValueError("service_jitter must be in [0, 1)")
        self.service_jitter = service_jitter
        self.version = 0
        self.devices: dict[int, _DeviceTruth] = {}
        prior_error = prior_error or {}
        for prior in priors:
            name = (
                device_names[prior.device_id]
                if device_names is not None
                else f"device-{prior.device_id}"
            )
            truth = _DeviceTruth(prior.device_id, prior.kind, name)
            error = prior_error.get(prior.device_id, 1.0)
            if isinstance(error, tuple):
                err_a, err_b = error
            else:
                err_a = err_b = float(error)
            if prior.kind == LLM:
                truth.alpha = prior.alpha0 * err_a
                truth.beta = prior.beta0 * err_b
            else:
                truth.gamma = prior.gamma0 * err_a
            self.devices[prior.device_id] = truth

    # -- queries used by the engine and the full-information policy --------

    def device_ids(self) -> list[int]:
        return sorted(self.devices)

    def kind_of(self, device: int) -> str:
        return self.devices[device].kind

    def is_available(self, device: int) -> bool:
        return self.devices[device].available

    def true_service_time(self, device: int, task: TaskSpec, now: float) -> float:
        """Effective service time under all currently active modifiers."""
        truth = self.devices[device]
        if not truth.available:
            raise RuntimeError(
                f"engine fault: service time queried for unavailable device {device}"
            )
        factor = truth.factor_product()
        if task.kind == LLM:
            if truth.kind != LLM:
                raise ValueError(f"device {device} does not serve LLM tasks")
            base = truth.alpha * task.n_in + truth.beta * task.n_out
        elif task.kind == SDXL:
            if truth.kind != SDXL:
                raise ValueError(f"device {device} does not serve SDXL tasks")
            base = truth.gamma
        else:
            raise ValueError(f"unknown task kind {task.kind!r}")
        service = base * factor
        if self.service_jitter:
            service *= 1.0 + self.service_jitter * _jitter_unit(device, task.task_id)
        return service

    def stutter_indicator(self, device: int, now: float) -> int:
        """1 iff the device is semantically degraded at time ``now``."""
        return 1 if self.devices[device].z == DEGRADED else 0

    # -- mutations driven by scenario events --------------------------------

    def apply_event(self, event: ScenarioEvent) -> None:
        self.version += 1
        if isinstance(event, SemanticOnset):
            truth = self.devices[event.device]
            truth.active_factors[event.label] = event.factor
            truth.z = DEGRADED
        elif isinstance(event, SemanticOffset):
            truth = self.devices[event.device]
            truth.active_factors.pop(event.label, None)
            if not any(label in SEMANTIC_LABELS for label in truth.active_factors):
                truth.z = STABLE
        elif isinstance(event, DeviceLeave):
            self.devices[event.device].available = False
        elif isinstance(event, DeviceReturn):
            self.devices[event.device].available = True
        elif isinstance(event, DriftStep):
            self.devices[event.device].active_factors[f"drift:{event.model}"] = event.factor
        elif isinstance(event, DriftRestore):
            self.devices[event.device].active_factors.pop(f"drift:{event.model}", None)
        else:
            raise TypeError(f"unknown scenario event {event!r}")
