"""Simulator-private ground truth and scenario plans.

GroundTruthState holds the time-varying per-device service coefficients and
the hidden Stable/Degraded state.  Nothing in this module may leak into
policy-visible state; only the engine and the full-information reference
policy read it.
"""

from __future__ import annotations

import struct
from _md5 import md5
from typing import ClassVar

from ..profiles import (INDEX, INT, LLM, NAME, POSITIVE, SDXL, DevicePrior, check, check_new_device,
                        is_finite_number, is_int)
from .workload import TaskSpec

STABLE = "Stable"
DEGRADED = "Degraded"

# Service-time multiplier applied while a device is semantically degraded.
DEFAULT_DEGRADATION_FACTOR = 3.0


class PlanError(ValueError):
    """Raised for scenario plans that violate pairing or ordering rules."""


# --- scenario events -------------------------------------------------------
#
# Event times are task indices: an event at index k mutates ground truth at the
# time of the k-th arrival, just before it (see Engine.run).


# field -> rule, shared by every event class
_FIELD_RULES = {"at_task": INDEX, "device": INT, "label": NAME, "model": NAME, "factor": POSITIVE}


class ScenarioEvent:
    """One timed ground-truth mutation; each subclass defines one event type.

    A subclass declares its ``type`` name, the pairing window family it
    ``opens`` or ``closes`` (windows are per device, and per model for
    drift), whether it is ``hidden`` from policies, and ``apply(device_truth)``,
    its mutation of one device.  Its fields are its ``__slots__``, in order;
    its ``__init__`` hands them to :meth:`_set`, which checks each one.  No
    code writes a field after that.
    """

    __slots__ = ()
    type: ClassVar[str]
    opens: ClassVar[str | None] = None
    closes: ClassVar[str | None] = None
    hidden: ClassVar[bool] = False

    def _set(self, *values: object) -> None:
        for name, value in zip(self.__slots__, values):
            check(f"{self.type} {name}", value, _FIELD_RULES[name], PlanError)
            setattr(self, name, value)

    def __repr__(self) -> str:
        # The plan's hash in report.json is taken over these strings.
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"

    @property
    def log_label(self) -> str | None:
        """The ``label`` or ``model`` field, whichever the class has."""
        return getattr(self, "label", getattr(self, "model", None))


class SemanticOnset(ScenarioEvent):
    __slots__ = ("at_task", "device", "label", "factor")
    type = "semantic_onset"
    opens = "semantic"

    def __init__(self, at_task: int, device: int, label: str, factor: float = DEFAULT_DEGRADATION_FACTOR) -> None:
        self._set(at_task, device, label, factor)

    def apply(self, truth: _DeviceTruth) -> None:
        truth.active_factors[(self.opens, self.label)] = self.factor
        truth.z = DEGRADED


class SemanticOffset(ScenarioEvent):
    __slots__ = ("at_task", "device", "label")
    type = "semantic_offset"
    closes = "semantic"

    def __init__(self, at_task: int, device: int, label: str) -> None:
        self._set(at_task, device, label)

    def apply(self, truth: _DeviceTruth) -> None:
        # A plan opens at most one semantic window per device at a time.
        truth.active_factors.pop((self.closes, self.label), None)
        truth.z = STABLE


class DeviceLeave(ScenarioEvent):
    __slots__ = ("at_task", "device")
    type = "device_leave"
    opens = "churn"

    def __init__(self, at_task: int, device: int) -> None:
        self._set(at_task, device)

    def apply(self, truth: _DeviceTruth) -> None:
        truth.available = False


class DeviceReturn(ScenarioEvent):
    __slots__ = ("at_task", "device")
    type = "device_return"
    closes = "churn"

    def __init__(self, at_task: int, device: int) -> None:
        self._set(at_task, device)

    def apply(self, truth: _DeviceTruth) -> None:
        truth.available = True


class DriftStep(ScenarioEvent):
    __slots__ = ("at_task", "device", "model", "factor")
    type = "drift_step"
    opens = "drift"
    hidden = True

    def __init__(self, at_task: int, device: int, model: str, factor: float) -> None:
        self._set(at_task, device, model, factor)

    def apply(self, truth: _DeviceTruth) -> None:
        truth.active_factors[(self.opens, self.model)] = self.factor


class DriftRestore(ScenarioEvent):
    __slots__ = ("at_task", "device", "model")
    type = "drift_restore"
    closes = "drift"
    hidden = True

    def __init__(self, at_task: int, device: int, model: str) -> None:
        self._set(at_task, device, model)

    def apply(self, truth: _DeviceTruth) -> None:
        truth.active_factors.pop((self.closes, self.model), None)


_EVENT_TYPES = {cls.type: cls for cls in ScenarioEvent.__subclasses__()}


class ScenarioPlan:
    """Ordered, validated list of timed ground-truth mutations.

    Every window is opened, then closed by the same label (or model), and a
    window never opens twice at once.
    """

    __slots__ = ("events",)

    def __init__(self, events: tuple[ScenarioEvent, ...] = ()) -> None:
        self.events = events
        indices = [e.at_task for e in self.events]
        if indices != sorted(indices):
            raise PlanError("plan events must be sorted by task index")
        opened: dict[tuple, ScenarioEvent] = {}
        for event in self.events:
            key = (event.opens or event.closes, event.device, getattr(event, "model", None))
            opener = opened.pop(key, None)
            where = f"{event.type} at task {event.at_task} on device {event.device}"
            if event.opens:
                if opener is not None:
                    raise PlanError(f"{where}: window already open since task {opener.at_task}")
                opened[key] = event
            elif opener is None:
                raise PlanError(f"{where} closes no open window")
            elif event.log_label != opener.log_label:
                raise PlanError(f"{where} closes {event.log_label!r}, opened as {opener.log_label!r}")
        if opened:
            unmatched = [f"{e.type} at task {e.at_task}" for e in opened.values()]
            raise PlanError(f"unmatched opening events: {unmatched}")


def plan_from_dicts(rows: list[dict]) -> ScenarioPlan:
    """Build a plan from declarative config rows ({"type": ..., ...})."""
    if not isinstance(rows, list):
        raise PlanError(f"a plan must be a list of event objects, got {rows!r}")
    events = []
    for row in rows:
        if not isinstance(row, dict):
            raise PlanError(f"a plan row must be an object, got {row!r}")
        row = dict(row)
        type_name = row.pop("type", None)
        cls = _EVENT_TYPES.get(type_name) if isinstance(type_name, str) else None
        if cls is None:
            raise PlanError(
                f"unknown event type {type_name!r}; valid: {sorted(_EVENT_TYPES)}"
            )
        try:
            events.append(cls(**row))
        except TypeError as exc:
            raise PlanError(f"bad arguments for {type_name}: {exc}") from exc
    return ScenarioPlan(tuple(events))


# --- ground truth ----------------------------------------------------------


_unpack_u64 = struct.Struct(">Q").unpack_from


def _jitter_unit(device_id: int, task_id: int) -> float:
    """Deterministic, platform-stable pseudo-noise in [-1, 1) from md5(b"<device>:<task>")."""
    return _unpack_u64(md5(b"%d:%d" % (device_id, task_id)).digest())[0] / 2**63 - 1.0


def check_service_jitter(value: object) -> None:
    """Raise ValueError unless ``value`` is a finite number in [0, 1)."""
    check("service_jitter", value,
          ("a finite number in [0, 1)", lambda v: is_finite_number(v) and 0 <= v < 1))


def check_prior_error(value: object) -> None:
    """Raise ValueError unless ``value`` maps int device ids to a finite
    number > 0 or a tuple of two of them (LLM alpha and beta factors)."""
    positive, is_positive = POSITIVE
    contract = f"prior_error must map device ids to {positive} or a pair of them"
    if not isinstance(value, dict):
        raise ValueError(f"{contract}, got {value!r}")
    for device, error in value.items():
        factors = error if isinstance(error, tuple) and len(error) == 2 else (error,)
        if not is_int(device) or not all(map(is_positive, factors)):
            raise ValueError(f"{contract}, got {device!r}: {error!r}")


class _DeviceTruth:
    """One device's hidden coefficients, semantic state, availability and factors."""

    __slots__ = ("device_id", "kind", "alpha", "beta", "gamma", "z", "available", "active_factors", "factor")

    def __init__(self, device_id: int, kind: str) -> None:
        self.device_id = device_id
        self.kind = kind
        self.alpha = self.beta = self.gamma = 0.0
        self.z = STABLE
        self.available = True
        # (window family, label or model) -> service-time multiplier, in opening order
        self.active_factors: dict[tuple[str, str], float] = {}
        self.factor = 1.0  # factor_product(), kept by GroundTruthState.apply_event

    def factor_product(self) -> float:
        product = 1.0
        for value in self.active_factors.values():
            product *= value
        return product


class GroundTruthState:
    """Hidden time-varying service parameters for the whole device pool.

    Per-device true coefficients are the priors scaled by configurable
    prior-error factors, so the offline profile is wrong by a known, hidden
    amount that the agent must recover online; a factor for a device not in
    the pool is rejected, not ignored.  ``service_jitter`` adds a
    bounded deterministic per-task wobble (0 disables it exactly).

    :meth:`apply_event` is the only method that changes truth, and it
    changes one device's.  It keeps that device's ``factor`` equal to its
    ``factor_product()``, and the engine reprices the device's queued tasks
    after it, so a direct write to a device's fields bypasses both.
    """

    def __init__(
        self,
        priors: list[DevicePrior],
        prior_error: dict[int, float | tuple[float, float]] | None = None,
        service_jitter: float = 0.0,
    ) -> None:
        check_service_jitter(service_jitter)
        prior_error = prior_error or {}
        check_prior_error(prior_error)
        self.service_jitter = service_jitter
        self.devices: dict[int, _DeviceTruth] = {}
        for prior in priors:
            check_new_device(prior.device_id, self.devices)
            truth = _DeviceTruth(prior.device_id, prior.kind)
            error = prior_error.get(prior.device_id, 1.0)
            err_a, err_b = error if isinstance(error, tuple) else (error, error)
            if prior.kind == LLM:
                truth.alpha = prior.alpha0 * err_a
                truth.beta = prior.beta0 * err_b
            elif isinstance(error, tuple):
                raise ValueError(
                    f"prior_error for device {prior.device_id} is the pair {error!r}, "
                    "but a diffusion device takes one factor"
                )
            else:
                truth.gamma = prior.gamma0 * err_a
            self.devices[prior.device_id] = truth
        for device in prior_error:
            if device not in self.devices:
                raise ValueError(f"prior_error names device {device}, which is not in the pool; "
                                 f"its devices are {sorted(self.devices)}")

    # -- queries used by the engine and the full-information policy --------

    def device_ids(self) -> list[int]:
        return sorted(self.devices)

    def kind_of(self, device: int) -> str:
        return self.devices[device].kind

    def is_available(self, device: int) -> bool:
        return self.devices[device].available

    def true_service_time(self, device: int, task: TaskSpec) -> float:
        """Effective service time under all currently active modifiers."""
        truth = self.devices[device]
        if not truth.available:
            raise RuntimeError(
                f"engine fault: service time queried for unavailable device {device}"
            )
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
        service = base * truth.factor
        if self.service_jitter:
            service *= 1.0 + self.service_jitter * _jitter_unit(device, task.task_id)
        return service

    def stutter_indicator(self, device: int) -> int:
        """1 iff the device is semantically degraded."""
        return 1 if self.devices[device].z == DEGRADED else 0

    # -- mutations driven by scenario events --------------------------------

    def apply_event(self, event: ScenarioEvent) -> None:
        truth = self.devices[event.device]
        event.apply(truth)
        truth.factor = truth.factor_product()
