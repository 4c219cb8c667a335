"""Fast-path per-task dispatch.

The adaptive policy scores each feasible device as backlog + predicted
service - exploration bonus and takes the argmin.  Risk gating is hard: a
risk-flagged device is scored only when no safe device is feasible.  The
static baseline is the same plain fast path on offline priors that never
change; round robin and the full-information reference policy live here
too.  A selection scores each candidate at most once.  Its backlogs come
from a memo that keeps each device's queued costs while the queue moves
FIFO and prices only the tasks appended since the last look.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

from .opm import Opm, left_sum
from .profiles import DevicePrior, is_finite_number
from .sim.engine import DeviceSnapshot, ObservableState, OracleAccess
from .sim.workload import TaskSpec

if TYPE_CHECKING:  # metacontrol imports this module
    from .metacontrol import MetaController

SECT = "sect"
EXPLORE_RISK = "explore_risk"
ROUTER_CHOICES = (SECT, EXPLORE_RISK)

DEFAULT_EXPLORE_WEIGHT_MS = 2000.0
DEFAULT_RISK_TTL_TASKS = 50


@dataclass
class RouterConfig:
    """Mutable fast-path configuration (the slow path adjusts it via tools)."""

    policy: str = SECT
    explore_weight_ms: float = DEFAULT_EXPLORE_WEIGHT_MS

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        if self.policy not in ROUTER_CHOICES:
            raise ValueError(f"policy must be one of {ROUTER_CHOICES}, got {self.policy!r}")
        value = self.explore_weight_ms
        if not is_finite_number(value) or value < 0:
            raise ValueError(f"explore_weight_ms must be a finite number >= 0, got {value!r}")

    def to_dict(self) -> dict:
        return {"policy": self.policy, "explore_weight_ms": self.explore_weight_ms}


class RiskOverrideTable:
    """Device risk flags, each with the number of tasks it has left.

    The TTL is decremented once per dispatched task globally (first dispatch
    of each task), not per task routed to the flagged device.
    """

    def __init__(self) -> None:
        self._ttl: dict[int, int] = {}

    def set(self, device: int, ttl: int) -> None:
        if ttl <= 0:
            raise ValueError(f"ttl must be > 0, got {ttl}")
        self._ttl[device] = ttl

    def clear(self, device: int) -> bool:
        return self._ttl.pop(device, None) is not None

    def decrement(self) -> None:
        self._ttl = {device: left - 1 for device, left in self._ttl.items() if left > 1}

    def is_risky(self, device: int) -> bool:
        return device in self._ttl

    def devices(self) -> list[int]:
        return sorted(self._ttl)

    def to_dict(self) -> dict:
        return {str(d): {"ttl_tasks": self._ttl[d]} for d in self.devices()}


Predictor = Callable[[int, TaskSpec], float]


class BacklogMemo:
    """Predicted cost of each task queued or in flight, per device.

    One memo serves one predictor, and a task id names one task.  ``sync``
    drops every entry when the predictor's version moves.  A device's entry
    holds its last snapshot, the queued costs aligned with ``snap.queued``,
    their sum and the in-flight cost.  One FIFO rule reads a new snapshot:
    the old queue's tasks before the new head have left it, and the rest
    must be the new queue's first tasks, or the queue was cleared and
    nothing is kept.  The in-flight task keeps its cost if it was in flight
    or queued before.  The kept costs are re-folded only when some left, and
    only the new tail is priced, so every sum is the same left fold as
    pricing every task afresh.
    """

    def __init__(self) -> None:
        self.version: int | None = None
        # device -> (snapshot, queued sum, in-flight cost, queued costs)
        self._devices: dict[int, tuple[DeviceSnapshot, float, float, list[float]]] = {}

    def sync(self, version: int) -> None:
        if version != self.version:
            self.version = version
            self._devices.clear()

    def size(self, device: int) -> int:
        """Number of task costs held for a device."""
        entry = self._devices.get(device)
        return 0 if entry is None else len(entry[3]) + (entry[0].in_flight is not None)

    def costs(self, snap: DeviceSnapshot, predict: Predictor) -> tuple[float, float]:
        """(queued work summed in queue order, in-flight prediction or 0.0)."""
        device = snap.device_id
        entry = self._devices.get(device)
        if entry is not None and entry[0] is snap:
            return entry[1], entry[2]
        queued, fl = snap.queued, snap.in_flight
        if entry is None:
            old, old_fl, total, in_flight, costs = (), None, 0.0, 0.0, []
        else:
            prev, total, in_flight, costs = entry
            old, old_fl = prev.queued, prev.in_flight
        if fl is None:
            in_flight = 0.0
        elif fl != old_fl:
            in_flight = costs[old.index(fl.task)] if fl.task in old else predict(device, fl.task)
        started = old.index(queued[0]) if queued and queued[0] in old else len(old)
        kept = len(old) - started
        if queued[:kept] != old[started:]:
            costs, total, kept = [], 0.0, 0  # the queue was cleared
        elif started:
            costs = costs[started:]
            total = left_sum(costs)
        for task in queued[kept:]:
            value = predict(device, task)
            costs.append(value)
            total += value
        self._devices[device] = (snap, total, in_flight, costs)
        return total, in_flight


def backlog_ms(
    snap: DeviceSnapshot, predict: Predictor, now: float, memo: BacklogMemo | None = None
) -> float:
    """Backlog in predicted milliseconds: queued work plus in-flight remainder.

    Queued predictions are summed in queue order, then the in-flight
    remainder is added: the prediction minus elapsed service, floored at
    zero (the observer cannot know the task is running late).  A memo reuses
    the predictions of earlier decisions.
    """
    if memo is None:
        memo = BacklogMemo()
    total, in_flight = memo.costs(snap, predict)
    if snap.in_flight is not None:
        elapsed = now - snap.in_flight.start_time
        total += max(0.0, in_flight - elapsed)
    return total


@dataclass
class PolicyVisibleState:
    """Everything the adaptive fast path may consult for one decision."""

    obs: ObservableState
    opm: Opm
    overrides: RiskOverrideTable
    config: RouterConfig
    memo: BacklogMemo = field(default_factory=BacklogMemo)

    @property
    def now(self) -> float:
        return self.obs.now

    def candidates(self, kind: str) -> list[int]:
        return self.obs.available_devices(kind)

    def backlog(self, device: int) -> float:
        self.memo.sync(self.opm.version)
        return backlog_ms(self.obs.snapshot_of(device), self.opm.predict, self.now, self.memo)

    def to_dict(self) -> dict:
        return {
            "observable": self.obs.to_dict(),
            "risk_overrides": self.overrides.to_dict(),
            "router_config": self.config.to_dict(),
        }


def score(device: int, task: TaskSpec, state: PolicyVisibleState) -> float:
    """Backlog + prediction - exploration bonus, in ms.

    Plain mode disables the exploration term; explore mode weights the
    device's epistemic uncertainty by the configured bonus.  A risk flag adds
    nothing here: :func:`select_e3` scores a pool that is all safe or all
    risky.  Scores may go negative; only the argmin matters.
    """
    config = state.config
    value = state.backlog(device) + state.opm.predict(device, task)
    if config.policy == EXPLORE_RISK:
        value -= config.explore_weight_ms * state.opm.uncertainty(device, task.kind)
    return value


def select_e3(
    task: TaskSpec, state: PolicyVisibleState, trace: list | None = None
) -> int | None:
    """Adaptive selection with hard risk avoidance and route-anyway fallback."""
    candidates = state.candidates(task.kind)
    if not candidates:
        return None
    safe = [d for d in candidates if not state.overrides.is_risky(d)]
    pool = safe if safe else candidates
    scored = [(score(d, task, state), d) for d in pool]
    best_score, best = min(scored)
    if trace is not None:
        trace.append(
            {
                "task_id": task.task_id,
                "scores": [[d, s] for s, d in scored],
                "chosen": best,
            }
        )
    return best


def select_oracle(
    task: TaskSpec, access: OracleAccess, obs: ObservableState
) -> int | None:
    """Full-information greedy choice on true backlog and true service time.

    Degraded devices are excluded whenever a stable candidate exists,
    mirroring risk avoidance with perfect knowledge.
    """
    candidates = obs.available_devices(task.kind)
    if not candidates:
        return None
    stable = [d for d in candidates if not access.is_degraded(d)]
    pool = stable if stable else candidates
    scored = [
        (access.true_backlog_ms(d, obs.now) + access.true_service(d, task), d)
        for d in pool
    ]
    return min(scored)[1]


# --- engine-facing policy objects -------------------------------------------


class FixedHeuristicPolicy:
    """The static baseline: e3's plain fast path on priors that never change.

    Its model is seeded from the offline priors and never fed, its risk
    table stays empty and its router stays in plain mode, so each choice is
    the least prior-priced backlog plus prior prediction.  It defines no
    engine callbacks, so nothing can feed its model.
    """

    name = "fixed_heuristic"

    def __init__(self, priors: list[DevicePrior]) -> None:
        opm = Opm()
        opm.seed(priors)
        self._state = (opm, RiskOverrideTable(), RouterConfig(), BacklogMemo())

    def visible_state(self, obs: ObservableState) -> PolicyVisibleState:
        return PolicyVisibleState(obs, *self._state)

    def choose(self, task: TaskSpec, obs: ObservableState) -> int | None:
        return select_e3(task, self.visible_state(obs))


class RoundRobinPolicy:
    """Topology-agnostic rotation over available devices, one cursor per kind."""

    name = "round_robin"

    def __init__(self) -> None:
        self._cursors: dict[str, int] = {}

    def choose(self, task: TaskSpec, obs: ObservableState) -> int | None:
        """The first available device after this kind's cursor, wrapping around."""
        candidates = obs.available_devices(task.kind)
        if not candidates:
            return None
        cursor = self._cursors.get(task.kind, -1)
        later = [d for d in candidates if d > cursor]
        chosen = later[0] if later else candidates[0]
        self._cursors[task.kind] = chosen
        return chosen


class OraclePolicy:
    """Reference upper bound: reads current ground truth, never the future."""

    name = "oracle"
    wants_oracle_access = True

    def __init__(self) -> None:
        self._access: OracleAccess | None = None

    def attach_oracle(self, access: OracleAccess) -> None:
        self._access = access

    def choose(self, task: TaskSpec, obs: ObservableState) -> int | None:
        if self._access is None:
            raise RuntimeError("oracle policy was never attached to a run")
        return select_oracle(task, self._access, obs)


class AdaptiveAgentPolicy:
    """The closed-loop agent: learned predictions, risk gating, meta-control.

    Routes on the state its meta-controller acts on (model, router config,
    risk overrides) and forwards every engine callback to that controller;
    there is no agent without one.  During the warmup budget the model
    refits every few tasks so exploration samples become usable estimates
    quickly.
    """

    name = "e3"

    WARMUP_REFIT_EVERY = 5

    def __init__(
        self, meta: MetaController, warmup_budget: int = 0, trace: list | None = None
    ) -> None:
        self.meta = meta
        self.opm = meta.opm
        self.config = meta.config
        self.overrides = meta.overrides
        self.warmup_budget = warmup_budget
        self.trace = trace
        self.memo = BacklogMemo()
        self._dispatched: set[int] = set()

    def attach_telemetry(self, telemetry) -> None:
        self.meta.attach_telemetry(telemetry)

    def visible_state(self, obs: ObservableState) -> PolicyVisibleState:
        return PolicyVisibleState(obs, self.opm, self.overrides, self.config, self.memo)

    def choose(self, task: TaskSpec, obs: ObservableState) -> int | None:
        return select_e3(task, self.visible_state(obs), self.trace)

    def on_task_arrival(self, task_index: int, now: float) -> None:
        if (
            0 < task_index < self.warmup_budget
            and task_index % self.WARMUP_REFIT_EVERY == 0
        ):
            self.opm.refit_all(min_samples=1)
        self.meta.on_task_arrival(task_index, now)

    def on_dispatch(self, task: TaskSpec, device: int, now: float) -> None:
        if task.task_id in self._dispatched:
            return
        self._dispatched.add(task.task_id)
        self.overrides.decrement()

    def on_completion(self, record, now: float, now_task: int) -> None:
        # A completed task is never dispatched again, so the set keeps only
        # queued and in-flight ids (a redispatch must not decrement twice).
        self._dispatched.discard(record.task_id)
        self.opm.ingest_feedback(record, now)
        self.meta.on_feedback(record, now, now_task)

    def on_annotation(self, annotation, now_task: int) -> None:
        self.meta.on_annotation(annotation, now_task)
