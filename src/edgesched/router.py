"""Fast-path per-task dispatch.

The adaptive policy scores each feasible device as backlog + predicted
service - exploration bonus and takes the argmin.  Risk gating is hard: a
risk-flagged device is scored only when no safe device is feasible.  Static
reference policies (prior-driven heuristic, round robin) and the
full-information reference policy live here too.  A selection scores each
candidate at most once.  Its backlogs come from a memo: O(1) amortised per
task appended to a queue, one float re-fold of the queued costs per FIFO
service start, and a C-speed tuple comparison per changed snapshot.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from .opm import Opm, left_sum
from .profiles import LLM, DevicePrior, is_finite_number
from .sim.engine import DeviceSnapshot, ObservableState, OracleAccess
from .sim.workload import TaskSpec

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


@dataclass
class RiskOverride:
    device_id: int
    ttl_tasks: int
    set_at: int


class RiskOverrideTable:
    """Device risk flags with a task-count time-to-live.

    The TTL is decremented once per dispatched task globally (first dispatch
    of each task), not per task routed to the flagged device.
    """

    def __init__(self) -> None:
        self._overrides: dict[int, RiskOverride] = {}

    def set(self, device: int, ttl: int, at_task: int) -> RiskOverride:
        if ttl <= 0:
            raise ValueError(f"ttl must be > 0, got {ttl}")
        override = RiskOverride(device, ttl, at_task)
        self._overrides[device] = override
        return override

    def clear(self, device: int) -> bool:
        return self._overrides.pop(device, None) is not None

    def decrement(self) -> None:
        expired = []
        for device, override in self._overrides.items():
            override.ttl_tasks -= 1
            if override.ttl_tasks <= 0:
                expired.append(device)
        for device in expired:
            del self._overrides[device]

    def is_risky(self, device: int) -> bool:
        return device in self._overrides

    def active(self) -> list[RiskOverride]:
        return [self._overrides[d] for d in sorted(self._overrides)]

    def to_dict(self) -> dict:
        return {
            str(o.device_id): {"ttl_tasks": o.ttl_tasks, "set_at": o.set_at}
            for o in self.active()
        }


Predictor = Callable[[int, TaskSpec], float]


class BacklogMemo:
    """Predicted cost of each task queued or in flight, per device.

    One memo serves one predictor, and a task id names one task.  ``sync``
    drops every entry when the predictor's version moves.  A device's entry
    holds its last snapshot, the queued costs aligned with ``snap.queued``,
    their sum and the in-flight cost.  Tasks appended at the tail extend the
    sum; a FIFO start (the old head now in flight, the rest the old tail plus
    appended tasks) drops the head's cost and re-folds the list; any other
    change prices the snapshot through a dict of the old entry's costs.  No
    task is priced twice, every sum is the same left fold as pricing every
    task afresh, and an entry holds the queued tasks plus the one in flight.
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
        known = {}
        if entry is not None:
            prev, total, in_flight, costs = entry
            old = prev.queued
            kept = len(old)
            if fl == prev.in_flight and queued[:kept] == old:
                known = None  # tasks appended at the tail, if any
            elif fl is not None and old and fl.task is old[0] and queued[: kept - 1] == old[1:]:
                # FIFO start: the head's cost goes in flight, the rest re-folds.
                in_flight = costs.pop(0)
                total = left_sum(costs)
                kept -= 1
                known = None
            else:
                known = {task.task_id: cost for task, cost in zip(old, costs)} if old else {}
                if prev.in_flight is not None:
                    known[prev.in_flight.task.task_id] = in_flight
        if known is not None:
            # Price the snapshot afresh, reusing the costs the old entry knew.
            costs, total, kept, in_flight = [], 0.0, 0, 0.0
            if fl is not None:
                in_flight = known.get(fl.task.task_id)
                if in_flight is None:
                    in_flight = predict(device, fl.task)
        for task in queued[kept:]:
            value = known.get(task.task_id) if known else None
            if value is None:
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
    q = state.backlog(device)
    t_hat = state.opm.predict(device, task)
    c = config.explore_weight_ms if config.policy == EXPLORE_RISK else 0.0
    u = state.opm.uncertainty(device, task.kind)
    return q + t_hat - c * u


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


def prior_predictor(priors: dict[int, DevicePrior]) -> Predictor:
    """Static service-time prediction straight from offline priors."""

    def predict(device: int, task: TaskSpec) -> float:
        prior = priors[device]
        if task.kind == LLM:
            return prior.alpha0 * task.n_in + prior.beta0 * task.n_out
        return prior.gamma0

    return predict


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
    """Static heuristic driven only by offline priors; never adapts."""

    name = "fixed_heuristic"

    def __init__(self, priors: list[DevicePrior]) -> None:
        self._predict = prior_predictor({p.device_id: p for p in priors})
        self.memo = BacklogMemo()  # carries backlog prices across decisions

    def choose(self, task: TaskSpec, obs: ObservableState) -> int | None:
        """Least prior-priced backlog plus prior prediction."""
        candidates = obs.available_devices(task.kind)
        if not candidates:
            return None
        predict = self._predict
        scored = [
            (backlog_ms(obs.snapshot_of(d), predict, obs.now, self.memo) + predict(d, task), d)
            for d in candidates
        ]
        return min(scored)[1]


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

    Owns the policy-side state (model, router config, risk overrides) and
    forwards engine callbacks to the meta-controller.  During the warmup
    budget the model refits every few tasks so exploration samples become
    usable estimates quickly.
    """

    name = "e3"

    WARMUP_REFIT_EVERY = 5

    def __init__(
        self,
        opm: Opm,
        config: RouterConfig | None = None,
        warmup_budget: int = 0,
        meta=None,
        trace: list | None = None,
        overrides: RiskOverrideTable | None = None,
    ) -> None:
        self.opm = opm
        self.config = config or RouterConfig()
        self.warmup_budget = warmup_budget
        self.meta = meta
        self.trace = trace
        self.overrides = overrides if overrides is not None else RiskOverrideTable()
        self.memo = BacklogMemo()
        self._dispatched: set[int] = set()

    def attach_telemetry(self, telemetry) -> None:
        if self.meta is not None:
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
            self.opm.refit_all(min_samples=1, at_task=task_index)
        if self.meta is not None:
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
        if self.meta is not None:
            self.meta.on_feedback(record, now, now_task)

    def on_annotation(self, annotation, now_task: int) -> None:
        if self.meta is not None:
            self.meta.on_annotation(annotation, now_task)
