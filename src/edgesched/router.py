"""Fast-path per-task dispatch.

A :class:`FastPath` holds one scoring policy's control surface (model,
risk flags, router config), its backlog memo and the engine's view of the
decision being made.  It scores each feasible device as backlog + predicted
service - exploration bonus and takes the argmin.  Risk gating is hard: a
risk-flagged device is scored only when no safe device is feasible.  The
adaptive agent routes on its controller's surface; the static baseline is
the same plain fast path on offline priors that never change.  Round robin
and the full-information reference policy live here too.  A selection
reads the risk table once, checks the model's version once and scores its
pool in one pass.  Its backlogs come from a memo that keeps each device's
queued costs, asks the view only for the tasks queued since its last look
(``queue_tail``), drops as many kept costs as the ``departed`` count says
left the head since then, and prices only the new tail.  No decision copies
a whole queue.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

from .opm import Opm
from .profiles import COUNT, DevicePrior, check
from .sim.engine import ObservableState, OracleAccess
from .sim.workload import TaskSpec

if TYPE_CHECKING:  # metacontrol imports this module
    from .metacontrol import MetaController

SECT = "sect"
EXPLORE_RISK = "explore_risk"
ROUTER_CHOICES = (SECT, EXPLORE_RISK)

DEFAULT_EXPLORE_WEIGHT_MS = 2000.0
DEFAULT_RISK_TTL_TASKS = 50


class RouterConfig:
    """Fast-path settings; only the ``switch_router`` and ``set_router_params`` tools set them."""

    __slots__ = ("policy", "explore_weight_ms")

    def __init__(self) -> None:
        self.policy = SECT
        self.explore_weight_ms = DEFAULT_EXPLORE_WEIGHT_MS

    def to_dict(self) -> dict:
        return {"policy": self.policy, "explore_weight_ms": self.explore_weight_ms}


class RiskOverrideTable:
    """Device risk flags, each with the number of tasks it has left.

    Every TTL is decremented once per task, when the engine dispatches it
    for the first time (``on_first_dispatch``), wherever it is routed.
    """

    def __init__(self) -> None:
        self._ttl: dict[int, int] = {}

    def set(self, device: int, ttl: int) -> None:
        check("ttl", ttl, COUNT)
        self._ttl[device] = ttl

    def clear(self, device: int) -> bool:
        return self._ttl.pop(device, None) is not None

    def decrement(self) -> None:
        self._ttl = {device: left - 1 for device, left in self._ttl.items() if left > 1}

    def is_risky(self, device: int) -> bool:
        return device in self._ttl

    def devices(self) -> list[int]:
        return sorted(self._ttl)


Predictor = Callable[[int, TaskSpec], float]


def backlog_ms(view: ObservableState, device: int, predict: Predictor, now: float, memo: dict) -> float:
    """Backlog in predicted milliseconds: queued work plus in-flight remainder.

    Queued predictions are summed in queue order, then the in-flight
    remainder is added: the prediction minus elapsed service, floored at
    zero (the observer cannot know the task is running late).

    ``memo`` maps a device to (departed count, in-flight view, queued sum,
    in-flight cost, queued costs) from an earlier decision under the same
    predictor.  The kept costs price the tasks the device queued from its
    kept ``departed`` count on, so the view is asked only for the tasks
    queued after those (``view.queue_tail``).  Of the kept costs, the first
    new ``departed`` minus the kept count have left the head; they are
    dropped in place and the rest re-folded only when some left, the new
    tail is priced, and the in-flight task is priced again only when it
    changed, so every sum is the same left fold as pricing every task afresh.
    """
    entry = memo.get(device)
    if entry is None:
        kept, old_fl, total, in_flight, costs = 0, None, 0.0, 0.0, []
    else:
        kept, old_fl, total, in_flight, costs = entry
    departed, fl, tail = view.queue_tail(device, kept + len(costs))
    gone = departed - kept
    if gone:
        del costs[:gone]
        total = 0.0
        for value in costs:
            total += value
    for task in tail:
        value = predict(device, task)
        costs.append(value)
        total += value
    if fl != old_fl:
        in_flight = 0.0 if fl is None else predict(device, fl.task)
    memo[device] = (departed, fl, total, in_flight, costs)
    if fl is not None:
        total += max(0.0, in_flight - (now - fl.start_time))
    return total


class FastPath:
    """One scoring policy's fast path: its control surface and the decision at hand.

    ``opm``, ``overrides`` and ``config`` are the surface the slow path sets
    through tools; ``memo`` keeps the backlog prices of the model's
    ``version`` between decisions (each scoring pass checks it once), and
    ``trace``, when a list, gets each decision's scores.  ``choose`` binds
    ``obs``, the engine's view of the decision being made, which the engine
    ends when it moves on: reading the last view between decisions raises
    instead of answering from a stale state.
    """

    def __init__(
        self, opm: Opm, overrides: RiskOverrideTable, config: RouterConfig, trace: list | None = None
    ) -> None:
        self.opm = opm
        self.overrides = overrides
        self.config = config
        self.trace = trace
        self.memo: dict = {}
        self.version: int | None = None
        self.obs: ObservableState | None = None

    def choose(self, task: TaskSpec, obs: ObservableState) -> int | None:
        self.obs = obs
        return select_e3(task, self)

    def candidates(self, kind: str) -> list[int]:
        return self.obs.available_devices(kind)


def scores(task: TaskSpec, pool, state: FastPath) -> list[tuple[float, int]]:
    """(score, device) for each pool device, in pool order: backlog +
    prediction - exploration bonus, in ms.

    Plain mode disables the exploration term; explore mode weights the
    device's epistemic uncertainty by the configured bonus.  A risk flag adds
    nothing here: :func:`select_e3` scores a pool that is all safe or all
    risky.  Scores may go negative; only the argmin matters.  The backlog
    memo is cleared first if the model's version moved since the last pass.
    """
    opm = state.opm
    if opm.version != state.version:
        state.version = opm.version
        state.memo.clear()
    obs = state.obs
    now = obs.now
    memo = state.memo
    predict = opm.predict
    config = state.config
    explore = config.policy == EXPLORE_RISK
    scored = []
    for device in pool:
        value = backlog_ms(obs, device, predict, now, memo) + predict(device, task)
        if explore:
            value -= config.explore_weight_ms * opm.uncertainty(device, task.kind)
        scored.append((value, device))
    return scored


def select_e3(task: TaskSpec, state: FastPath) -> int | None:
    """Adaptive selection with hard risk avoidance and route-anyway fallback."""
    candidates = state.candidates(task.kind)
    if not candidates:
        return None
    pool = candidates
    flags = state.overrides._ttl  # read once; most decisions find no flag set
    if flags:
        pool = [d for d in candidates if d not in flags] or candidates
    scored = scores(task, pool, state)
    best = min(scored)[1]
    trace = state.trace
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


class FixedHeuristicPolicy(FastPath):
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
        super().__init__(opm, RiskOverrideTable(), RouterConfig())

    # Owned per class, so perfbench's tracer can wrap each policy's choices apart.
    choose = FastPath.choose


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

    def __init__(self) -> None:
        self._access: OracleAccess | None = None

    def attach_oracle(self, access: OracleAccess) -> None:
        self._access = access

    def choose(self, task: TaskSpec, obs: ObservableState) -> int | None:
        if self._access is None:
            raise RuntimeError("oracle policy was never attached to a run")
        return select_oracle(task, self._access, obs)


class AdaptiveAgentPolicy(FastPath):
    """The closed-loop agent: learned predictions, risk gating, meta-control.

    Routes on the state its meta-controller acts on (model, router config,
    risk overrides) and passes every engine callback on to that controller:
    its arrival and annotation hooks are the controller's own bound methods.
    There is no agent without one.  The controller owns the slow path
    whole, the warmup schedule included; the agent itself only feeds the
    model and counts each task's first dispatch against the risk TTLs.
    """

    name = "e3"

    def __init__(self, meta: MetaController, trace: list | None = None) -> None:
        super().__init__(meta.opm, meta.overrides, meta.config, trace)
        self.meta = meta
        self.on_task_arrival = meta.on_task_arrival
        self.on_annotation = meta.on_annotation

    choose = FastPath.choose

    def attach_telemetry(self, telemetry) -> None:
        self.meta.attach_telemetry(telemetry)

    def on_first_dispatch(self, task: TaskSpec) -> None:
        if self.overrides._ttl:  # most tasks find no flag set
            self.overrides.decrement()

    def on_completion(self, record, now_task: int) -> None:
        self.opm.ingest_feedback(record, record.completion_time)
        self.meta.on_feedback(record, now_task)
