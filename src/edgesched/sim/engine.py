"""Deterministic discrete-event engine with per-device FIFO single-server queues.

The engine is the only component that touches :class:`GroundTruthState`.
At each routing decision it calls ``policy.choose(task, view)`` with a
:class:`DecisionView` (feasible devices, queue contents, exposed event
annotations) that has the read surface of :class:`ObservableState`.  A view
keeps no device state: ``queue_tail`` hands out only the tasks queued on a
device since a count the reader names, read off the queue's right end, and
``devices`` builds every snapshot afresh.  A view is valid only for its
decision: once the engine moves on, reading device state through it raises
:class:`EngineError`.  A policy may also define the
hooks ``on_task_arrival(task_index)``, ``on_annotation(annotation)`` (the
annotation carries its ``at_task``), ``on_first_dispatch(task)`` (once per
task, not again when a leaving device hands it back),
``attach_oracle(access)``, ``attach_telemetry(telemetry)`` and
``on_completion(record, now_task)``, which gets the task's
:class:`ExecutionRecord` strictly at its ``completion_time``.

Scenario events are timed in tasks: an event at ``at_task = k`` fires at the
arrival time of the ``k``-th arrival, just before it arrives.  Same-time
events process in the fixed order scenario-event < completion < arrival, so
replays are byte-identical.

The policy-visible types (TaskSpec, ExecutionRecord, EventAnnotation,
InFlightView, DeviceSnapshot, ObservableState) are immutable
``typing.NamedTuple`` classes, cheap to build once per task.  Unlike frozen
dataclasses they can also be indexed and iterated, and they compare equal to
a plain tuple of the same values.  The engine builds them with
``tuple.__new__``, which skips the Python-level ``__new__`` frame a call to
the class would run.  It keeps each task once: a device's queue holds the
queued TaskSpecs themselves, and its in-flight slot holds the InFlightView
that snapshots hand out.  It prices each task's true service time once, at
dispatch, and again only when an event changes its device's truth.  A
completed task's record stores its timestamps once: its latency and service
are read off them, never stored beside them.
"""

from __future__ import annotations

import heapq
from collections import deque
from itertools import islice
from operator import attrgetter
from typing import NamedTuple

from ..profiles import COUNT, POSITIVE, check, model_kind, optional
from .truth import GroundTruthState, PlanError, ScenarioEvent, ScenarioPlan
from .workload import TaskSpec


class EngineError(RuntimeError):
    """Fatal contract violation inside a simulation run."""


class ExecutionRecord(NamedTuple):
    """Causal post-completion feedback for one task.

    It stores ten facts.  ``latency_ms`` and ``service_ms`` are derived from
    its timestamps on each read, so they are not fields: they are not in
    ``_fields``, ``_asdict()`` or the ``repr``, and a record is built without
    them.
    """

    task_id: int
    device_id: int
    kind: str
    arrival_time: float
    dispatch_time: float
    start_time: float
    completion_time: float
    n_in: int | None
    n_out: int | None
    stutter: int

    @property
    def latency_ms(self) -> float:
        """Arrival to completion."""
        return self.completion_time - self.arrival_time

    @property
    def service_ms(self) -> float:
        """Service start to completion."""
        return self.completion_time - self.start_time


class EventAnnotation(NamedTuple):
    """Policy-visible notice of a scenario event (never carries magnitudes)."""

    at_task: int
    time: float
    type: str
    device: int
    label: str | None = None


class InFlightView(NamedTuple):
    """Observable slice of the task currently in service on a device."""

    task: TaskSpec
    start_time: float


class DeviceSnapshot(NamedTuple):
    """One device as a policy sees it.

    ``departed`` counts the tasks that have left the queue at its head since
    the run began, by a service start or a handback at a leave: between two
    snapshots, the old queue's first ``new.departed - old.departed`` tasks
    left, and the rest are the new queue's first tasks.
    """

    device_id: int
    kind: str
    available: bool
    queued: tuple[TaskSpec, ...]
    in_flight: InFlightView | None
    departed: int


class ObservableState(NamedTuple):
    """Everything a routing policy may legally see at a decision epoch.

    Tests and demos build one by hand; the engine hands policies a
    :class:`DecisionView`, which has the same read surface.
    """

    now: float
    devices: tuple[DeviceSnapshot, ...]
    annotations: tuple[EventAnnotation, ...]

    def queue_tail(self, device: int, seen: int) -> tuple[int, InFlightView | None, tuple[TaskSpec, ...]]:
        """The device's ``departed`` count, its in-flight task and the tasks
        queued after the first ``seen`` it ever queued, as its snapshot shows them."""
        for snap in self.devices:
            if snap.device_id == device:
                return snap.departed, snap.in_flight, snap.queued[max(seen - snap.departed, 0):]
        raise KeyError(f"unknown device {device}")

    def available_devices(self, kind: str) -> list[int]:
        return [s.device_id for s in self.devices if s.available and s.kind == kind]


def _stale_view() -> EngineError:
    return EngineError("a DecisionView was read after its decision; the engine has moved on")


class DecisionView:
    """One routing decision's view: :class:`ObservableState`'s read surface, built on read.

    ``Engine.observable_state`` makes one per decision.  ``now`` and
    ``annotations`` are plain values fixed when it is made; ``annotations``
    is the engine's own tuple, shared, not copied.  ``available_devices``
    reads per-kind tuples that the engine refreshes only when a device's
    availability flips.  ``queue_tail`` copies only the tasks a reader has
    not seen, walking the queue from its right end, so its cost is the
    tail's length, not the queue's; the scoring policies read a device
    through it and nothing else.  ``devices`` builds every snapshot, each
    with a copy of its queue, afresh and in id order; no shipped policy
    reads it, so none pays for a copy.

    The view is valid only for its decision: after a completion, a scenario
    event or the decision's end, reading device state through it raises
    :class:`EngineError`.  A view made outside a run stays valid until the
    run starts to move the engine.
    """

    __slots__ = ("now", "annotations", "_engine", "_epoch")

    def available_devices(self, kind: str) -> list[int]:
        """Available device ids of ``kind``, in id order."""
        engine = self._engine
        if engine._epoch != self._epoch:
            raise _stale_view()
        return list(engine._available.get(kind, ()))

    def queue_tail(self, device: int, seen: int) -> tuple[int, InFlightView | None, tuple[TaskSpec, ...]]:
        """``(departed, in_flight, tail)`` of a device: its ``departed`` count,
        its in-flight task, and the tasks queued after the first ``seen`` it
        ever queued, in queue order.

        The device has queued ``departed + len(queue)`` tasks so far, so the
        tail is the queue's last ``departed + len(queue) - seen`` tasks, or
        the whole queue when some of the first ``seen`` never left it.
        """
        engine = self._engine
        if engine._epoch != self._epoch:
            raise _stale_view()
        dev = engine.devices.get(device)
        if dev is None:
            raise KeyError(f"unknown device {device}")
        queue = dev.queue
        departed = dev.departed
        n = departed + len(queue) - seen
        tail = tuple(islice(reversed(queue), n))[::-1] if n > 0 else ()
        return departed, dev.in_flight, tail

    @property
    def devices(self) -> tuple[DeviceSnapshot, ...]:
        engine = self._engine
        if engine._epoch != self._epoch:
            raise _stale_view()
        return tuple(engine._snapshot(dev) for dev in engine.devices.values())


class OracleAccess:
    """Ground-truth window handed only to the full-information reference policy."""

    def __init__(self, engine: "Engine") -> None:
        self._engine = engine

    def true_service(self, device: int, task: TaskSpec) -> float:
        return self._engine.truth.true_service_time(device, task)

    def true_backlog_ms(self, device: int, now: float) -> float:
        return self._engine.true_backlog_ms(device, now)

    def is_degraded(self, device: int) -> bool:
        return bool(self._engine.truth.stutter_indicator(device))


_arrival_time = attrgetter("arrival_time")
_new_tuple = tuple.__new__
_new_object = object.__new__


class _DeviceRuntime:
    """One device's queue, in-flight task and clocks, as the engine keeps them."""

    __slots__ = ("device_id", "kind", "queue", "in_flight", "completion_time", "busy_ms", "costs", "drain",
                 "departed")

    def __init__(self, device_id: int, kind: str) -> None:
        self.device_id = device_id
        self.kind = kind
        # The queued tasks in FIFO order; a view reads a tail off its right end.
        self.queue: deque[TaskSpec] = deque()
        # The task in service as snapshots show it; None while the device is idle.
        self.in_flight: InFlightView | None = None
        self.completion_time = 0.0  # of the task in service, or of the last one served
        self.busy_ms = 0.0
        # costs[i] is queue[i]'s true service time under the device's current
        # truth: priced at dispatch, repriced after an event on the device.
        self.costs: deque[float] = deque()
        # completion_time plus costs, left-folded: when the queue would be served.
        self.drain = 0.0
        # Tasks that have left the queue at its head: started or handed back.
        self.departed = 0


class SimulationResult(NamedTuple):
    records: list[ExecutionRecord]
    event_log: list[str]
    annotations: tuple[EventAnnotation, ...]


# An observation row's keys, in order: the record's stored fields with its
# derived latency and service between ``completion_time`` and ``n_in``.
_OBSERVATION_KEYS = (
    "task_id", "device_id", "kind", "arrival_time", "dispatch_time", "start_time",
    "completion_time", "latency_ms", "service_ms", "n_in", "n_out", "stutter",
)


class Telemetry:
    """Policy-visible status/observation facade (no ground-truth access)."""

    def __init__(self, engine: "Engine") -> None:
        self._engine = engine

    def now(self) -> float:
        return self._engine.now

    def system_status(self) -> dict:
        engine = self._engine
        per_device = {}
        for device_id, dev in engine.devices.items():
            busy = dev.busy_ms
            if dev.in_flight is not None:
                busy += engine.now - dev.in_flight.start_time
            per_device[str(device_id)] = {
                "kind": dev.kind,
                "available": engine.truth.is_available(device_id),
                "queue_len": len(dev.queue) + (1 if dev.in_flight is not None else 0),
                "utilization": busy / engine.now if engine.now > 0 else 0.0,
            }
        return {
            "sim_time_ms": engine.now,
            "devices": per_device,
            "active_semantic_events": {
                str(d): label for d, label in sorted(engine._active_semantic.items())
            },
        }

    def observations(self, window_ms: float | None = None, limit: int | None = None) -> list[dict]:
        """Rows of the records completed within ``window_ms``, last ``limit``
        (None leaves either open), each checked as ``pull_observations`` checks it."""
        check("window_ms", window_ms, optional(POSITIVE))
        check("limit", limit, optional(COUNT))
        engine = self._engine
        rows = engine.records
        if window_ms is not None:
            cutoff = engine.now - window_ms
            rows = [r for r in rows if r.completion_time >= cutoff]
        if limit is not None:
            rows = rows[-limit:]
        return [{key: getattr(r, key) for key in _OBSERVATION_KEYS} for r in rows]


class Engine:
    """One simulation run: plan + workload + routing policy."""

    def __init__(
        self,
        truth: GroundTruthState,
        plan: ScenarioPlan,
        workload: list[TaskSpec],
        policy,
    ) -> None:
        self.truth = truth
        self.plan = plan
        self.workload = workload
        self.policy = policy
        if len({task.task_id for task in workload}) < len(workload):
            raise EngineError("workload task ids must be unique: a task's dispatch stamp is keyed by its id")
        self.now = 0.0
        self.devices = {
            device_id: _DeviceRuntime(device_id, truth.kind_of(device_id))
            for device_id in truth.device_ids()
        }
        for event in plan.events:
            where = f"{event.type} at task {event.at_task}"
            if event.device not in self.devices:
                raise PlanError(f"{where}: no device {event.device}")
            kind = self.devices[event.device].kind
            model = getattr(event, "model", None)
            if model is not None and model_kind(model) != kind:
                raise PlanError(f"{where}: model {model!r} does not run on {kind} device {event.device}")
        self._index_available()
        # Moves whenever device state may change, which ends every open view.
        self._epoch = 0
        self.records: list[ExecutionRecord] = []
        self.annotations: tuple[EventAnnotation, ...] = ()
        self._active_semantic: dict[int, str] = {}  # device -> announced, open label
        self.event_log: list[str] = []
        self._pending: list[TaskSpec] = []
        self._heap: list[tuple[float, int, int]] = []  # (completion time, push order, device)
        self._seq = 0
        # task id -> (dispatch time, stutter) of its latest dispatch, until it completes.
        self._stamps: dict[int, tuple[float, int]] = {}
        self._arrived_tasks = 0
        # Callbacks, looked up once; an optional one is None when absent.
        self._choose = policy.choose
        self._on_task_arrival = getattr(policy, "on_task_arrival", None)
        self._on_first_dispatch = getattr(policy, "on_first_dispatch", None)
        self._on_completion = getattr(policy, "on_completion", None)
        self._on_annotation = getattr(policy, "on_annotation", None)
        if hasattr(policy, "attach_oracle"):
            policy.attach_oracle(OracleAccess(self))
        if hasattr(policy, "attach_telemetry"):
            policy.attach_telemetry(Telemetry(self))

    # -- policy-visible views ------------------------------------------------

    def observable_state(self) -> DecisionView:
        """The policy's view of the engine as it is now, valid until the engine moves on."""
        # Set field by field: an __init__ frame per decision costs more.
        view = _new_object(DecisionView)
        view.now = self.now
        view.annotations = self.annotations
        view._engine = self
        view._epoch = self._epoch
        return view

    def _snapshot(self, dev: _DeviceRuntime) -> DeviceSnapshot:
        """A device's snapshot as it is now, built afresh on every read of a view's ``devices``.

        It copies the whole queue.  Availability is read from the per-kind
        index, which is refreshed whenever a device's availability flips.
        """
        available = dev.device_id in self._available.get(dev.kind, ())
        fields = (dev.device_id, dev.kind, available, tuple(dev.queue), dev.in_flight, dev.departed)
        return _new_tuple(DeviceSnapshot, fields)

    def _index_available(self) -> None:
        """Available device ids per kind."""
        available: dict[str, tuple[int, ...]] = {}
        for dev in self.devices.values():
            if self.truth.is_available(dev.device_id):
                available[dev.kind] = available.get(dev.kind, ()) + (dev.device_id,)
        self._available = available

    def true_backlog_ms(self, device: int, now: float) -> float:
        """Oracle-only: exact remaining work on a device, its drain time minus ``now``.

        The drain time is the in-flight completion time plus each queued
        task's true service time, added in queue order: while truth holds,
        the time the engine finishes the queue, to the bit, since each busy
        start adds the next cost to the completion before it.  The engine
        keeps it as it prices and reprices the queue, so this reads one float.
        An idle device has no backlog.
        """
        dev = self.devices[device]
        return 0.0 if dev.in_flight is None else dev.drain - now

    # -- event handlers --------------------------------------------------------

    def _apply_scenario(self, event: ScenarioEvent) -> None:
        """Mutate truth, reprice, log, annotate unless hidden, then redispatch or flush.

        An event changes only its own device's truth, so only that device's
        queue is repriced.  A device that just became unavailable hands its
        queue back to the policy; one that just became available drains the
        pending buffer.
        """
        self._epoch += 1
        dev = self.devices[event.device]
        was_available = self.truth.is_available(event.device)
        self.truth.apply_event(event)
        available = self.truth.is_available(event.device)
        if available != was_available:
            self._index_available()
        elif available and dev.queue:
            self._reprice(dev)
        label = event.log_label
        self.event_log.append(
            f"{event.at_task} {self.now:.0f} {event.type} {event.device} "
            f"{label if label is not None else '-'}"
        )
        if not event.hidden:
            ann = EventAnnotation(event.at_task, self.now, event.type, event.device, label)
            self.annotations += (ann,)
            if event.type == "semantic_onset":
                self._active_semantic[event.device] = label
            elif event.type == "semantic_offset":
                self._active_semantic.pop(event.device, None)
            if self._on_annotation is not None:
                self._on_annotation(ann)
        if was_available and not available:
            self._redispatch_queue(event.device)
        elif available and not was_available:
            self._flush_pending()

    def _reprice(self, dev: _DeviceRuntime) -> None:
        """Price every queued task under the device's new truth and refold the drain time."""
        device = dev.device_id
        dev.costs = deque(self.truth.true_service_time(device, task) for task in dev.queue)
        drain = dev.completion_time
        for cost in dev.costs:
            drain += cost
        dev.drain = drain

    def _redispatch_queue(self, device: int) -> None:
        dev = self.devices[device]
        orphans = list(dev.queue)
        dev.departed += len(orphans)
        dev.queue.clear()
        dev.costs.clear()
        dev.drain = dev.completion_time
        for task in orphans:
            self._route(task)

    def _flush_pending(self) -> None:
        pending, self._pending = self._pending, []
        for task in pending:
            self._route(task)

    def _route(self, task: TaskSpec) -> None:
        device = self._choose(task, self.observable_state())
        self._epoch += 1
        if device is None:
            if self._available.get(task.kind):
                raise EngineError(
                    f"policy {self.policy.name} refused task {task.task_id} despite feasible devices"
                )
            self._pending.append(task)
            return
        # True and 1.0 hash as 1, so the type is checked first.
        if type(device) is not int or device not in self._available.get(task.kind, ()):
            raise self._misrouted(task, device)
        self._dispatch(task, device)

    def _misrouted(self, task: TaskSpec, device: object) -> EngineError:
        """The error for a choice that is not an available device of the task's kind."""
        who = f"policy {self.policy.name} routed"
        if type(device) is not int or device not in self.devices:
            return EngineError(f"{who} task {task.task_id} to unknown device {device!r}")
        if not self.truth.is_available(device):
            return EngineError(f"{who} task {task.task_id} to unavailable device {device}")
        kind = self.truth.kind_of(device)
        return EngineError(f"{who} {task.kind} task {task.task_id} to {kind} device {device}")

    def _dispatch(self, task: TaskSpec, device: int) -> None:
        dev = self.devices[device]
        cost = self.truth.true_service_time(device, task)
        dev.costs.append(cost)
        dev.drain += cost
        first = task.task_id not in self._stamps  # a redispatched task keeps its stamp
        self._stamps[task.task_id] = (self.now, self.truth.stutter_indicator(device))
        dev.queue.append(task)
        if first and self._on_first_dispatch is not None:
            self._on_first_dispatch(task)
        if dev.in_flight is None:
            self._start_next(device)

    def _start_next(self, device: int) -> None:
        """Start the head of a non-empty queue on an idle, available device."""
        dev = self.devices[device]
        task = dev.queue.popleft()
        dev.departed += 1
        service = dev.costs.popleft()
        dev.in_flight = _new_tuple(InFlightView, (task, self.now))
        dev.completion_time = self.now + service
        if not dev.costs:  # else a busy start: the drain time begins with this addition
            dev.drain = dev.completion_time
        heapq.heappush(self._heap, (dev.completion_time, self._seq, device))
        self._seq += 1

    def _complete(self) -> None:
        """Pop the earliest completion, advance the clock to it and finish its task."""
        self.now, _seq, device = heapq.heappop(self._heap)
        self._epoch += 1
        dev = self.devices[device]
        fl = dev.in_flight
        if fl is None:
            raise EngineError(f"completion event for idle device {device}")
        dev.in_flight = None
        task, start_time = fl
        dev.busy_ms += self.now - start_time
        dispatch_time, stutter = self._stamps.pop(task.task_id)
        # In field order, through tuple.__new__: this runs once per task.
        record = _new_tuple(
            ExecutionRecord,
            (
                task.task_id,
                device,
                task.kind,
                task.arrival_time,
                dispatch_time,
                start_time,
                self.now,
                task.n_in,
                task.n_out,
                stutter,
            ),
        )
        self.records.append(record)
        if self._on_completion is not None:
            self._on_completion(record, self._arrived_tasks)
        if dev.queue:
            self._start_next(device)

    # -- main loop -------------------------------------------------------------

    def run(self) -> SimulationResult:
        """Walk the arrival stream, firing scenario events and completions in between.

        Arrivals are sorted once by time (stably, so equal times keep list
        order).  Before the ``k``-th arrival the engine finishes every
        completion strictly before its time, moves the clock there, applies
        the plan's events with ``at_task <= k`` in plan order, finishes the
        completions at that time, then lets the task arrive.  Events whose
        task never arrives fire together after the last completion, without
        moving the clock, and the completions they cause (say, the tasks a
        return flushes) run after them.
        """
        heap = self._heap
        events = deque(self.plan.events)  # sorted by at_task, checked by ScenarioPlan
        for k, task in enumerate(sorted(self.workload, key=_arrival_time)):
            arrival_time = task.arrival_time
            while heap and heap[0][0] < arrival_time:
                self._complete()
            self.now = arrival_time
            while events and events[0].at_task <= k:
                self._apply_scenario(events.popleft())
            while heap and heap[0][0] <= arrival_time:
                self._complete()
            self._arrived_tasks = k + 1
            if self._on_task_arrival is not None:
                self._on_task_arrival(k)
            self._route(task)
        while heap:
            self._complete()
        for event in events:
            self._apply_scenario(event)
        while heap:
            self._complete()
        if self._pending:
            raise EngineError(
                f"run ended with {len(self._pending)} task(s) stranded in the pending buffer"
            )
        return SimulationResult(self.records, self.event_log, self.annotations)

