"""The fast path's cached backlogs and the engine's kept true costs equal a fresh rescan.

Each policy runs a whole overloaded experiment (lambda=2.0, so queues grow)
while a wrapper around ``choose`` compares, at every decision, the backlog
the policy's caches give with the plain reference loops below, which price
every queued task afresh.  The comparison is ``==``: the caches must keep
the float summation order, not just come close.  The same wrapper checks
that each snapshot's queued tasks are the tasks of the engine's queue.

The engine's own ground-truth pricing is checked the same way.  It prices a
task once at dispatch and reprices a device's queue after an event on it:
at every decision each device's kept costs must equal a fresh price of its
queue, every service start must equal a fresh price, and the oracle's
backlog, the kept drain time minus now, must price nothing and read no
queue.  The engine's tracked semantic labels must equal a rescan of the
annotations.
"""

from __future__ import annotations

import hashlib
import random
from collections import Counter, deque

import pytest
from conftest import reference_predicted_backlog
from test_golden import MIXED_PLAN_ROWS

from edgesched import metacontrol
from edgesched.harness import DYNAMIC_PREFIX_TASKS, PRESETS, build_agent
from edgesched.profiles import (
    LLM,
    DevicePrior,
    default_profiles_path,
    load_profiles,
    priors_from_records,
)
from edgesched.router import FixedHeuristicPolicy, OraclePolicy, RoundRobinPolicy, backlog_ms, scores
from edgesched.sim.engine import DeviceSnapshot, Engine, InFlightView, ObservableState
from edgesched.sim.truth import GroundTruthState, _jitter_unit, plan_from_dicts
from edgesched.sim.workload import TaskSpec, generate_workload

HORIZON = 400
LAMBDA = 2.0
JITTER = 0.15
# The e3 runs also recalibrate the device with the longest queue every so
# many decisions.  The scripted controller always refits right after it
# calibrates, so without these the memo would never price a queue under a
# calibration it has not seen.
CALIBRATE_EVERY = 40


def memo_size(memo: dict, device: int) -> int:
    """Number of task costs the memo holds for a device."""
    entry = memo.get(device)
    return 0 if entry is None else len(entry[4]) + (entry[1] is not None)


def memo_backlog(policy, snap: DeviceSnapshot, obs) -> float:
    """A device's backlog from a scoring policy's memo, as its next scoring pass sees it.

    A decision with one device to choose from scores nothing, so the memo may
    hold an older model's prices; an empty pass applies the version check
    that clears them.
    """
    scores(None, (), policy)
    return backlog_ms(obs, snap.device_id, policy.opm.predict, obs.now, policy.memo)


def one_device_state(snap: DeviceSnapshot, now: float) -> ObservableState:
    """A hand-built view of one device, for the memo to read."""
    return ObservableState(now, (snap,), ())


def prior_predictor(priors):
    """Service time straight from offline priors, written out apart from the OPM."""
    table = {p.device_id: p for p in priors}

    def predict(device, task):
        prior = table[device]
        if task.kind == LLM:
            return prior.alpha0 * task.n_in + prior.beta0 * task.n_out
        return prior.gamma0

    return predict


def reference_true_backlog(engine, snap, now):
    """The in-flight completion time plus every queued task's true service time, minus ``now``."""
    dev = engine.devices[snap.device_id]
    if dev.in_flight is None:
        return 0.0
    drain = dev.completion_time
    for task in snap.queued:
        drain += engine.truth.true_service_time(snap.device_id, task)
    return drain - now


class Probe:
    """Checks every decision of one run and records what the run exercised."""

    def __init__(self) -> None:
        self.decisions = 0
        self.checked = 0
        self.calibrations_with_queue = 0
        self.leaves_with_queue = 0
        self.engine: Engine | None = None

    def queued_total(self) -> int:
        return sum(len(dev.queue) for dev in self.engine.devices.values())

    def on_annotation(self, annotation) -> None:
        # Called before the engine redispatches a departing device's queue.
        if annotation.type == "device_leave" and self.engine.devices[annotation.device].queue:
            self.leaves_with_queue += 1


def run_checked(scenario: str, policy_name: str) -> Probe:
    records = load_profiles(default_profiles_path())
    priors = priors_from_records(records)
    truth = GroundTruthState(
        priors,
        prior_error=PRESETS[scenario]["prior_error"],
        service_jitter=JITTER,
    )
    probe = Probe()
    perturb = None
    if policy_name == "e3":
        policy = build_agent(priors, warmup_budget=DYNAMIC_PREFIX_TASKS)
        opm = policy.opm
        calibrate_unwrapped = opm.apply_calibration

        def recording_calibration(device, kind, ratio):
            if probe.queued_total():
                probe.calibrations_with_queue += 1
            return calibrate_unwrapped(device, kind, ratio)

        opm.apply_calibration = recording_calibration

        def cached(snap, obs):
            return memo_backlog(policy, snap, obs)

        def reference(snap, obs):
            return reference_predicted_backlog(snap, opm.predict, obs.now)

        def perturb(task, obs):
            if probe.decisions % CALIBRATE_EVERY == 0:
                longest = max(obs.devices, key=lambda s: len(s.queued))
                ratio = 1.25 if probe.decisions % (2 * CALIBRATE_EVERY) else 0.8
                opm.apply_calibration(longest.device_id, longest.kind, ratio)

    elif policy_name == "fixed_heuristic":
        policy = FixedHeuristicPolicy(priors)
        predict = prior_predictor(priors)

        def cached(snap, obs):
            return memo_backlog(policy, snap, obs)

        def reference(snap, obs):
            return reference_predicted_backlog(snap, predict, obs.now)

    else:
        policy = OraclePolicy()

        def cached(snap, obs):
            return probe.engine.true_backlog_ms(snap.device_id, obs.now)

        def reference(snap, obs):
            return reference_true_backlog(probe.engine, snap, obs.now)

    choose = policy.choose

    def checked_choose(task, obs):
        device = choose(task, obs)
        probe.decisions += 1
        for snap in obs.devices:
            if not snap.available or snap.kind != task.kind:
                continue
            assert cached(snap, obs) == reference(snap, obs), (task.task_id, snap.device_id)
            probe.checked += 1
            if policy_name != "oracle":
                assert memo_size(policy.memo, snap.device_id) <= len(snap.queued) + 1
        if perturb is not None:
            perturb(task, obs)
        return device

    policy.choose = checked_choose
    forward = getattr(policy, "on_annotation", None)

    def on_annotation(annotation):
        if forward is not None:
            forward(annotation)
        probe.on_annotation(annotation)

    policy.on_annotation = on_annotation
    plan = PRESETS[scenario]["plan"]
    workload = generate_workload(HORIZON, LAMBDA)
    probe.engine = Engine(truth, plan, workload, policy)
    result = probe.engine.run()
    assert len(result.records) == HORIZON
    return probe


@pytest.mark.parametrize("policy_name", ["e3", "fixed_heuristic", "oracle"])
@pytest.mark.parametrize("scenario", ["semantic", "churn", "drift"])
def test_cached_backlogs_equal_reference_loops(scenario, policy_name):
    probe = run_checked(scenario, policy_name)
    assert probe.decisions >= HORIZON
    assert probe.checked >= probe.decisions


def test_runs_cover_calibration_and_redispatch_with_queued_work():
    for scenario in ("semantic", "churn", "drift"):
        assert run_checked(scenario, "e3").calibrations_with_queue > 0, scenario
    for policy_name in ("e3", "fixed_heuristic", "oracle"):
        assert run_checked("churn", policy_name).leaves_with_queue > 0, policy_name


def test_memo_matches_reference_on_sparsely_observed_queues():
    """Random dispatch/start/complete/handback steps; the memo sees some states.

    ``departed`` counts the heads taken into service and the tasks handed
    back, as the engine counts them.
    """
    rng = random.Random(7)
    plain = prior_predictor([DevicePrior(0, LLM, alpha0=1.37, beta0=41.3)])
    priced: list[int] = []

    def counting(device, task):
        priced.append(task.task_id)
        return plain(device, task)

    memo = {}
    queued: list[TaskSpec] = []
    in_flight = None
    departed = 0
    started = 0  # heads taken into service since the memo last looked
    handed_back = False  # whether a leave handed queued tasks back since then
    seen_starts = {1: 0, 2: 0}
    seen_handbacks = 0
    seen_in_flight = set()
    for step in range(3000):
        op = rng.random()
        if op < 0.45:
            queued.append(TaskSpec(step, LLM, 0.0, rng.randint(1, 900), rng.randint(1, 300)))
        elif op < 0.7:
            if in_flight is None and queued:
                in_flight = InFlightView(queued.pop(0), float(step))
                departed += 1
                started += 1
        elif op < 0.8:
            # Several services end and the next heads start unobserved.
            for _ in range(rng.randint(2, 4)):
                if queued:
                    in_flight = InFlightView(queued.pop(0), float(step))
                    departed += 1
                    started += 1
        elif op < 0.95:
            in_flight = None
        else:
            # The device leaves, perhaps right after a start: its queue goes back.
            if in_flight is None and queued and rng.random() < 0.5:
                in_flight = InFlightView(queued.pop(0), float(step))
                departed += 1
                started += 1
            departed += len(queued)
            handed_back = handed_back or bool(queued)
            queued.clear()
        if rng.random() < 0.5:
            now = step + rng.random()
            snap = DeviceSnapshot(0, LLM, True, tuple(queued), in_flight, departed)
            assert backlog_ms(one_device_state(snap, now), 0, counting, now, memo) == reference_predicted_backlog(
                snap, plain, now
            )
            assert memo_size(memo, 0) == len(queued) + (in_flight is not None)
            if started:
                seen_starts[min(started, 2)] += 1
            seen_handbacks += handed_back
            if in_flight is not None:
                seen_in_flight.add(in_flight.task.task_id)
            started, handed_back = 0, False
    # The memo saw plain FIFO starts, states two or more heads further on,
    # and queues handed back.
    assert seen_starts[1] > 100 and seen_starts[2] > 100, seen_starts
    assert seen_handbacks > 20, seen_handbacks
    # The predictor never changed, so each task was priced once while
    # queued, and once more only if the memo saw it in flight.
    assert priced
    assert all(n <= 1 + (task_id in seen_in_flight) for task_id, n in Counter(priced).items())


def _llm(task_id: int) -> TaskSpec:
    return TaskSpec(task_id, LLM, 0.0, 100 + 37 * task_id, 10 + 7 * task_id)


# Each case is the sequence of (queued ids, in-flight id, departed count)
# states one memo sees.
MEMO_CASES = {
    "appends": [((1,), None, 0), ((1, 2), None, 0), ((1, 2, 3), None, 0)],
    "one_start": [((1, 2, 3), None, 0), ((2, 3), 1, 1), ((2, 3, 4), 1, 1)],
    "two_starts": [((1, 2, 3, 4), None, 0), ((3, 4), 2, 2), ((3, 4, 5), 2, 2)],
    "start_then_leave": [((1, 2, 3), None, 0), ((), 1, 3), ((6,), 1, 3)],
    "cleared_then_refilled": [((1, 2, 3), 4, 0), ((2, 3), None, 1), ((5, 6), 2, 3)],
}


@pytest.mark.parametrize("case", sorted(MEMO_CASES))
def test_memo_matches_reference_on_each_kind_of_queue_change(case):
    predict = prior_predictor([DevicePrior(0, LLM, alpha0=1.37, beta0=41.3)])
    memo = {}
    for step, (queued, in_flight, departed) in enumerate(MEMO_CASES[case]):
        fl = None if in_flight is None else InFlightView(_llm(in_flight), float(step))
        snap = DeviceSnapshot(0, LLM, True, tuple(map(_llm, queued)), fl, departed)
        got = backlog_ms(one_device_state(snap, float(step)), 0, predict, float(step), memo)
        assert got == reference_predicted_backlog(snap, predict, float(step)), step
        assert memo_size(memo, 0) == len(queued) + (in_flight is not None)


def reference_prior_choice(task, obs, predict):
    """The static baseline as first written: least prior-priced backlog plus prior prediction."""
    candidates = obs.available_devices(task.kind)
    if not candidates:
        return None
    snaps = {snap.device_id: snap for snap in obs.devices}
    return min(
        (reference_predicted_backlog(snaps[d], predict, obs.now) + predict(d, task), d)
        for d in candidates
    )[1]


@pytest.mark.parametrize("scenario", ["semantic", "churn", "drift"])
def test_fixed_heuristic_matches_the_prior_scorer_at_every_decision(scenario):
    priors = priors_from_records(load_profiles(default_profiles_path()))
    truth = GroundTruthState(priors, prior_error=PRESETS[scenario]["prior_error"], service_jitter=JITTER)
    policy = FixedHeuristicPolicy(priors)
    predict = prior_predictor(priors)
    choose = policy.choose
    decisions = []

    def checked_choose(task, obs):
        device = choose(task, obs)
        assert device == reference_prior_choice(task, obs, predict), task.task_id
        decisions.append(device)
        return device

    policy.choose = checked_choose
    workload = generate_workload(HORIZON, LAMBDA)
    result = Engine(truth, PRESETS[scenario]["plan"], workload, policy).run()
    assert len(result.records) == HORIZON
    assert len(decisions) >= HORIZON


# --- ground-truth pricing ----------------------------------------------------

PLANS = ("semantic", "churn", "drift", "mixed")


def old_jitter_unit(device_id: int, task_id: int) -> float:
    """The jitter formula as first written, through hashlib."""
    digest = hashlib.md5(f"{device_id}:{task_id}".encode()).digest()
    return int.from_bytes(digest[:8], "big") / 2**63 - 1.0


def test_jitter_unit_equals_the_hashlib_formula():
    for device in range(6):
        for task_id in range(0, 30000, 7):
            assert _jitter_unit(device, task_id) == old_jitter_unit(device, task_id), (device, task_id)
    assert _jitter_unit(0, 0) == -0.5103722530494315
    assert _jitter_unit(1, 42) == 0.2605690924858568
    assert _jitter_unit(3, 299) == -0.24148628873487143
    assert _jitter_unit(2, 9999) == -0.16313216788900753


def fresh_costs(engine: Engine, dev) -> list[float]:
    """A fresh true price of every task in a device's queue, through no wrapper."""
    return [GroundTruthState.true_service_time(engine.truth, dev.device_id, task) for task in dev.queue]


class PricedEngine(Engine):
    """Counts ground-truth prices and checks the engine's costs against fresh ones.

    At every decision each device's kept costs must equal a fresh price of
    its queue, and its drain time their fold; every service start must take
    a fresh price.
    """

    def __init__(self, truth, *args, **kwargs) -> None:
        super().__init__(truth, *args, **kwargs)
        self.events = 0  # ground-truth mutations
        self.calls = 0  # true_service_time calls, from anywhere
        self.engine_calls = 0  # of which made by dispatches and reprices
        self.start_calls = 0  # of which made by service starts
        self.dispatches = 0
        self.repriced = 0  # queued tasks repriced after events
        self.starts = 0
        self.queued_checked = 0  # queued costs compared at decisions
        priced = truth.true_service_time

        def counting(device, task):
            self.calls += 1
            return priced(device, task)

        truth.true_service_time = counting

    def _route(self, task) -> None:
        for dev in self.devices.values():
            assert list(dev.costs) == fresh_costs(self, dev), (task.task_id, dev.device_id)
            drain = dev.completion_time
            for cost in dev.costs:
                drain += cost
            assert dev.drain == drain, (task.task_id, dev.device_id)
            self.queued_checked += len(dev.costs)
        super()._route(task)

    def _dispatch(self, task, device: int) -> None:
        calls = self.calls
        super()._dispatch(task, device)
        self.engine_calls += self.calls - calls
        self.dispatches += 1

    def _reprice(self, dev) -> None:
        calls = self.calls
        super()._reprice(dev)
        self.engine_calls += self.calls - calls
        self.repriced += len(dev.queue)

    def _start_next(self, device: int) -> None:
        dev = self.devices[device]
        calls = self.calls
        super()._start_next(device)
        self.start_calls += self.calls - calls
        fl = dev.in_flight
        fresh = GroundTruthState.true_service_time(self.truth, device, fl.task)
        assert fl.start_time == self.now
        assert dev.completion_time == self.now + fresh, (fl.task.task_id, device)
        self.starts += 1


def make_priced(
    plan_name: str, policy_name: str, engine_class: type[Engine] = PricedEngine, horizon: int = HORIZON
) -> Engine:
    """A lambda=2.0 engine (H=400 unless given) that checks the truth factor after every event."""
    records = load_profiles(default_profiles_path())
    priors = priors_from_records(records)
    scenario = "semantic" if plan_name == "mixed" else plan_name
    truth = GroundTruthState(
        priors,
        prior_error=PRESETS[scenario]["prior_error"],
        service_jitter=JITTER,
    )
    apply_event = truth.apply_event

    def checked_apply(event):
        apply_event(event)
        for device_truth in truth.devices.values():
            assert device_truth.factor == device_truth.factor_product(), event
        engine.events += 1

    truth.apply_event = checked_apply
    policy = {
        "e3": lambda: build_agent(priors, warmup_budget=DYNAMIC_PREFIX_TASKS),
        "fixed_heuristic": lambda: FixedHeuristicPolicy(priors),
        "round_robin": RoundRobinPolicy,
        "oracle": OraclePolicy,
    }[policy_name]()
    plan = plan_from_dicts(MIXED_PLAN_ROWS) if plan_name == "mixed" else PRESETS[plan_name]["plan"]
    engine = engine_class(truth, plan, generate_workload(horizon, LAMBDA), policy)
    return engine


def run_priced(plan_name: str, policy_name: str) -> PricedEngine:
    engine = make_priced(plan_name, policy_name)
    assert len(engine.run().records) == HORIZON
    return engine


@pytest.mark.parametrize("policy_name", ["e3", "fixed_heuristic", "round_robin", "oracle"])
@pytest.mark.parametrize("plan_name", PLANS)
def test_every_service_start_equals_a_fresh_price(plan_name, policy_name):
    engine = run_priced(plan_name, policy_name)
    assert engine.starts == HORIZON
    assert engine.events == len(engine.plan.events)
    assert engine.dispatches >= HORIZON
    # Every decision compared the kept costs of long queues with fresh prices.
    assert engine.queued_checked > 10 * HORIZON
    # The engine prices each dispatch once and each queued task again after
    # an event on its device; a start takes the kept cost.
    assert engine.start_calls == 0
    assert engine.engine_calls == engine.dispatches + engine.repriced
    # Churn's events hand queues back or find them empty; the others reprice.
    assert (engine.repriced > 0) == (plan_name != "churn")
    if policy_name == "oracle":
        assert engine.calls > engine.engine_calls  # the oracle's own prices
    else:
        assert engine.calls == engine.engine_calls


class WaitEngine(PricedEngine):
    """Records, per dispatch, the backlog the oracle read for the chosen device."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.read: dict[int, float] = {}  # device -> backlog read in this decision
        # task id -> (backlog read, device busy, events so far) of its latest dispatch
        self.dispatched: dict[int, tuple[float, bool, int]] = {}
        self.start_events: dict[int, int] = {}  # task id -> events before its start

    def true_backlog_ms(self, device: int, now: float) -> float:
        backlog = self.read[device] = super().true_backlog_ms(device, now)
        return backlog

    def _route(self, task) -> None:
        self.read.clear()
        super()._route(task)

    def _dispatch(self, task, device: int) -> None:
        busy = self.devices[device].in_flight is not None
        # The oracle reads no backlog when its pool holds one device.
        backlog = self.read[device] if device in self.read else self.true_backlog_ms(device, self.now)
        self.dispatched[task.task_id] = (backlog, busy, self.events)
        super()._dispatch(task, device)

    def _start_next(self, device: int) -> None:
        super()._start_next(device)
        self.start_events[self.devices[device].in_flight.task.task_id] = self.events


@pytest.mark.parametrize("plan_name", ("warmup",) + PLANS)
def test_oracle_backlog_is_the_wait_of_a_busy_dispatch(plan_name):
    """A task dispatched to a busy device starts after exactly the backlog the
    oracle read for it, unless a scenario event fired before its start."""
    engine = make_priced(plan_name, "oracle", WaitEngine)
    checked = 0
    for record in engine.run().records:
        backlog, busy, events = engine.dispatched[record.task_id]
        if busy and engine.start_events[record.task_id] == events:
            assert record.start_time - record.dispatch_time == backlog, record.task_id
            checked += 1
    # Under overload, about half of the dispatches or more are checked.
    assert checked > HORIZON // 3, checked


class CountingQueue(deque):
    """A device queue that counts the tasks read through its iterator."""

    def __init__(self) -> None:
        super().__init__()
        self.reads = 0

    def __iter__(self):
        for task in deque.__iter__(self):
            self.reads += 1
            yield task


class BacklogCountEngine(Engine):
    """Counts what ``true_backlog_ms`` prices and reads of each queue."""

    def __init__(self, truth, *args, **kwargs) -> None:
        super().__init__(truth, *args, **kwargs)
        for dev in self.devices.values():
            dev.queue = CountingQueue()
        self.events = 0
        self.calls = 0
        self.queued = 0  # queue lengths summed over the calls
        self.reads = 0  # queued tasks the calls read
        self.priced = 0  # true_service_time calls made inside the calls
        self._in_backlog = False
        price = truth.true_service_time

        def counting(device, task):
            if self._in_backlog:
                self.priced += 1
            return price(device, task)

        truth.true_service_time = counting

    def true_backlog_ms(self, device: int, now: float) -> float:
        queue = self.devices[device].queue
        self.calls += 1
        self.queued += len(queue)
        reads = queue.reads
        self._in_backlog = True
        backlog = super().true_backlog_ms(device, now)
        self._in_backlog = False
        self.reads += queue.reads - reads
        return backlog


def test_oracle_backlog_prices_nothing_and_reads_no_queue():
    """On an overload-sized oracle run (semantic, H=3000, lambda=2.0) the
    backlog reads the kept drain time, though the queues run long."""
    engine = make_priced("semantic", "oracle", BacklogCountEngine, horizon=3000)
    assert len(engine.run().records) == 3000
    assert engine.queued > 20 * engine.calls  # the mean queue holds more than 20 tasks
    assert engine.calls > 3000
    assert engine.priced == engine.reads == 0


class ScriptedPicks:
    """Policy that picks, per decision, the next device its script names for the task."""

    name = "scripted_picks"

    def __init__(self, script: dict[int, list[int]]) -> None:
        self.script = script

    def choose(self, task, obs):
        return self.script[task.task_id].pop(0)


def test_a_redispatched_task_is_priced_on_its_new_device(fixture_priors):
    """Tasks 1 and 2 queue on device 1 while device 0 degrades; device 1 then
    leaves, and their redispatch to device 0 prices them under its truth."""
    tasks = [TaskSpec(k, LLM, 1000.0 * k, 100, 100) for k in range(4)]
    plan = plan_from_dicts([
        {"type": "semantic_onset", "at_task": 2, "device": 0, "label": "game"},
        {"type": "device_leave", "at_task": 3, "device": 1},
        {"type": "device_return", "at_task": 5, "device": 1},
        {"type": "semantic_offset", "at_task": 6, "device": 0, "label": "game"},
    ])
    script = {0: [1], 1: [1, 0], 2: [1, 0], 3: [0]}
    truth = GroundTruthState(fixture_priors[:2])
    engine = PricedEngine(truth, plan, tasks, ScriptedPicks(script))
    records = engine.run().records
    assert not any(script.values())  # every scripted decision was taken
    assert engine.starts == len(tasks)
    assert engine.dispatches == len(tasks) + 2
    assert [r.device_id for r in sorted(records, key=lambda r: r.task_id)] == [1, 0, 0, 0]


def rescanned_semantic_labels(annotations) -> dict[str, str]:
    """Active semantic labels by a walk over every annotation so far."""
    active = {}
    for ann in annotations:
        if ann.type == "semantic_onset":
            active[ann.device] = ann.label
        elif ann.type == "semantic_offset":
            active.pop(ann.device, None)
    return {str(d): label for d, label in sorted(active.items())}


def test_status_snapshot_labels_equal_a_rescan_at_every_invocation():
    engine = make_priced("mixed", "e3")
    telemetry = engine.policy.meta.telemetry
    snapshot = telemetry.system_status
    seen = []
    invoked = []

    def checked_snapshot():
        status = snapshot()
        labels = status["active_semantic_events"]
        assert labels == rescanned_semantic_labels(engine.annotations), engine.now
        seen.append(labels)
        return status

    def checked_policy(invocation, meta):
        invoked.append(meta.telemetry.system_status())
        return metacontrol.scripted_policy(invocation, meta)

    telemetry.system_status = checked_snapshot
    engine.policy.meta.controller = checked_policy
    engine.run()
    # The status is read (and checked) once per invocation here, and once per
    # get_system_status call; some of the reads see a semantic window open.
    assert len(invoked) == len(engine.policy.meta.invocations)
    assert len(seen) >= len(engine.policy.meta.invocations) > 0
    assert any(seen) and not all(seen)
