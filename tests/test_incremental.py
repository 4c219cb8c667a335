"""The fast path's and the oracle's cached backlogs equal a fresh rescan.

Each policy runs a whole overloaded experiment (lambda=2.0, so queues grow)
while a wrapper around ``choose`` compares, at every decision, the backlog
the policy's caches give with the plain reference loops below, which price
every queued task afresh.  The comparison is ``==``: the caches must keep
the float summation order, not just come close.  The same wrapper checks
that each snapshot's queued tasks are the tasks of the engine's queue.
"""

from __future__ import annotations

import random

import pytest

from edgesched.harness import DYNAMIC_PREFIX_TASKS, PRESETS, build_agent
from edgesched.profiles import (
    LLM,
    DevicePrior,
    default_profiles_path,
    load_profiles,
    priors_from_records,
)
from edgesched.router import (
    BacklogMemo,
    FixedHeuristicPolicy,
    OraclePolicy,
    backlog_ms,
    prior_predictor,
)
from edgesched.sim.engine import DeviceSnapshot, Engine, InFlightView
from edgesched.sim.truth import GroundTruthState, builtin_plans
from edgesched.sim.workload import TaskSpec, generate_workload

HORIZON = 400
LAMBDA = 2.0
JITTER = 0.15
# The e3 runs also recalibrate the device with the longest queue every so
# many decisions.  The scripted controller always refits right after it
# calibrates, so without these the memo would never price a queue under a
# calibration it has not seen.
CALIBRATE_EVERY = 40


def reference_predicted_backlog(snap, predict, now):
    """Queued predictions in queue order, then the floored in-flight remainder."""
    total = 0.0
    for task in snap.queued:
        total += predict(snap.device_id, task)
    if snap.in_flight is not None:
        elapsed = now - snap.in_flight.start_time
        total += max(0.0, predict(snap.device_id, snap.in_flight.task) - elapsed)
    return total


def reference_true_backlog(engine, snap, now):
    """In-flight remainder, then every queued task's true service time."""
    backlog = 0.0
    in_flight = engine.devices[snap.device_id].in_flight
    if in_flight is not None:
        backlog += in_flight.completion_time - now
    for task in snap.queued:
        backlog += engine.truth.true_service_time(snap.device_id, task, now)
    return backlog


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

    def on_event(self, annotation) -> None:
        # Called before the engine redispatches a departing device's queue.
        if annotation.type == "device_leave" and self.engine.devices[annotation.device].queue:
            self.leaves_with_queue += 1


def run_checked(scenario: str, policy_name: str) -> Probe:
    records = load_profiles(default_profiles_path())
    priors = priors_from_records(records)
    truth = GroundTruthState(
        priors,
        device_names=[r.device_name for r in records],
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
            return policy.visible_state(obs).backlog(snap.device_id)

        def reference(snap, obs):
            return reference_predicted_backlog(snap, opm.predict, obs.now)

        def perturb(task, obs):
            if probe.decisions % CALIBRATE_EVERY == 0:
                longest = max(obs.devices, key=lambda s: len(s.queued))
                ratio = 1.25 if probe.decisions % (2 * CALIBRATE_EVERY) else 0.8
                opm.apply_calibration(longest.device_id, longest.kind, ratio)

    elif policy_name == "fixed_heuristic":
        policy = FixedHeuristicPolicy(priors)
        predict = prior_predictor({p.device_id: p for p in priors})

        def cached(snap, obs):
            return backlog_ms(snap, predict, obs.now, policy.memo)

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
            # The engine's task deque stays in step with its queue entries.
            entries = probe.engine.devices[snap.device_id].queue
            assert snap.queued == tuple(entry.task for entry in entries), (task.task_id, snap.device_id)
        for snap in obs.devices:
            if not snap.available or snap.kind != task.kind:
                continue
            assert cached(snap, obs) == reference(snap, obs), (task.task_id, snap.device_id)
            probe.checked += 1
            memo = getattr(policy, "memo", None)
            if memo is not None:
                assert memo.size(snap.device_id) <= len(snap.queued) + 1
        if perturb is not None:
            perturb(task, obs)
        return device

    policy.choose = checked_choose
    plan = builtin_plans(scenario)
    workload = generate_workload(HORIZON, LAMBDA)
    probe.engine = Engine(truth, plan, workload, policy, hooks=probe)
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
    """Random dispatch/start/complete/redispatch steps; the memo sees some states."""
    rng = random.Random(7)
    plain = prior_predictor({0: DevicePrior(0, LLM, alpha0=1.37, beta0=41.3)})
    priced: list[int] = []

    def counting(device, task):
        priced.append(task.task_id)
        return plain(device, task)

    memo = BacklogMemo()
    queued: list[TaskSpec] = []
    in_flight = None
    started = 0  # heads taken into service since the memo last looked
    seen_starts = {1: 0, 2: 0}
    for step in range(3000):
        op = rng.random()
        if op < 0.45:
            queued.append(TaskSpec(step, LLM, 0.0, rng.randint(1, 900), rng.randint(1, 300)))
        elif op < 0.7:
            if in_flight is None and queued:
                in_flight = InFlightView(queued.pop(0), float(step))
                started += 1
        elif op < 0.8:
            # Several services end and the next heads start unobserved.
            for _ in range(rng.randint(2, 4)):
                if queued:
                    in_flight = InFlightView(queued.pop(0), float(step))
                    started += 1
        elif op < 0.95:
            in_flight = None
        else:
            # The device leaves, perhaps right after a start: its queue goes back.
            if in_flight is None and queued and rng.random() < 0.5:
                in_flight = InFlightView(queued.pop(0), float(step))
                started += 1
            queued.clear()
        if rng.random() < 0.5:
            now = step + rng.random()
            snap = DeviceSnapshot(0, LLM, True, tuple(queued), in_flight)
            assert backlog_ms(snap, counting, now, memo) == reference_predicted_backlog(snap, plain, now)
            assert memo.size(0) <= len(queued) + 1
            if started:
                seen_starts[min(started, 2)] += 1
            started = 0
    # The memo saw plain FIFO starts and states two or more heads further on.
    assert seen_starts[1] > 100 and seen_starts[2] > 100, seen_starts
    # The predictor never changed, so no task was priced twice.
    assert priced and len(priced) == len(set(priced))
