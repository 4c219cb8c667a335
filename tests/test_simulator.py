"""Discrete-event engine: queue semantics, scenario events, determinism."""

import math
import random

import pytest

from conftest import (
    FixedAssignmentPolicy,
    TableTruth,
    assert_no_ground_truth,
    brute_force_replay,
    leak_scan,
    make_truth,
)
from edgesched.metacontrol import Invocation, MetaController, ToolCall
from edgesched.profiles import LLM, SDXL, DevicePrior
from edgesched.router import OraclePolicy, RoundRobinPolicy
from edgesched.sim.engine import Engine, EngineError, ObservableState, Telemetry
from edgesched.sim.truth import (
    DEGRADED,
    STABLE,
    DeviceLeave,
    DeviceReturn,
    DriftRestore,
    DriftStep,
    GroundTruthState,
    PlanError,
    ScenarioPlan,
    SemanticOffset,
    SemanticOnset,
    builtin_plans,
    plan_from_dicts,
)
from edgesched.sim.workload import TaskSpec, generate_workload


def llm_priors(n=1):
    return [DevicePrior(i, LLM, alpha0=1.0, beta0=1.0) for i in range(n)]


def llm_tasks(arrivals):
    return [TaskSpec(i, LLM, t, 256, 32) for i, t in enumerate(arrivals)]


def run_fixed(tasks, assignment, service_table, priors=None, plan=ScenarioPlan(())):
    priors = priors or llm_priors(1 + max(assignment.values()))
    truth = TableTruth(priors, service_table)
    policy = FixedAssignmentPolicy(assignment)
    return Engine(truth, plan, tasks, policy).run()


# --- hand-checked queue behavior ---------------------------------------------


def test_single_device_two_tasks_hand_replay():
    tasks = llm_tasks([0.0, 10.0])
    service = {(0, 0): 100.0, (0, 1): 100.0}
    result = run_fixed(tasks, {0: 0, 1: 0}, service)
    by_id = {r.task_id: r for r in result.records}
    assert by_id[0].completion_time == 100.0
    assert by_id[1].completion_time == 200.0
    assert by_id[0].latency_ms == 100.0
    assert by_id[1].latency_ms == 190.0


def test_round_robin_two_devices_one_task_each(fixture_priors):
    truth = make_truth(fixture_priors)
    tasks = [TaskSpec(0, LLM, 0.0, 256, 32), TaskSpec(1, LLM, 2000.0, 256, 32)]
    result = Engine(truth, ScenarioPlan(()), tasks, RoundRobinPolicy()).run()
    assert sorted(r.device_id for r in result.records) == [0, 1]


def test_work_conservation_start_equals_max_of_chain():
    tasks = llm_tasks([0.0, 50.0, 400.0])
    service = {(0, 0): 100.0, (0, 1): 100.0, (0, 2): 50.0}
    result = run_fixed(tasks, {0: 0, 1: 0, 2: 0}, service)
    by_id = {r.task_id: r for r in result.records}
    assert by_id[1].start_time == max(by_id[0].completion_time, by_id[1].dispatch_time)
    # Device idles only when its queue is empty: task 2 starts at its arrival.
    assert by_id[2].start_time == 400.0


def test_record_timestamp_invariants():
    tasks = llm_tasks([0.0, 10.0, 20.0])
    service = {(0, i): 30.0 for i in range(3)}
    result = run_fixed(tasks, {i: 0 for i in range(3)}, service)
    for r in result.records:
        assert r.latency_ms == r.completion_time - r.arrival_time
        assert r.service_ms == r.completion_time - r.start_time
        assert r.start_time >= r.dispatch_time >= r.arrival_time


# --- brute-force equivalence ---------------------------------------------------


def test_engine_matches_brute_force_replay_random_instances():
    rng = random.Random(7)
    for _ in range(40):
        n_tasks = rng.randint(1, 20)
        n_devices = rng.randint(1, 3)
        arrivals, t = [], 0.0
        for _ in range(n_tasks):
            t += rng.uniform(1.0, 300.0)
            arrivals.append(t)
        tasks = llm_tasks(arrivals)
        assignment = {i: rng.randrange(n_devices) for i in range(n_tasks)}
        service = {
            (d, i): rng.uniform(1.0, 500.0)
            for d in range(n_devices)
            for i in range(n_tasks)
        }
        result = run_fixed(tasks, assignment, service, priors=llm_priors(n_devices))
        expected = brute_force_replay(tasks, assignment, service)
        assert len(result.records) == n_tasks
        for r in result.records:
            start, completion = expected[r.task_id]
            assert r.start_time == start
            assert r.completion_time == completion


def test_fifo_per_device_start_times_nondecreasing():
    rng = random.Random(11)
    arrivals, t = [], 0.0
    for _ in range(20):
        t += rng.uniform(1.0, 50.0)
        arrivals.append(t)
    tasks = llm_tasks(arrivals)
    assignment = {i: i % 2 for i in range(20)}
    service = {(d, i): rng.uniform(10.0, 200.0) for d in range(2) for i in range(20)}
    result = run_fixed(tasks, assignment, service, priors=llm_priors(2))
    for device in (0, 1):
        starts = [
            r.start_time
            for r in sorted(result.records, key=lambda r: r.dispatch_time)
            if r.device_id == device
        ]
        assert starts == sorted(starts)


# --- determinism ---------------------------------------------------------------


def test_identical_runs_produce_identical_records(fixture_priors):
    def one_run():
        truth = make_truth(fixture_priors, prior_error={0: 1.2, 1: 0.8, 2: 1.1, 3: 0.9}, jitter=0.2)
        tasks = generate_workload(60, 0.5)
        return Engine(truth, builtin_plans("semantic"), tasks, RoundRobinPolicy()).run()

    first, second = one_run(), one_run()
    assert first.records == second.records
    assert first.event_log == second.event_log


# --- ground truth ---------------------------------------------------------------


def test_true_service_time_examples(fixture_priors):
    truth = make_truth(fixture_priors)
    task = TaskSpec(0, LLM, 0.0, 512, 64)
    assert truth.true_service_time(0, task) == 3712.0
    truth.apply_event(SemanticOnset(0, 0, "game", 3.0))
    assert truth.true_service_time(0, task) == 3712.0 * 3
    sd_task = TaskSpec(1, SDXL, 0.0)
    assert truth.true_service_time(2, sd_task) == 4000.0


def test_true_service_time_unavailable_device_is_engine_fault(fixture_priors):
    truth = make_truth(fixture_priors)
    truth.apply_event(DeviceLeave(0, 0))
    with pytest.raises(RuntimeError, match="engine fault"):
        truth.true_service_time(0, TaskSpec(0, LLM, 0.0, 256, 32))


def test_stutter_indicator_follows_hidden_state(fixture_priors):
    truth = make_truth(fixture_priors)
    assert truth.stutter_indicator(0) == 0
    truth.apply_event(SemanticOnset(0, 0, "game", 3.0))
    assert truth.stutter_indicator(0) == 1
    truth.apply_event(SemanticOffset(1, 0, "game"))
    assert truth.stutter_indicator(0) == 0


def test_drift_changes_service_but_not_hidden_state(fixture_priors):
    truth = make_truth(fixture_priors)
    task = TaskSpec(0, LLM, 0.0, 512, 64)
    base = truth.true_service_time(1, task)
    truth.apply_event(DriftStep(0, 1, "llama3.1-8b-edge", 2.0))
    assert truth.true_service_time(1, task) == 2 * base
    assert truth.devices[1].z == STABLE
    truth.apply_event(DriftRestore(1, 1, "llama3.1-8b-edge"))
    assert truth.true_service_time(1, task) == base


def test_semantic_label_named_like_a_drift_model_keeps_the_drift(fixture_priors):
    # A semantic label is free text, so it may spell "drift:<model>"; its
    # window must not overwrite or close the device's open drift window.
    model = "llama3.1-8b-edge"
    plan = plan_from_dicts(
        [
            {"type": "drift_step", "at_task": 1, "device": 1, "model": model, "factor": 2.0},
            {"type": "semantic_onset", "at_task": 2, "device": 1, "label": f"drift:{model}"},
            {"type": "semantic_offset", "at_task": 3, "device": 1, "label": f"drift:{model}"},
            {"type": "drift_restore", "at_task": 4, "device": 1, "model": model},
        ]
    )
    truth = make_truth(fixture_priors)
    seen = []
    for event in plan.events:
        truth.apply_event(event)
        seen.append((truth.devices[1].factor, truth.devices[1].z))
    assert seen == [(2.0, STABLE), (6.0, DEGRADED), (2.0, STABLE), (1.0, STABLE)]


def test_stutter_stamped_at_dispatch_not_completion(fixture_priors):
    # Device degraded when the task is dispatched; offset lands before the
    # (long) task completes.  The record must still carry stutter = 1.
    truth = make_truth(fixture_priors)
    plan = ScenarioPlan((SemanticOnset(0, 0, "game", 3.0), SemanticOffset(1, 0, "game")))
    tasks = [TaskSpec(0, LLM, 0.0, 1024, 128), TaskSpec(1, LLM, 2000.0, 256, 32)]
    result = Engine(truth, plan, tasks, FixedAssignmentPolicy({0: 0, 1: 0})).run()
    by_id = {r.task_id: r for r in result.records}
    assert by_id[0].stutter == 1
    assert by_id[1].stutter == 0


def test_jitter_defaults_off_and_is_bounded(fixture_priors):
    exact = make_truth(fixture_priors)
    wobbly = make_truth(fixture_priors, jitter=0.2)
    task = TaskSpec(5, LLM, 0.0, 512, 64)
    assert exact.true_service_time(0, task) == 3712.0
    value = wobbly.true_service_time(0, task)
    assert value != 3712.0
    assert 3712.0 * 0.8 <= value <= 3712.0 * 1.2
    assert value == wobbly.true_service_time(0, task)


def test_prior_error_factors_scale_truth(fixture_priors):
    truth = make_truth(fixture_priors, prior_error={0: (2.0, 3.0), 2: 1.5})
    task = TaskSpec(0, LLM, 0.0, 100, 10)
    assert truth.true_service_time(0, task) == 2.0 * 100 + 150.0 * 10
    assert truth.true_service_time(2, TaskSpec(1, SDXL, 0.0)) == 6000.0


# --- scenario events in the loop -------------------------------------------------


def test_device_leave_excludes_from_feasible_set(fixture_priors):
    seen = {}

    class Probe:
        name = "probe"

        def choose(self, task, obs):
            seen[task.task_id] = obs.available_devices(task.kind)
            return obs.available_devices(task.kind)[0]

    truth = make_truth(fixture_priors)
    plan = ScenarioPlan((DeviceLeave(3, 1), DeviceReturn(5, 1)))
    tasks = [TaskSpec(i, LLM, i * 2000.0, 256, 32) for i in range(7)]
    Engine(truth, plan, tasks, Probe()).run()
    assert seen[2] == [0, 1]
    assert seen[3] == [0]
    assert seen[4] == [0]
    assert seen[5] == [0, 1]


def test_departed_device_completes_in_flight_and_requeues_rest(fixture_priors):
    # Both queued tasks sit on device 1 when it leaves: the in-flight one
    # finishes there, the queued one re-dispatches to device 0, which a
    # semantic onset degrades at the same instant.
    truth = make_truth(fixture_priors)
    plan = ScenarioPlan(
        (SemanticOnset(2, 0, "game", 3.0), DeviceLeave(2, 1), SemanticOffset(6, 0, "game"), DeviceReturn(6, 1))
    )
    tasks = [TaskSpec(0, LLM, 0.0, 1024, 128), TaskSpec(1, LLM, 2000.0, 256, 32),
             TaskSpec(2, LLM, 4000.0, 256, 32)]

    class PreferOne:
        name = "prefer_one"

        def choose(self, task, obs):
            avail = obs.available_devices(task.kind)
            return 1 if 1 in avail else avail[0]

    result = Engine(truth, plan, tasks, PreferOne()).run()
    by_id = {r.task_id: r for r in result.records}
    assert by_id[0].device_id == 1
    assert by_id[1].device_id == 0
    # The record carries the second dispatch's time and stutter, not the first's.
    assert by_id[1].dispatch_time == 4000.0  # re-dispatched at the leave instant
    assert by_id[1].stutter == 1
    assert by_id[0].stutter == 0


def test_pending_buffer_holds_tasks_until_any_return(fixture_priors):
    truth = make_truth(fixture_priors)
    plan = ScenarioPlan(
        (DeviceLeave(0, 2), DeviceLeave(0, 3), DeviceReturn(2, 2), DeviceReturn(3, 3))
    )
    tasks = [TaskSpec(0, SDXL, 0.0), TaskSpec(1, SDXL, 2000.0), TaskSpec(2, SDXL, 4000.0)]

    class FirstAvailable:
        name = "first_available"

        def choose(self, task, obs):
            avail = obs.available_devices(task.kind)
            return avail[0] if avail else None

    result = Engine(truth, plan, tasks, FirstAvailable()).run()
    by_id = {r.task_id: r for r in result.records}
    assert by_id[0].dispatch_time == 4000.0  # buffered until the return at task 2
    assert by_id[0].latency_ms >= 4000.0


def test_policy_returning_unavailable_device_is_fatal(fixture_priors):
    truth = make_truth(fixture_priors)
    plan = ScenarioPlan((DeviceLeave(0, 0), DeviceReturn(1, 0)))
    tasks = [TaskSpec(0, LLM, 0.0, 256, 32), TaskSpec(1, LLM, 2000.0, 256, 32)]
    with pytest.raises(EngineError, match="unavailable"):
        Engine(truth, plan, tasks, FixedAssignmentPolicy({0: 0, 1: 0})).run()


def test_scenario_event_processes_before_same_time_arrival(fixture_priors):
    truth = make_truth(fixture_priors)
    plan = ScenarioPlan((SemanticOnset(1, 0, "game", 3.0), SemanticOffset(2, 0, "game")))
    tasks = [TaskSpec(0, LLM, 0.0, 256, 32), TaskSpec(1, LLM, 2000.0, 256, 32),
             TaskSpec(2, LLM, 4000.0, 256, 32)]
    result = Engine(truth, plan, tasks, FixedAssignmentPolicy({0: 0, 1: 0, 2: 0})).run()
    by_id = {r.task_id: r for r in result.records}
    assert by_id[0].stutter == 0
    assert by_id[1].stutter == 1  # onset at index 1 lands before task 1 dispatch
    assert by_id[2].stutter == 0


def test_events_fire_at_their_tasks_arrival_on_an_uneven_stream(fixture_priors):
    truth = make_truth(fixture_priors)
    plan = ScenarioPlan((SemanticOnset(3, 0, "game", 3.0), SemanticOffset(4, 0, "game")))
    tasks = llm_tasks([0.0, 100.0, 5000.0, 6000.0, 7000.0])
    result = Engine(truth, plan, tasks, FixedAssignmentPolicy({i: 0 for i in range(5)})).run()
    assert result.event_log == ["3 6000 semantic_onset 0 game", "4 7000 semantic_offset 0 game"]
    assert [r.stutter for r in sorted(result.records)] == [0, 0, 0, 1, 0]


# --- causality and non-leakage ---------------------------------------------------


def test_records_delivered_exactly_at_completion(fixture_priors):
    deliveries = []
    policy = FixedAssignmentPolicy({i: 0 for i in range(5)})
    policy.on_completion = lambda record, _now_task: deliveries.append(
        (record.task_id, record.completion_time, engine.now)
    )
    truth = make_truth(fixture_priors)
    tasks = [TaskSpec(i, LLM, i * 2000.0, 256, 32) for i in range(5)]
    engine = Engine(truth, ScenarioPlan(()), tasks, policy)
    engine.run()
    assert len(deliveries) == 5
    for _task_id, completion, now in deliveries:
        assert now == completion


def test_observable_state_contains_no_ground_truth(fixture_priors):
    truth = make_truth(fixture_priors, prior_error={0: 2.0}, jitter=0.1)
    tasks = generate_workload(30, 0.5)
    engine = Engine(truth, builtin_plans("semantic"), tasks, RoundRobinPolicy())
    with leak_scan():
        result = engine.run()
    view = engine.observable_state()
    assert_no_ground_truth(ObservableState(view.now, view.devices, view.annotations))
    assert result.records


@pytest.mark.parametrize("policy_cls", [RoundRobinPolicy, OraclePolicy])
def test_shuffled_workload_gives_the_same_run(fixture_priors, policy_cls):
    tasks = generate_workload(300, 2.0)
    shuffled = list(tasks)
    random.Random(5).shuffle(shuffled)

    def run(workload):
        truth = make_truth(fixture_priors, jitter=0.1)
        return Engine(truth, builtin_plans("churn"), workload, policy_cls()).run()

    ordered, mixed = run(tasks), run(shuffled)
    assert mixed.records == ordered.records
    assert mixed.event_log == ordered.event_log
    assert mixed.annotations == ordered.annotations


# The keys of an observation row, in order, as tools and adapters have always
# received them: the record's stored facts with its latency and service
# between the completion time and the token counts.
OBSERVATION_KEYS = (
    "task_id", "device_id", "kind", "arrival_time", "dispatch_time", "start_time",
    "completion_time", "latency_ms", "service_ms", "n_in", "n_out", "stutter",
)


SMALLEST_WINDOW = math.nextafter(0.0, 1.0)


def reference_observation_rows(records, now, window_ms, limit):
    rows = [{key: getattr(r, key) for key in OBSERVATION_KEYS} for r in records]
    if window_ms is not None:
        rows = [r for r in rows if r["completion_time"] >= now - window_ms]
    if limit is not None:
        rows = rows[-limit:]
    return rows


def test_observation_log_equals_record_rows(fixture_priors):
    # The smallest window keeps only the records completed at ``now``; the
    # largest keeps them all.  A window of 0, inf or nan is rejected (test_contracts).
    windows = (None, SMALLEST_WINDOW, 0.5, 5000.0, 60_000.0, 1e300)
    limits = (None, 1, 7, 10**6)
    checked = []

    def on_completion(record, _now_task):
        if record.task_id % 25 == 0:
            check(record.completion_time)

    def check(now):
        for window_ms in windows:
            for limit in limits:
                got = Telemetry(engine).observations(window_ms, limit)
                assert got == reference_observation_rows(engine.records, now, window_ms, limit)
        checked.append(now)

    truth = make_truth(fixture_priors, jitter=0.1)
    policy = RoundRobinPolicy()
    policy.on_completion = on_completion
    engine = Engine(truth, builtin_plans("semantic"), generate_workload(200, 2.0), policy)
    engine.run()
    check(engine.now)
    assert len(checked) > 5


def test_observations_of_a_long_run_equal_record_rows(fixture_priors):
    """At H=2000, small windows and limits give the reference rows."""
    checked = []

    def on_completion(record, _now_task):
        if record.task_id % 97 == 0:
            check(record.completion_time)

    def check(now):
        for window_ms in (None, SMALLEST_WINDOW, 500.0, 5000.0):
            for limit in (None, 1, 7):
                got = Telemetry(engine).observations(window_ms, limit)
                assert got == reference_observation_rows(engine.records, now, window_ms, limit)
        checked.append(now)

    truth = make_truth(fixture_priors, jitter=0.1)
    policy = RoundRobinPolicy()
    policy.on_completion = on_completion
    engine = Engine(truth, builtin_plans("semantic"), generate_workload(2000, 2.0), policy)
    engine.run()
    check(engine.now)
    assert len(engine.records) == 2000 and len(checked) > 15


def test_observation_rows_and_pulled_observations_keep_their_twelve_keys(fixture_priors):
    truth = make_truth(fixture_priors, jitter=0.1)
    engine = Engine(truth, builtin_plans("churn"), generate_workload(120, 2.0), RoundRobinPolicy())
    engine.run()
    rows = Telemetry(engine).observations()
    assert len(rows) == len(engine.records) == 120
    for row, record in zip(rows, engine.records):
        assert tuple(row) == OBSERVATION_KEYS
        assert row["latency_ms"] == record.completion_time - record.arrival_time
        assert row["service_ms"] == record.completion_time - record.start_time
        assert [row[key] for key in OBSERVATION_KEYS if key in record._fields] == list(record)

    meta = MetaController(fixture_priors)
    meta.attach_telemetry(Telemetry(engine))
    meta.invocations.append(Invocation("semantic_onset", task_index=120, device=0))
    result = meta.execute_tool(ToolCall("pull_observations", {"limit": 7}))
    assert result.ok
    assert [tuple(row) for row in result.payload["observations"]] == [OBSERVATION_KEYS] * 7
    assert result.payload["observations"] == rows[-7:]


def test_idle_device_availability_shows_at_the_next_decision(fixture_priors):
    # Device 1 is idle with an empty queue when it leaves and when it returns.
    seen = {}

    class Probe:
        name = "probe"

        def choose(self, task, obs):
            seen[task.task_id] = obs.devices[1].available
            return 0

    plan = ScenarioPlan((DeviceLeave(2, 1), DeviceReturn(4, 1)))
    tasks = llm_tasks([i * 20_000.0 for i in range(6)])
    Engine(make_truth(fixture_priors), plan, tasks, Probe()).run()
    assert [seen[i] for i in range(6)] == [True, True, False, False, True, True]


# --- plans ------------------------------------------------------------------------


def test_builtin_semantic_plan_shape():
    plan = builtin_plans("semantic")
    onsets = [e for e in plan.events if isinstance(e, SemanticOnset)]
    offsets = [e for e in plan.events if isinstance(e, SemanticOffset)]
    assert len(onsets) == 5 and len(offsets) == 5
    assert {e.label for e in onsets} == {
        "game",
        "video_call",
        "low_battery",
        "system_update",
        "overheating",
    }


def test_builtin_warmup_plan_empty():
    assert builtin_plans("warmup").events == ()


def test_builtin_drift_plan_defaults():
    plan = builtin_plans("drift")
    step, restore = plan.events
    assert isinstance(step, DriftStep) and step.at_task == 120
    assert step.device == 1 and step.factor == 2.0
    assert isinstance(restore, DriftRestore) and restore.at_task == 220


def test_builtin_churn_plan_pairs():
    plan = builtin_plans("churn")
    assert [type(e).__name__ for e in plan.events] == [
        "DeviceLeave",
        "DeviceReturn",
        "DeviceLeave",
        "DeviceReturn",
    ]


def test_unknown_plan_lists_valid_names():
    with pytest.raises(PlanError, match="churn.*drift.*semantic.*warmup"):
        builtin_plans("bogus")


def test_plan_validation_rejects_unpaired_events():
    with pytest.raises(PlanError):
        ScenarioPlan((SemanticOnset(1, 0, "game", 3.0),))
    with pytest.raises(PlanError):
        ScenarioPlan((DeviceLeave(1, 0),))
    with pytest.raises(PlanError):
        ScenarioPlan((SemanticOffset(1, 0, "game"),))


def test_plan_from_dicts_roundtrip():
    plan = plan_from_dicts(
        [
            {"type": "semantic_onset", "at_task": 3, "device": 0, "label": "game", "factor": 2.5},
            {"type": "semantic_offset", "at_task": 5, "device": 0, "label": "game"},
        ]
    )
    assert isinstance(plan.events[0], SemanticOnset)
    assert plan.events[0].factor == 2.5
    with pytest.raises(PlanError, match="unknown event type"):
        plan_from_dicts([{"type": "nope"}])


def test_plan_rejects_offset_that_closes_another_label():
    # Paired by device only, this offset would leave "game" active (and the
    # device degraded) for the rest of the run.
    with pytest.raises(PlanError, match="video_call"):
        ScenarioPlan((SemanticOnset(1, 0, "game"), SemanticOffset(2, 0, "video_call")))
    with pytest.raises(PlanError, match="restore"):
        ScenarioPlan((DriftStep(1, 0, "m-a", 2.0), DriftRestore(2, 0, "m-b")))


@pytest.mark.parametrize(
    "cls,args,field",
    [
        (DeviceLeave, (True, 0), "at_task"),
        (DeviceLeave, (-1, 0), "at_task"),
        (DeviceReturn, (1.0, 0), "at_task"),
        (DeviceLeave, (1, "1"), "device"),
        (DeviceReturn, (1, False), "device"),
        (SemanticOnset, (1, 0, ""), "label"),
        (SemanticOffset, (1, 0, None), "label"),
        (SemanticOnset, (1, 0, "game", float("nan")), "factor"),
        (SemanticOnset, (1, 0, "game", -2), "factor"),
        (DriftStep, (1, 0, "m", float("inf")), "factor"),
        (DriftStep, (1, 0, "m", True), "factor"),
        (DriftRestore, (1, 0, 7), "model"),
        (DriftStep, (1, 0, "m", 10**400), "factor"),
    ],
)
def test_malformed_event_fields_are_rejected(cls, args, field):
    with pytest.raises(PlanError, match=rf"\b{field}\b"):
        cls(*args)


def test_plan_from_dicts_rejects_malformed_rows():
    rows = [
        {"type": "semantic_onset", "at_task": 1, "device": 0, "label": "game", "factor": 3.0},
        {"type": "semantic_offset", "at_task": 2, "device": 0, "label": "game"},
    ]
    plan_from_dicts(rows)
    for field, bad in (("at_task", True), ("device", "1"), ("factor", float("nan")), ("factor", -2)):
        bad_rows = [dict(row, **{field: bad}) if field in row else row for row in rows]
        with pytest.raises(PlanError, match=field):
            plan_from_dicts(bad_rows)


@pytest.mark.parametrize(
    "rows, message",
    [
        (5, "a plan must be a list of event objects, got 5"),
        ({"type": "device_leave"}, "a plan must be a list"),
        ([5], "a plan row must be an object, got 5"),
        ([{"type": "device_leave", "at_task": 1, "device": 0}, "x"], "a plan row must be an object, got 'x'"),
        ([{"type": ["device_leave"], "at_task": 1, "device": 0}],
         r"unknown event type \['device_leave'\]; valid: "),
    ],
)
def test_plan_from_dicts_rejects_a_non_list_or_a_non_object_row(rows, message):
    with pytest.raises(PlanError, match=message):
        plan_from_dicts(rows)


def test_engine_rejects_plan_naming_a_device_outside_the_pool(fixture_priors):
    plan = ScenarioPlan((DeviceLeave(1, 9), DeviceReturn(2, 9)))
    with pytest.raises(PlanError, match="device 9"):
        Engine(make_truth(fixture_priors), plan, llm_tasks([0.0]), RoundRobinPolicy())


def test_drift_is_logged_but_never_annotated(fixture_priors):
    plan = ScenarioPlan(
        (
            SemanticOnset(1, 0, "game"),
            DriftStep(1, 1, "llama3.1-8b-edge", 2.0),
            DriftRestore(2, 1, "llama3.1-8b-edge"),
            SemanticOffset(3, 0, "game"),
        )
    )
    seen = []

    class Probe:
        name = "probe"

        def choose(self, task, obs):
            return obs.available_devices(task.kind)[0]

        def on_annotation(self, annotation):
            seen.append(annotation.type)

    tasks = llm_tasks([0.0, 2000.0, 4000.0, 6000.0])
    result = Engine(make_truth(fixture_priors), plan, tasks, Probe()).run()
    assert seen == [a.type for a in result.annotations] == ["semantic_onset", "semantic_offset"]
    assert result.event_log == [
        "1 2000 semantic_onset 0 game",
        "1 2000 drift_step 1 llama3.1-8b-edge",
        "2 4000 drift_restore 1 llama3.1-8b-edge",
        "3 6000 semantic_offset 0 game",
    ]


# --- errors a caller can provoke -------------------------------------------------


@pytest.mark.parametrize(
    "rows, message",
    [
        ([{"type": "device_leave", "at_task": 5, "device": 0},
          {"type": "device_return", "at_task": 2, "device": 0}],
         "plan events must be sorted by task index"),
        ([{"type": "device_leave", "at_task": 1, "device": 0},
          {"type": "device_leave", "at_task": 2, "device": 0},
          {"type": "device_return", "at_task": 3, "device": 0}],
         "device_leave at task 2 on device 0: window already open since task 1"),
        ([{"type": "device_leave", "at_task": 1, "device": 0, "colour": "red"}],
         "bad arguments for device_leave: .*'colour'"),
    ],
    ids=["unsorted", "opened_twice", "unknown_field"],
)
def test_plan_rows_out_of_order_or_shape_are_rejected(rows, message):
    with pytest.raises(PlanError, match=message):
        plan_from_dicts(rows)


@pytest.mark.parametrize(
    "device, model, message",
    [
        (2, "llama3.1-8b-edge", "drift_step at task 1: model 'llama3.1-8b-edge' does not run on SDXL device 2"),
        (0, "stable-diffusion-xl", "drift_step at task 1: model 'stable-diffusion-xl' does not run on LLM device 0"),
        (0, "resnet50", "drift_step at task 1: model 'resnet50' does not run on LLM device 0"),
    ],
    ids=["llm_model_on_sdxl", "sdxl_model_on_llm", "unknown_model"],
)
def test_engine_rejects_a_drift_naming_a_model_its_device_does_not_run(fixture_priors, device, model, message):
    plan = ScenarioPlan((DriftStep(1, device, model, 2.0), DriftRestore(2, device, model)))
    with pytest.raises(PlanError, match=message):
        Engine(make_truth(fixture_priors), plan, llm_tasks([0.0]), RoundRobinPolicy())


def test_policy_refusing_a_task_while_a_device_is_feasible_is_fatal(fixture_priors):
    class Refuses:
        name = "refuses"

        def choose(self, task, obs):
            return None

    with pytest.raises(EngineError, match="policy refuses refused task 0 despite feasible devices"):
        Engine(make_truth(fixture_priors), ScenarioPlan(()), llm_tasks([0.0]), Refuses()).run()


def test_policy_routing_a_task_to_a_device_of_another_kind_is_fatal(fixture_priors):
    with pytest.raises(EngineError, match="routed LLM task 0 to SDXL device 2"):
        Engine(make_truth(fixture_priors), ScenarioPlan(()), llm_tasks([0.0]), FixedAssignmentPolicy({0: 2})).run()


@pytest.mark.parametrize("device", [9, True, 1.0], ids=["absent", "bool", "float"])
def test_policy_routing_a_task_to_an_unknown_device_is_fatal(fixture_priors, device):
    """A bool or float equal to a device id is no device id: the run stops
    before dispatching it."""
    engine = Engine(make_truth(fixture_priors), ScenarioPlan(()), llm_tasks([0.0]), FixedAssignmentPolicy({0: device}))
    with pytest.raises(EngineError) as info:
        engine.run()
    assert str(info.value) == f"policy fixed_assignment routed task 0 to unknown device {device!r}"
    assert engine.records == [] and all(not dev.queue for dev in engine.devices.values())


def test_a_workload_with_a_repeated_task_id_is_rejected(fixture_priors):
    tasks = [TaskSpec(0, LLM, 0.0, 256, 32), TaskSpec(0, LLM, 10.0, 512, 64)]
    with pytest.raises(EngineError, match="workload task ids must be unique"):
        Engine(make_truth(fixture_priors), ScenarioPlan(()), tasks, RoundRobinPolicy())


def test_task_no_device_can_run_is_stranded_at_the_end(fixture_priors):
    llm_only = make_truth(fixture_priors[:2])
    tasks = [TaskSpec(0, LLM, 0.0, 256, 32), TaskSpec(1, SDXL, 1000.0)]
    with pytest.raises(EngineError, match=r"run ended with 1 task\(s\) stranded in the pending buffer"):
        Engine(llm_only, ScenarioPlan(()), tasks, RoundRobinPolicy()).run()


def test_queue_tail_of_an_unknown_device_is_a_key_error(fixture_priors):
    engine = Engine(make_truth(fixture_priors), ScenarioPlan(()), [], RoundRobinPolicy())
    obs = engine.observable_state()
    assert obs.queue_tail(3, 0) == (0, None, ())
    with pytest.raises(KeyError, match="unknown device 9"):
        obs.queue_tail(9, 0)


@pytest.mark.parametrize(
    "device, task, message",
    [
        (2, TaskSpec(0, LLM, 0.0, 256, 32), "device 2 does not serve LLM tasks"),
        (0, TaskSpec(0, SDXL, 0.0), "device 0 does not serve SDXL tasks"),
        (0, TaskSpec(0, "video", 0.0), "unknown task kind 'video'"),
    ],
    ids=["llm_on_sdxl", "sdxl_on_llm", "unknown_kind"],
)
def test_true_service_time_of_a_task_of_the_wrong_kind_is_rejected(fixture_priors, device, task, message):
    with pytest.raises(ValueError, match=message):
        make_truth(fixture_priors).true_service_time(device, task)
