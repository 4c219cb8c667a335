"""The engine's per-decision view reads like an ObservableState built eagerly.

``Engine.observable_state`` returns a :class:`DecisionView` that builds a
device's snapshot only when a policy reads ``devices``, and otherwise hands
out only a queue's unseen tail.  These tests pin that every read equals the
eager state of the same moment, that a view is valid only for its decision,
that no shipped policy causes a snapshot to be built, and that the leak
check still scans the whole view.
"""

from __future__ import annotations

from typing import NamedTuple

import pytest

from edgesched import harness
from edgesched.profiles import LLM, SDXL
from edgesched.router import OraclePolicy, RoundRobinPolicy, scores
from edgesched.sim.engine import (
    DecisionView,
    DeviceSnapshot,
    Engine,
    EngineError,
    ObservableState,
)
from edgesched.sim.truth import ScenarioPlan, builtin_plans
from edgesched.sim.workload import TaskSpec, generate_workload

from conftest import leak_scan, make_truth

PRESETS = [("warmup", 0), ("warmup", 30), ("warmup", 100), ("semantic", 0), ("churn", 0), ("drift", 0)]


def eager_state(engine: Engine) -> ObservableState:
    """The engine's state as an ObservableState, read from its queues and ground truth."""
    snaps = []
    for device in sorted(engine.devices):
        dev = engine.devices[device]
        snaps.append(
            DeviceSnapshot(device, dev.kind, engine.truth.is_available(device), tuple(dev.queue), dev.in_flight, dev.departed)
        )
    return ObservableState(engine.now, tuple(snaps), tuple(engine.annotations))


def check_every_view(monkeypatch) -> list[int]:
    """Compare each view the engine makes with the eager state; returns a decision counter."""
    original = Engine.observable_state
    decisions = [0]

    def compared(self):
        view = original(self)
        ref = eager_state(self)
        assert isinstance(view, DecisionView)
        assert view.now == ref.now and view.annotations == ref.annotations
        for kind in (LLM, SDXL):
            assert view.available_devices(kind) == ref.available_devices(kind), kind
        for device, dev in self.devices.items():
            arrived = dev.departed + len(dev.queue)
            for seen in {0, dev.departed, arrived - 1, arrived, arrived + 1}:
                assert view.queue_tail(device, seen) == ref.queue_tail(device, seen), (device, seen)
        assert view.devices == ref.devices
        decisions[0] += 1
        return view

    monkeypatch.setattr(Engine, "observable_state", compared)
    return decisions


@pytest.mark.parametrize(
    "scenario, warmup, horizon, lam",
    [(s, w, 300, 0.5) for s, w in PRESETS] + [("churn", 0, 600, 2.0)],
    ids=[f"{s}-W{w}" for s, w in PRESETS] + ["churn-H600-lam2"],
)
def test_every_view_equals_the_eager_state(monkeypatch, scenario, warmup, horizon, lam):
    decisions = check_every_view(monkeypatch)
    result = harness.run_experiment(
        harness.ExperimentConfig(scenario, warmup_budget=warmup, horizon=horizon, lam=lam)
    )
    completed = sum(len(run.records) for run in result.runs.values())
    # Every task is routed at least once; churn routes some again.
    assert decisions[0] >= completed == len(result.runs) * horizon


STALE_READS = {
    "available_devices": lambda view: view.available_devices(LLM),
    "queue_tail": lambda view: view.queue_tail(0, 0),
    "devices": lambda view: view.devices,
}


class KeepingPolicy:
    """Round robin that keeps every view and reads the previous one at each decision."""

    name = "keeping"

    def __init__(self, read) -> None:
        self.inner = RoundRobinPolicy()
        self.read = read
        self.views: list[DecisionView] = []
        self.stale_raised = 0

    def choose(self, task, obs):
        if self.views:
            with pytest.raises(EngineError, match="read after its decision"):
                self.read(self.views[-1])
            self.stale_raised += 1
        self.read(obs)
        self.views.append(obs)
        return self.inner.choose(task, obs)


@pytest.mark.parametrize("read", sorted(STALE_READS))
def test_a_view_read_after_its_decision_raises(fixture_priors, read):
    policy = KeepingPolicy(STALE_READS[read])
    # All three arrive before the first completion, so only decisions end the views.
    tasks = [TaskSpec(i, LLM, 100.0 * i, 256, 32) for i in range(3)]
    engine = Engine(make_truth(fixture_priors), ScenarioPlan(()), tasks, policy)
    before = engine.observable_state()
    result = engine.run()
    assert policy.stale_raised == 2
    assert min(r.completion_time for r in result.records) > 200.0
    for view in [before, *policy.views]:
        with pytest.raises(EngineError, match="read after its decision"):
            STALE_READS[read](view)
    # The values fixed at the decision stay readable.
    assert [view.now for view in policy.views] == [0.0, 100.0, 200.0]
    # A fast path keeps its last view between decisions, but never answers from it.
    agent = harness.build_agent(fixture_priors, warmup_budget=0)
    Engine(make_truth(fixture_priors), ScenarioPlan(()), tasks, agent).run()
    for stale in (lambda: agent.candidates(LLM), lambda: scores(tasks[0], (0,), agent)):
        with pytest.raises(EngineError, match="read after its decision"):
            stale()


def test_a_view_read_outside_a_run_answers_until_the_engine_moves(fixture_priors):
    engine = Engine(make_truth(fixture_priors), builtin_plans("churn"), generate_workload(40, 0.5), RoundRobinPolicy())
    view = engine.observable_state()
    assert [view.available_devices(kind) for kind in (LLM, SDXL)] == [[0, 1], [2, 3]]
    assert view.devices == eager_state(engine).devices
    engine.run()
    view = engine.observable_state()
    assert view.devices == eager_state(engine).devices
    assert view.annotations and view.now == engine.now


@pytest.mark.parametrize("policy_cls", [RoundRobinPolicy, OraclePolicy])
def test_policies_that_read_no_snapshot_build_none(fixture_priors, policy_cls, monkeypatch):
    policy = policy_cls()
    choose = policy.choose
    decisions = [0]
    built = []
    snapshot = Engine._snapshot

    def counted(self, dev):
        built.append(dev.device_id)
        return snapshot(self, dev)

    def checked(task, obs):
        device = choose(task, obs)
        assert built == [], task.task_id
        decisions[0] += 1
        return device

    monkeypatch.setattr(Engine, "_snapshot", counted)
    policy.choose = checked  # the engine looks its callbacks up once, when built
    tasks = generate_workload(600, 2.0)
    engine = Engine(make_truth(fixture_priors, jitter=0.15), builtin_plans("churn"), tasks, policy)
    result = engine.run()
    assert len(result.records) == 600 and decisions[0] >= 600
    assert result.annotations  # the churn plan ran: devices left and came back
    assert built == []
    # The count is live: a whole-pool read through a view builds every snapshot.
    engine.observable_state().devices
    assert built == [0, 1, 2, 3]


# Queued tasks the tail read hands each scoring policy in the overloaded
# semantic run below: about one per task, plus the queues e3 prices again
# after its model changes, where queues average about 80 tasks.
TAIL_TASKS = {"e3": 3191, "fixed_heuristic": 2981}


def test_scoring_policies_build_no_snapshot_and_read_only_unseen_tails(monkeypatch):
    """The queue work of a whole overloaded run, counted: semantic at H=3000,
    lambda=2.0, where queues grow to hundreds of tasks.  A whole-queue copy
    back on a scoring decision's path fails here, by name or by count."""
    built: dict[str, int] = {}
    handed: dict[str, int] = {}
    snapshot, queue_tail = Engine._snapshot, DecisionView.queue_tail

    def counted_snapshot(self, dev):
        built[self.policy.name] = built.get(self.policy.name, 0) + 1
        return snapshot(self, dev)

    def counted_tail(self, device, seen):
        read = queue_tail(self, device, seen)
        name = self._engine.policy.name
        handed[name] = handed.get(name, 0) + len(read[2])
        return read

    monkeypatch.setattr(Engine, "_snapshot", counted_snapshot)
    monkeypatch.setattr(DecisionView, "queue_tail", counted_tail)
    result = harness.run_experiment(harness.ExperimentConfig("semantic", horizon=3000, lam=2.0))
    assert sorted(result.runs) == sorted(harness.POLICY_NAMES)
    assert all(len(run.records) == 3000 for run in result.runs.values())
    assert built == {}
    assert handed == TAIL_TASKS


class AlphaTask(NamedTuple):
    """A workload task that also carries a ground-truth coefficient name."""

    task_id: int
    kind: str
    arrival_time: float
    n_in: int | None
    n_out: int | None
    alpha: float


def test_the_leak_check_scans_the_whole_view(fixture_priors):
    tasks = [AlphaTask(*task, alpha=1.0) for task in generate_workload(12, 0.5)]
    # Task 0 ends before task 1 arrives, so at task 2's decision the only
    # task in sight is task 1, in service on SDXL device 2.  Round robin
    # never reads a snapshot, so only the scan builds them.
    engine = Engine(make_truth(fixture_priors), ScenarioPlan(()), tasks, RoundRobinPolicy())
    with leak_scan(), pytest.raises(
        AssertionError, match=r"^ground-truth field 'alpha' leaked at devices\[2\]\.in_flight\.task$"
    ):
        engine.run()
    unchecked = Engine(make_truth(fixture_priors), ScenarioPlan(()), tasks, RoundRobinPolicy())
    assert len(unchecked.run().records) == 12


def test_an_unknown_device_is_a_key_error_in_a_hand_built_state(fixture_priors):
    # The engine's view has its own test in test_simulator.py.
    state = eager_state(Engine(make_truth(fixture_priors), ScenarioPlan(()), [], RoundRobinPolicy()))
    assert state.queue_tail(3, 0) == (0, None, ())
    with pytest.raises(KeyError, match="unknown device 9"):
        state.queue_tail(9, 0)
