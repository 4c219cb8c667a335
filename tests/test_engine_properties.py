"""Engine invariants on generated device pools, plans, uneven arrival streams and jitter.

Each example builds a pool of 2-8 devices from synthetic JSONL profile rows,
a valid plan through ``plan_from_dicts`` (some windows reach past the last
arrival), and a stream whose gaps may be zero, and runs every policy on it
twice.  At every decision of the two scoring policies, each device's
snapshot is checked against the last one it showed (its queue moved FIFO
by exactly ``departed`` tasks), the view's ``queue_tail`` against the
snapshot of the same moment for several counts of tasks already seen, and
each available device's backlog against a fresh reference loop.  Whether
the oracle has the lowest mean latency is recorded as a hypothesis event,
not asserted: it is a greedy referent, not an optimum.
"""

import json
import tempfile
from itertools import pairwise
from pathlib import Path

from hypothesis import Phase, event, given, settings
from hypothesis import strategies as st

from conftest import leak_scan, reference_predicted_backlog
from edgesched.harness import POLICY_NAMES, build_agent
from edgesched.opm import replay_oplog
from edgesched.profiles import LLM, SDXL, load_profiles, priors_from_records
from edgesched.router import FixedHeuristicPolicy, OraclePolicy, RoundRobinPolicy, backlog_ms, scores
from edgesched.sim.engine import Engine
from edgesched.sim.truth import GroundTruthState, plan_from_dicts
from edgesched.sim.workload import INPUT_BINS, OUTPUT_BINS, TaskSpec

MAX_TASKS = 400
# window family -> (opening event type, closing event type)
WINDOWS = {
    "semantic": ("semantic_onset", "semantic_offset"),
    "churn": ("device_leave", "device_return"),
    "drift": ("drift_step", "drift_restore"),
}


MODELS = {LLM: "llama-synthetic", SDXL: "sdxl-synthetic"}


def _profile_row(i, kind, draw):
    row = {"device_name": f"dev{i}", "scenario": "SingleStream", "model_id": MODELS[kind]}
    if kind == LLM:
        row.update(ttft_ms_p99=draw(st.floats(50.0, 4000.0)),
                   tpot_ms_p99=draw(st.floats(5.0, 200.0)))
    else:
        row.update(latency_ms_p99=draw(st.floats(500.0, 20000.0)),
                   image_size=1024, steps=20)
    return row


def _plan_rows(draw, kinds, horizon):
    """Non-overlapping windows per (family, device, model), as sorted plan rows.

    A drift window names the model its device runs: the engine rejects one
    that names another kind's model."""
    rows, busy_until = [], {}
    for _ in range(draw(st.integers(1, 8))):
        family = draw(st.sampled_from(sorted(WINDOWS)))
        device = draw(st.integers(0, len(kinds) - 1))
        start = draw(st.integers(0, horizon + 10))
        end = start + draw(st.integers(1, 60))
        extra = {}
        if family == "drift":
            extra["model"] = MODELS[kinds[device]]
        key = (family, device, extra.get("model"))
        if start <= busy_until.get(key, -1):
            continue
        busy_until[key] = end
        if family == "semantic":
            extra["label"] = f"label{len(rows)}"
        opening, closing = WINDOWS[family]
        factor = {} if family == "churn" else {"factor": draw(st.floats(0.25, 4.0))}
        rows.append({"type": opening, "at_task": start, "device": device, **extra, **factor})
        rows.append({"type": closing, "at_task": end, "device": device, **extra})
    return sorted(rows, key=lambda row: row["at_task"])


@st.composite
def cases(draw):
    kinds = draw(st.permutations([LLM, SDXL, *draw(st.lists(st.sampled_from([LLM, SDXL]), max_size=6))]))
    profile_rows = [_profile_row(i, kind, draw) for i, kind in enumerate(kinds)]
    horizon = draw(st.integers(1, MAX_TASKS))
    steps = draw(st.lists(
        st.tuples(
            st.one_of(st.just(0.0), st.floats(0.0, 8000.0)),
            st.sampled_from([LLM, SDXL]),
            st.sampled_from(INPUT_BINS),
            st.sampled_from(OUTPUT_BINS),
        ),
        min_size=horizon,
        max_size=horizon,
    ))
    tasks, now = [], 0.0
    for k, (gap, kind, n_in, n_out) in enumerate(steps):
        now += gap
        tasks.append(TaskSpec(k, kind, now, n_in, n_out) if kind == LLM else TaskSpec(k, kind, now))
    plan_rows = _plan_rows(draw, kinds, len(tasks))
    jitter = draw(st.sampled_from([0.0, 0.1, 0.3]))
    warmup = draw(st.integers(0, 40))
    return profile_rows, plan_rows, tasks, jitter, warmup


def _policy(name, priors, warmup):
    if name == "e3":
        return build_agent(priors, warmup)
    if name == "fixed_heuristic":
        return FixedHeuristicPolicy(priors)
    return RoundRobinPolicy() if name == "round_robin" else OraclePolicy()


def _reference_tail(snap, seen):
    """The snapshot's queued tasks that the device queued after its first ``seen``."""
    return tuple(task for index, task in enumerate(snap.queued, snap.departed) if index >= seen)


def _check_decisions(policy):
    """Wrap a scoring policy's ``choose`` to check snapshots, tails and backlogs after each decision."""
    choose, last = policy.choose, {}

    def checked(task, obs):
        device = choose(task, obs)
        for snap in obs.devices:
            old = last.get(snap.device_id)
            arrived = snap.departed + len(snap.queued)
            seen_counts = [0, snap.departed, arrived]
            if old is not None:
                gone = snap.departed - old.departed
                assert gone >= 0
                kept = old.queued[gone:]
                assert snap.queued[: len(kept)] == kept
                seen_counts.append(old.departed + len(old.queued))
            last[snap.device_id] = snap
            for seen in seen_counts:
                expected = (snap.departed, snap.in_flight, _reference_tail(snap, seen))
                assert obs.queue_tail(snap.device_id, seen) == expected, (task.task_id, snap.device_id, seen)
            # A decision with no candidate or one device scores nothing, so its memo
            # may hold an older model's prices until the next scoring pass clears
            # them: an empty pass applies that pass's version check first.
            if snap.available:
                scores(task, (), policy)
                expected = reference_predicted_backlog(snap, policy.opm.predict, obs.now)
                got = backlog_ms(obs, snap.device_id, policy.opm.predict, obs.now, policy.memo)
                assert got == expected, (task.task_id, snap.device_id)
        return device

    policy.choose = checked


def _run(name, priors, plan, tasks, jitter, warmup):
    """One leak-scanned run; also returns (event, clock, records so far) per fired event."""
    truth = GroundTruthState(priors, service_jitter=jitter)
    policy = _policy(name, priors, warmup)
    if name in ("e3", "fixed_heuristic"):
        _check_decisions(policy)
    engine = Engine(truth, plan, tasks, policy)
    fired = []
    apply_event = truth.apply_event

    def spy(scenario_event):
        fired.append((scenario_event, engine.now, len(engine.records)))
        apply_event(scenario_event)

    truth.apply_event = spy
    with leak_scan():
        return policy, engine.run(), fired


def _artifacts(policy, result):
    audit = list(policy.meta.audit.lines()) if policy.name == "e3" else []
    return repr((result.records, result.event_log, result.annotations, audit))


def _check_records(records, tasks):
    assert sorted(r.task_id for r in records) == list(range(len(tasks)))  # each exactly once
    for r in records:
        task = tasks[r.task_id]
        assert (r.kind, r.arrival_time) == (task.kind, task.arrival_time)
        assert r.arrival_time <= r.dispatch_time <= r.start_time < r.completion_time
    for device in {r.device_id for r in records}:
        served = sorted((r for r in records if r.device_id == device), key=lambda r: r.start_time)
        for before, after in pairwise(served):  # FIFO on one server
            assert before.dispatch_time <= after.dispatch_time
            assert before.completion_time <= after.start_time


def _check_event_times(fired, plan, tasks, records):
    assert [e for e, _now, _done in fired] == list(plan.events)  # each once, in plan order
    horizon = len(tasks)
    for e, now, _done in fired:
        if e.at_task < horizon:
            assert now == tasks[e.at_task].arrival_time
    tail = {(now, done) for e, now, done in fired if e.at_task >= horizon}
    if tail:  # together, after every completion, at the clock they left
        [(now, done)] = tail
        assert now == max([tasks[-1].arrival_time] + [r.completion_time for r in records[:done]])


# No shrink phase: a failing example is reported as generated, in seconds,
# where shrinking one of these cases took minutes.
@settings(derandomize=True, max_examples=20, deadline=None, phases=[p for p in Phase if p is not Phase.shrink])
@given(cases())
def test_engine_invariants_hold_on_generated_inputs(case):
    profile_rows, plan_rows, tasks, jitter, warmup = case
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "profiles.jsonl"
        path.write_text("".join(json.dumps(row) + "\n" for row in profile_rows))
        priors = priors_from_records(load_profiles(path))
    plan = plan_from_dicts(plan_rows)
    means = {}
    for name in POLICY_NAMES:
        policy, result, fired = _run(name, priors, plan, tasks, jitter, warmup)
        _check_records(result.records, tasks)
        _check_event_times(fired, plan, tasks, result.records)
        if name == "e3":
            assert replay_oplog(policy.opm.oplog).snapshot_table() == policy.opm.snapshot_table()
        again, repeat, _ = _run(name, priors, plan, tasks, jitter, warmup)
        assert _artifacts(again, repeat) == _artifacts(policy, result)
        means[name] = sum(r.latency_ms for r in result.records) / len(result.records)
    if means["oracle"] > min(means.values()):
        event("oracle mean latency not lowest")
