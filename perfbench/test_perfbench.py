"""Checks on the benchmark's own code: the event_dense plan and the tracer.

    PYTHONPATH=src python -m pytest -q perfbench
"""

from __future__ import annotations

import types
from dataclasses import replace

import pytest

import checks
import inputs
from spans import Tracer

from edgesched.harness import ExperimentConfig, run_experiment
from edgesched.profiles import default_profiles_path, load_profiles, priors_from_records
from edgesched.router import RoundRobinPolicy
from edgesched.sim import Engine, GroundTruthState, generate_workload, plan_from_dicts


@pytest.fixture(scope="module")
def pool():
    records = load_profiles(default_profiles_path())
    return priors_from_records(records), [r.model_id for r in records]


def _windows(rows):
    """(family, device, open, close) per window, pairing each open with its close."""
    open_at: dict[tuple[str, int], int] = {}
    out = []
    for row in rows:
        family = row["type"].split("_")[0]
        key = ({"device": "churn"}.get(family, family), row["device"])
        if row["type"] in ("semantic_onset", "device_leave", "drift_step"):
            open_at[key] = row["at_task"]
        else:
            out.append((*key, open_at.pop(key), row["at_task"]))
    assert not open_at
    return out


def test_same_seed_same_plan(pool):
    priors, models = pool
    first = inputs.dense_plan_rows(7, priors, models)
    assert first == inputs.dense_plan_rows(7, priors, models)
    assert first != inputs.dense_plan_rows(8, priors, models)


@pytest.mark.parametrize("seed", range(5))
def test_plan_invariants(pool, seed):
    priors, models = pool
    rows = inputs.dense_plan_rows(seed, priors, models)
    plan_from_dicts(rows)  # pairing and ordering rules of ScenarioPlan
    windows = _windows(rows)
    # About one window every 40 tasks after the settling prefix.
    assert 200 <= len(windows) <= 300
    assert all(close <= inputs.DENSE_HORIZON - inputs.CLOSE_MARGIN for *_k, close in windows)
    kind = {p.device_id: p.kind for p in priors}
    leaves = [(kind[d], a, b) for family, d, a, b in windows if family == "churn"]
    for k, a, b in leaves:
        overlapping = [w for w in leaves if w[0] == k and w[1] <= b and a <= w[2]]
        assert len(overlapping) == 1, f"both {k} devices out around task {a}"


def test_no_task_stranded(pool):
    priors, models = pool
    plan = plan_from_dicts(inputs.dense_plan_rows(3, priors, models))
    workload = generate_workload(inputs.DENSE_HORIZON, inputs.DENSE_LAMBDA)
    result = Engine(GroundTruthState(priors), plan, workload, RoundRobinPolicy()).run()
    assert sorted(r.task_id for r in result.records) == list(range(inputs.DENSE_HORIZON))


def test_plan_rejects_other_pools(pool):
    priors, models = pool
    with pytest.raises(inputs.PlanInputError):
        inputs.dense_plan_rows(0, priors[:3], models)
    swapped = [priors[0], replace(priors[2], device_id=1), replace(priors[1], device_id=2), priors[3]]
    with pytest.raises(inputs.PlanInputError):
        inputs.dense_plan_rows(0, swapped, models)


def test_checks_pass_on_a_preset_and_catch_a_lost_task():
    result = run_experiment(ExperimentConfig("churn"))
    assert checks.check_runs(result, 300) == []
    assert checks.oracle_beaten_by(result) == []
    result.runs["e3"].records.pop()
    assert checks.check_runs(result, 300)


def test_tracer_self_time_and_restore():
    ns = types.SimpleNamespace()

    def child(x):
        return x + 1

    def parent(x):
        return ns.child(x) * 2

    ns.child, ns.parent = child, parent
    tracer = Tracer(span_cap=1)
    tracer.patch(ns, "child", "child")
    tracer.patch(ns, "parent", "parent")
    assert ns.parent(1) == 4
    calls, total, self_ns = tracer.stats["parent"]
    assert calls == 1 and self_ns == total - tracer.stats["child"][1]
    assert len(tracer.spans) == 1 and tracer.dropped == 1
    child_span = tracer.spans[0]
    assert child_span[2] == "child" and child_span[1] == 0  # parent span id
    tracer.restore()
    assert ns.child is child and ns.parent is parent
