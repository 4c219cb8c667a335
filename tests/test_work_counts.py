"""The work of whole runs, counted per policy and pinned.

Each configuration runs as ``run_experiment`` runs it, with no decision
trace, while wrappers count what each policy's run calls: decisions, the
fast path's scoring passes and backlog reads, the queued tasks the view's
tail read hands out, model predictions, ground-truth prices and backlogs,
and drift-ratio scans.  The counts must equal the table below.  More work
fails the test; so does less, and then the table is updated, with the old
and the new table named in CHANGES.md.  No ``src/`` hook is needed: every
counted function is looked up as a module global or a class attribute.

The two configurations are semantic at H=3000, lambda=2.0, where queues grow
to hundreds of tasks, and churn at H=600, lambda=2.0, where a device leaving
often leaves one device of a kind to choose from.
"""

from __future__ import annotations

import pytest

from edgesched import harness, router
from edgesched.opm import Opm
from edgesched.sim.engine import DecisionView, Engine
from edgesched.sim.truth import GroundTruthState

CONFIGS = {
    "semantic_h3000_lam2": {"scenario": "semantic", "horizon": 3000, "lam": 2.0},
    "churn_h600_lam2": {"scenario": "churn", "horizon": 600, "lam": 2.0},
}

COLUMNS = (
    "choose",
    "scores",
    "backlog_ms",
    "tail_tasks",
    "predict",
    "true_service_time",
    "true_backlog_ms",
    "drift_ratio",
)

# configuration -> policy -> counts, in COLUMNS order
WORK: dict[str, dict[str, tuple[int, ...]]] = {
    "semantic_h3000_lam2": {
        "e3": (3000, 2915, 5830, 3144, 14318, 3076, 0, 3003),
        "fixed_heuristic": (3000, 3000, 6000, 2981, 11324, 3129, 0, 0),
        "round_robin": (3000, 0, 0, 0, 0, 3144, 0, 0),
        "oracle": (3000, 0, 0, 0, 0, 8896, 5830, 0),
    },
    "churn_h600_lam2": {
        "e3": (611, 530, 1060, 708, 2783, 611, 0, 600),
        "fixed_heuristic": (630, 530, 1060, 584, 2028, 630, 0, 0),
        "round_robin": (649, 0, 0, 0, 0, 649, 0, 0),
        "oracle": (612, 0, 0, 0, 0, 1672, 1060, 0),
    },
}


def count_work(monkeypatch, config: dict) -> dict[str, tuple[int, ...]]:
    """Run one configuration and count, per policy, the calls in COLUMNS."""
    counts: dict[str, dict[str, int]] = {}
    current = [""]

    def bump(column: str, n: int = 1) -> None:
        row = counts.setdefault(current[0], dict.fromkeys(COLUMNS, 0))
        row[column] += n

    def counted(column: str, function):
        def wrapper(*args, **kwargs):
            bump(column)
            return function(*args, **kwargs)

        return wrapper

    run = Engine.run

    def counted_run(self):
        current[0] = self.policy.name
        return run(self)

    queue_tail = DecisionView.queue_tail

    def counted_tail(self, device, seen):
        read = queue_tail(self, device, seen)
        bump("tail_tasks", len(read[2]))
        return read

    monkeypatch.setattr(Engine, "run", counted_run)
    monkeypatch.setattr(DecisionView, "queue_tail", counted_tail)
    for cls in (router.AdaptiveAgentPolicy, router.FixedHeuristicPolicy, router.RoundRobinPolicy, router.OraclePolicy):
        monkeypatch.setattr(cls, "choose", counted("choose", cls.choose))
    monkeypatch.setattr(router, "scores", counted("scores", router.scores))
    monkeypatch.setattr(router, "backlog_ms", counted("backlog_ms", router.backlog_ms))
    monkeypatch.setattr(Opm, "predict", counted("predict", Opm.predict))
    monkeypatch.setattr(Opm, "drift_ratio", counted("drift_ratio", Opm.drift_ratio))
    monkeypatch.setattr(
        GroundTruthState, "true_service_time", counted("true_service_time", GroundTruthState.true_service_time)
    )
    monkeypatch.setattr(Engine, "true_backlog_ms", counted("true_backlog_ms", Engine.true_backlog_ms))
    result = harness.run_experiment(harness.ExperimentConfig(**config))
    assert all(len(run.records) == config["horizon"] for run in result.runs.values())
    return {name: tuple(row[c] for c in COLUMNS) for name, row in counts.items()}


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_work_counts_equal_the_pinned_table(monkeypatch, name):
    got = count_work(monkeypatch, CONFIGS[name])
    assert sorted(got) == sorted(harness.POLICY_NAMES)
    for policy, pinned in WORK[name].items():
        more = [c for c, have, want in zip(COLUMNS, got[policy], pinned, strict=True) if have > want]
        assert not more, f"{name}/{policy} does more {more} work: {got[policy]} against {pinned}"
        assert got[policy] == pinned, f"{name}/{policy} does less work: pin {got[policy]} in place of {pinned}"
