#!/usr/bin/env python3
"""Fast-path scoring: backlog + prediction - exploration, behind a risk gate.

Hands a fast path a hand-built two-device view and prints each candidate's
score, then shows hard avoidance (a risk-flagged device is never
chosen while a safe one exists) and the route-anyway fallback when every
device is flagged: the flagged devices are then scored as usual.
"""

from edgesched.opm import Opm
from edgesched.profiles import LLM, DevicePrior
from edgesched.router import FastPath, RiskOverrideTable, RouterConfig, scores
from edgesched.sim import DeviceSnapshot, ObservableState, TaskSpec


QUEUED = (TaskSpec(90, LLM, 0.0, 512, 64),)  # 3712 ms of predicted backlog
VIEW = ObservableState(
    0.0,
    (DeviceSnapshot(0, LLM, True, QUEUED, None, 0), DeviceSnapshot(1, LLM, True, (), None, 0)),
    (),
)


def make_fast_path(policy, overrides):
    config = RouterConfig()  # starts in plain mode; in a run, only a tool changes it
    config.policy = policy
    opm = Opm()
    opm.seed(
        [
            DevicePrior(0, LLM, alpha0=1.0, beta0=50.0),
            DevicePrior(1, LLM, alpha0=2.0, beta0=80.0),
        ]
    )
    return FastPath(opm, overrides, config)


def show_scores(label, fast, task):
    chosen = fast.choose(task, VIEW)  # binds the view the scores below read
    scored = scores(task, fast.candidates(task.kind), fast)
    parts = [f"d{device}={value:9.1f}" for value, device in scored]
    print(f"  {label:34s} {'  '.join(parts)}   -> device {chosen}")
    return chosen


def main():
    task = TaskSpec(0, LLM, 0.0, 512, 64)
    print("incoming LLM task (512 in, 64 out); device 0 has one queued task\n")

    overrides = RiskOverrideTable()
    fast = make_fast_path("sect", overrides)
    show_scores("plain scoring", fast, task)

    fast = make_fast_path("explore_risk", overrides)
    show_scores("exploration on (cold start, u=1)", fast, task)

    overrides = RiskOverrideTable()
    overrides.set(1, ttl=50)
    fast = make_fast_path("sect", overrides)
    chosen = show_scores("device 1 risk-flagged", fast, task)
    assert chosen == 0, "hard avoidance must exclude the flagged device"

    overrides = RiskOverrideTable()
    overrides.set(0, ttl=50)
    overrides.set(1, ttl=50)
    fast = make_fast_path("sect", overrides)
    show_scores("all devices flagged (route-anyway)", fast, task)

    print("\nTTL bookkeeping: overrides expire after N dispatched tasks")
    table = RiskOverrideTable()
    table.set(0, ttl=3)
    for k in range(4):
        print(f"  after {k} dispatches: risky={table.is_risky(0)}")
        table.decrement()


if __name__ == "__main__":
    main()
