#!/usr/bin/env python3
"""Fast-path scoring: backlog + prediction - exploration, behind a risk gate.

Builds a two-device state and decomposes the score of each candidate, then
shows hard avoidance (a risk-flagged device is never chosen while a safe one
exists) and the route-anyway fallback when every device is flagged: the
flagged devices are then scored as usual.
"""

from edgesched.opm import Opm
from edgesched.profiles import LLM, DevicePrior
from edgesched.router import (
    PolicyVisibleState,
    RiskOverrideTable,
    RouterConfig,
    score,
    select_e3,
)
from edgesched.sim import DeviceSnapshot, ObservableState, TaskSpec


def make_state(config, overrides):
    opm = Opm()
    opm.seed(
        [
            DevicePrior(0, LLM, alpha0=1.0, beta0=50.0),
            DevicePrior(1, LLM, alpha0=2.0, beta0=80.0),
        ]
    )
    queued = (TaskSpec(90, LLM, 0.0, 512, 64),)  # 3712 ms of predicted backlog
    devices = (
        DeviceSnapshot(0, LLM, True, queued, None),
        DeviceSnapshot(1, LLM, True, (), None),
    )
    obs = ObservableState(0.0, devices, ())
    return PolicyVisibleState(obs, opm, overrides, config)


def show_scores(label, state, task):
    chosen = select_e3(task, state)
    parts = []
    for device in state.candidates(task.kind):
        parts.append(f"d{device}={score(device, task, state):9.1f}")
    print(f"  {label:34s} {'  '.join(parts)}   -> device {chosen}")
    return chosen


def main():
    task = TaskSpec(0, LLM, 0.0, 512, 64)
    print("incoming LLM task (512 in, 64 out); device 0 has one queued task\n")

    overrides = RiskOverrideTable()
    state = make_state(RouterConfig(policy="sect"), overrides)
    show_scores("plain scoring", state, task)

    state = make_state(RouterConfig(policy="explore_risk"), overrides)
    show_scores("exploration on (cold start, u=1)", state, task)

    overrides = RiskOverrideTable()
    overrides.set(1, ttl=50, at_task=0)
    state = make_state(RouterConfig(policy="sect"), overrides)
    chosen = show_scores("device 1 risk-flagged", state, task)
    assert chosen == 0, "hard avoidance must exclude the flagged device"

    overrides = RiskOverrideTable()
    overrides.set(0, ttl=50, at_task=0)
    overrides.set(1, ttl=50, at_task=0)
    state = make_state(RouterConfig(policy="sect"), overrides)
    show_scores("all devices flagged (route-anyway)", state, task)

    print("\nTTL bookkeeping: overrides expire after N dispatched tasks")
    table = RiskOverrideTable()
    table.set(0, ttl=3, at_task=0)
    for k in range(4):
        print(f"  after {k} dispatches: risky={table.is_risky(0)}")
        table.decrement()


if __name__ == "__main__":
    main()
