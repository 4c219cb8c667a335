#!/usr/bin/env python3
"""The slow-path controller: triggers, the nine tools, and the audit trail.

Simulates a semantic onset/offset pair against a standalone tool executor and
prints the audited actions, then shows trigger suppression (cooldowns and the
non-event gap) and finally drives one invocation through the external-adapter
path with a canned transport, demonstrating the scripted fallback on timeout.
"""

import json
import logging

from edgesched.metacontrol import (
    AdapterConfig,
    AuditLog,
    Invocation,
    ToolExecutor,
    TriggerState,
    evaluate_triggers,
    llm_adapter_invoke,
    scripted_policy,
    warmup_points,
)
from edgesched.opm import Opm
from edgesched.profiles import LLM, SDXL, DevicePrior
from edgesched.router import RiskOverrideTable, RouterConfig


class StandaloneTelemetry:
    def __init__(self):
        self.t = 120_000.0

    def now(self):
        return self.t

    def system_status(self):
        return {"sim_time_ms": self.t, "devices": {}, "active_semantic_events": {}}

    def observations(self, window_ms=None, limit=None):
        return []


def make_executor():
    opm = Opm()
    opm.seed(
        [
            DevicePrior(0, LLM, alpha0=1.0, beta0=50.0),
            DevicePrior(2, SDXL, gamma0=4000.0),
        ]
    )
    return ToolExecutor(opm, RouterConfig(), RiskOverrideTable(), StandaloneTelemetry(), AuditLog())


def main():
    logging.disable(logging.WARNING)  # keep the narrative output clean
    print("trigger evaluation:")
    state = TriggerState(warmup_points=warmup_points(30))
    def onset(task):
        return Invocation("semantic_onset", task, device=0, label="game")

    def alarm(task):
        return Invocation("residual_alarm", task, device=0, model=LLM, ratio=2.0, sample_count=5)

    print("  onset at task 60  ->", evaluate_triggers(onset(60), state).reason)
    print("  same onset at 70  ->", evaluate_triggers(onset(70), state), "(cooldown)")
    print("  alarm at task 65  ->", evaluate_triggers(alarm(65), state), "(non-event gap)")
    print("  alarm at task 95  ->", evaluate_triggers(alarm(95), state).reason)

    print("\nscripted responses, as recorded in the audit log:")
    executor = make_executor()
    for invocation in (
        Invocation("semantic_onset", 60, device=0, label="game"),
        Invocation("semantic_offset", 100, device=0, label="game"),
    ):
        executor.begin_invocation(invocation)
        scripted_policy(invocation, executor)
    for entry in executor.audit.entries:
        print(" ", json.dumps(entry.to_dict(), sort_keys=True))

    print("\nexternal adapter with a canned endpoint:")
    executor = make_executor()

    def canned_transport(payload, config):
        return {
            "choices": [
                {
                    "message": {
                        "tool_calls": [
                            {
                                "function": {
                                    "name": "set_device_risky",
                                    "arguments": json.dumps({"device": 0, "ttl": 25}),
                                }
                            }
                        ]
                    }
                }
            ]
        }

    invocation = Invocation("semantic_onset", 60, device=0, label="game")
    executor.begin_invocation(invocation)
    calls = llm_adapter_invoke(
        invocation, AdapterConfig(enabled=True, url="http://adapter.local"), executor, canned_transport
    )
    print("  adapter issued:", [c.tool for c in calls])

    print("\nadapter timeout falls back to the scripted policy:")
    executor = make_executor()

    def broken_transport(payload, config):
        raise TimeoutError("no response")

    executor.begin_invocation(invocation)
    calls = llm_adapter_invoke(
        invocation, AdapterConfig(enabled=True, url="http://adapter.local"), executor, broken_transport
    )
    print("  fallback issued:", [c.tool for c in calls])


if __name__ == "__main__":
    main()
