#!/usr/bin/env python3
"""The slow-path controller: triggers, the nine tools, and the audit trail.

Shows trigger suppression (cooldowns and the non-event gap), then feeds a
semantic onset/offset pair to a standalone meta-controller and prints the
audited actions, and finally drives one invocation through the
external-adapter path with a canned transport, demonstrating the scripted
fallback on timeout.
"""

import json
import logging

from edgesched.metacontrol import (
    AdapterConfig,
    Invocation,
    MetaController,
    TriggerState,
    evaluate_triggers,
)
from edgesched.profiles import LLM, SDXL, DevicePrior
from edgesched.sim.engine import EventAnnotation


class StandaloneTelemetry:
    def __init__(self):
        self.t = 120_000.0

    def now(self):
        return self.t

    def system_status(self):
        return {"sim_time_ms": self.t, "devices": {}, "active_semantic_events": {}}

    def observations(self, window_ms=None, limit=None):
        return []


def make_controller(transport=None):
    """A controller seeded from two priors, outside any engine; with a transport, an
    external adapter drives it."""
    priors = [DevicePrior(0, LLM, alpha0=1.0, beta0=50.0), DevicePrior(2, SDXL, gamma0=4000.0)]
    adapter = AdapterConfig(url="http://adapter.local") if transport else None
    meta = MetaController(priors, adapter=adapter, transport=transport)
    meta.attach_telemetry(StandaloneTelemetry())
    return meta


def onset_at(task):
    return EventAnnotation(task, 120_000.0, "semantic_onset", 0, "game")


def main():
    logging.disable(logging.WARNING)  # keep the narrative output clean
    print("trigger evaluation:")
    state = TriggerState()
    def onset(task):
        return Invocation("semantic_onset", task, device=0, label="game")

    def alarm(task):
        return Invocation("residual_alarm", task, device=0, model=LLM, ratio=2.0, sample_count=5)

    print("  onset at task 60  ->", evaluate_triggers(onset(60), state).reason)
    print("  same onset at 70  ->", evaluate_triggers(onset(70), state), "(cooldown)")
    print("  alarm at task 65  ->", evaluate_triggers(alarm(65), state), "(non-event gap)")
    print("  alarm at task 95  ->", evaluate_triggers(alarm(95), state).reason)

    print("\nscripted responses, as recorded in the audit log:")
    meta = make_controller()
    meta.on_annotation(onset_at(60))
    meta.on_annotation(EventAnnotation(100, 120_000.0, "semantic_offset", 0, "game"))
    for entry in meta.audit.entries:
        print(" ", json.dumps(entry._asdict(), sort_keys=True))

    print("\nexternal adapter with a canned endpoint:")

    sent = []

    def canned_transport(payload, config):
        sent.append([m["role"] for m in payload["messages"]])
        if len(sent) > 1:  # round two: the endpoint has nothing more to do
            return {"choices": [{"message": {"role": "assistant", "content": "done"}}]}
        call = {
            "id": "call_0",
            "type": "function",
            "function": {"name": "set_device_risky", "arguments": json.dumps({"device": 0, "ttl": 25})},
        }
        return {"choices": [{"message": {"role": "assistant", "content": None, "tool_calls": [call]}}]}

    meta = make_controller(canned_transport)
    meta.on_annotation(onset_at(60))
    print("  adapter issued:", [e.tool for e in meta.audit.entries])
    print("  round two sent:", sent[1])

    print("\nadapter timeout falls back to the scripted policy:")

    def broken_transport(payload, config):
        raise TimeoutError("no response")

    meta = make_controller(broken_transport)
    meta.on_annotation(onset_at(60))
    print("  fallback issued:", [e.tool for e in meta.audit.entries])


if __name__ == "__main__":
    main()
