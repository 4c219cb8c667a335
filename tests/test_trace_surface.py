"""The names perfbench's traced run wraps still exist and are still called.

``perfbench/layers.py`` patches module globals and methods by name; a rename
in the program would otherwise show only when the traced benchmark runs.
"""

import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
if str(PERFBENCH) not in sys.path:
    sys.path.insert(0, str(PERFBENCH))

import layers  # noqa: E402
from spans import Tracer  # noqa: E402

from edgesched import harness  # noqa: E402


def current(owner, attr):
    return owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)


def test_traced_layers_are_called_and_restored():
    tracer = Tracer()
    layers.install(tracer)
    patched = list(tracer._patches)
    try:
        result = harness.run_experiment(harness.ExperimentConfig("semantic", horizon=120))
    finally:
        tracer.restore()
    layers.after_experiment(tracer, result, 0)
    assert patched
    for name in (
        "meta.evaluate_triggers", "meta.on_feedback", "harness.build_agent",
        "router.select_e3", "router.backlog_ms",
    ):
        assert tracer.stats[name][0] >= 1, name
    # The reference controller is looked up when an invocation fires, so the
    # wrapper sees each one; a default bound when the module loaded sees none.
    assert tracer.stats["meta.invoke"][0] == len(result.agent.meta.invocations) > 0
    # The counters read from the result: a hook reading a renamed attribute
    # would count 0 here while the traced run still reports "correct".
    tool_entries = [e for e in result.audit.entries if e.tool != "adapter_fallback"]
    assert tracer.counters["meta.tool_calls"] == len(tool_entries) > 0
    # Engine methods wrapped by name: a decision that stops going through
    # them would leave the traced per-layer figures at zero.
    for name in ("sim.observable_state", "sim.true_backlog_ms"):
        assert tracer.stats[name][0] >= 1, name
    # Both fast-path policies are wrapped per class, once per routed task.
    for name in ("router.choose.e3", "router.choose.fixed_heuristic"):
        assert tracer.stats[name][0] == 120, name
    # The gate hook reads the risk table e3 routes on: the task-60 semantic
    # onset flags a device, and later decisions exclude it.
    assert tracer.counters["router.risk_gate.excluded"] > 0
    for owner, attr, original in patched:
        assert current(owner, attr) is original, (owner, attr)
