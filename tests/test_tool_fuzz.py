"""Fuzzing the meta-controller's tools with arbitrary JSON arguments."""

from hypothesis import given, settings
from hypothesis import strategies as st
from test_metacontrol import serving_controller

from edgesched.metacontrol import (
    COUNT,
    DEVICE,
    MODEL,
    NON_NEGATIVE,
    POSITIVE,
    ROUTER,
    TOOLS,
    WINDOW,
    ToolCall,
)

JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=6), children, max_size=3),
    max_leaves=6,
)
# Values inside and just outside each argument kind's contract, by contract.
VALID = {
    COUNT[0]: [1, 3, 40],
    WINDOW[0]: [1, 3, 40],
    POSITIVE[0]: [0.5, 2.0, 60_000.0],
    NON_NEGATIVE[0]: [0, 1500, 30_000.0],
    ROUTER[0]: ["sect", "explore_risk"],
    DEVICE[0]: [0, 1, 2],
    MODEL[0]: ["LLM", "sdxl", "llama3.1-8b"],
}
INVALID = {
    COUNT[0]: [0, -1, True, 2.5, "3"],
    WINDOW[0]: [0, 41, -1, True, 2.5, "3"],
    POSITIVE[0]: [0, -0.5, float("nan"), float("inf"), True, "1", 10**400],
    NON_NEGATIVE[0]: [-1, -0.5, float("nan"), float("-inf"), True, 10**400],
    ROUTER[0]: ["random", "SECT", ["sect"]],
    DEVICE[0]: [3, 42, -1, True, 2.0, "0"],
    MODEL[0]: [5, "resnet", "", ["LLM"]],
}


def test_every_valid_value_passes_and_every_invalid_value_fails_the_tool_checker():
    """Each argument of each tool, at every value of its kind's tables, the
    other arguments valid: the boundaries (a window of 1, a weight of 0) are
    accepted, and each value outside its contract is rejected by name."""
    meta = serving_controller()
    checked = set()
    for tool, (_description, kinds) in TOOLS.items():
        for name, kind in kinds.items():
            others = {other: VALID[k[0]][0] for other, k in kinds.items() if other != name}
            for value in VALID[kind[0]]:
                assert meta._check(ToolCall(tool, {**others, name: value})) is None, (tool, name, value)
            for value in INVALID[kind[0]]:
                error = meta._check(ToolCall(tool, {**others, name: value}))
                assert error == f"{name} must be {kind[0]}, got {value!r}", (tool, name, value)
            checked.add(kind[0])
    assert checked == set(VALID) == set(INVALID)


def _arguments(tool):
    """Valid calls, calls with one argument off contract, calls with arguments
    missing, and arbitrary JSON."""
    kinds = TOOLS[tool][1] if tool in TOOLS else {"task": COUNT}
    valid = {name: st.sampled_from(VALID[kind[0]]) for name, kind in kinds.items()}
    invalid = {name: st.sampled_from(INVALID[kind[0]]) for name, kind in kinds.items()}
    return st.one_of(
        st.fixed_dictionaries(valid),
        *(st.fixed_dictionaries({**valid, name: invalid[name]}) for name in kinds),
        st.fixed_dictionaries({}, optional=valid),
        st.dictionaries(st.sampled_from([*kinds, "ttl"]) | st.text(max_size=6), JSON, max_size=3),
        JSON,
    )


CALLS = st.sampled_from([*TOOLS, "dispatch_task"]).flatmap(
    lambda tool: st.builds(ToolCall, st.just(tool), _arguments(tool))
)


def _state(meta):
    opm = meta.opm
    return (
        meta.config.to_dict(),
        dict(meta.overrides._ttl),
        opm.version,
        len(opm.oplog),
        opm.snapshot_text(),
    )


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.lists(CALLS, min_size=1, max_size=3))
def test_execute_tool_never_raises_and_a_rejection_changes_nothing(calls):
    meta = serving_controller(now=5000.0)
    meta.telemetry._observations = [{"task_id": 0, "stutter": 1}]
    for call in calls:
        before = _state(meta)
        audited = len(meta.audit.entries)
        result = meta.execute_tool(call)
        assert len(meta.audit.entries) == audited + 1
        entry = meta.audit.entries[-1]
        assert entry.tool == call.tool and entry.arguments is call.arguments  # as given
        if not result.ok:
            assert entry.result == f"rejected: {result.error}"
            assert _state(meta) == before
        known = {device for device, _kind in meta.opm.estimates}
        assert set(meta.overrides.devices()) <= known
    list(meta.audit.lines())
