"""The contract of the policy-visible value types and of the OPM's oplog.

The six types are immutable NamedTuples; their field order and ``repr`` text
are the ones policies, reports and logs were written against, so they are
pinned here literally.  The leak check reads the types themselves: their
field names count as keys.
"""

from __future__ import annotations

import re
from typing import NamedTuple

import pytest

from conftest import leak_scan
from edgesched.harness import ExperimentConfig, run_experiment
from edgesched.opm import replay_oplog
from edgesched.sim.engine import (
    DeviceSnapshot,
    EventAnnotation,
    ExecutionRecord,
    InFlightView,
    ObservableState,
    assert_no_ground_truth,
)
from edgesched.sim.workload import TaskSpec

TASK = TaskSpec(0, "LLM", 0.0, 256, 32)
QUEUED = TaskSpec(1, "SDXL", 2000.0)
RECORD = ExecutionRecord(0, 1, "LLM", 0.0, 0.0, 0.0, 1500.25, 1500.25, 1500.25, 256, 32, 0)
ANNOTATION = EventAnnotation(3, 6000.0, "semantic_onset", 1, "game")
VIEW = InFlightView(TASK, 12.5)
SNAPSHOT = DeviceSnapshot(0, "LLM", True, (QUEUED,), VIEW, 7)
STATE = ObservableState(12.5, (SNAPSHOT,), (ANNOTATION,))

TASK_REPR = "TaskSpec(task_id=0, kind='LLM', arrival_time=0.0, n_in=256, n_out=32)"
QUEUED_REPR = "TaskSpec(task_id=1, kind='SDXL', arrival_time=2000.0, n_in=None, n_out=None)"
ANNOTATION_REPR = "EventAnnotation(at_task=3, time=6000.0, type='semantic_onset', device=1, label='game')"
VIEW_REPR = f"InFlightView(task={TASK_REPR}, start_time=12.5)"
SNAPSHOT_REPR = (
    f"DeviceSnapshot(device_id=0, kind='LLM', available=True, queued=({QUEUED_REPR},), "
    f"in_flight={VIEW_REPR}, departed=7)"
)

CASES = [
    (TASK, ("task_id", "kind", "arrival_time", "n_in", "n_out"), TASK_REPR),
    (
        RECORD,
        (
            "task_id", "device_id", "kind", "arrival_time", "dispatch_time", "start_time",
            "completion_time", "latency_ms", "service_ms", "n_in", "n_out", "stutter",
        ),
        "ExecutionRecord(task_id=0, device_id=1, kind='LLM', arrival_time=0.0, "
        "dispatch_time=0.0, start_time=0.0, completion_time=1500.25, latency_ms=1500.25, "
        "service_ms=1500.25, n_in=256, n_out=32, stutter=0)",
    ),
    (ANNOTATION, ("at_task", "time", "type", "device", "label"), ANNOTATION_REPR),
    (VIEW, ("task", "start_time"), VIEW_REPR),
    (SNAPSHOT, ("device_id", "kind", "available", "queued", "in_flight", "departed"), SNAPSHOT_REPR),
    (
        STATE,
        ("now", "devices", "annotations"),
        f"ObservableState(now=12.5, devices=({SNAPSHOT_REPR},), annotations=({ANNOTATION_REPR},))",
    ),
]


@pytest.mark.parametrize("value, fields, text", CASES, ids=[type(c[0]).__name__ for c in CASES])
def test_value_type_fields_repr_and_immutability(value, fields, text):
    cls = type(value)
    assert cls._fields == fields
    assert repr(value) == text
    with pytest.raises(AttributeError):
        setattr(value, fields[0], None)
    with pytest.raises(AttributeError):
        value.extra = 1
    # Keyword and positional construction both give an equal, equally hashed value.
    by_keyword = cls(**dict(zip(fields, value)))
    assert by_keyword == value and cls(*value) == value
    assert hash(by_keyword) == hash(value)


def test_value_type_defaults():
    assert QUEUED.n_in is None and QUEUED.n_out is None
    assert EventAnnotation(5, 0.0, "device_leave", 2).label is None


def test_record_rows_keep_their_keys_and_order():
    # Telemetry.observations hands tools these rows.
    row = RECORD._asdict()
    assert list(row) == list(CASES[1][1])
    assert ExecutionRecord(**row) == RECORD
    assert STATE.snapshot_of(0) is SNAPSHOT
    assert STATE.available_devices("LLM") == [0] and STATE.available_devices("SDXL") == []


def test_oplog_holds_the_engines_records_and_replays_bitwise():
    # The scan reads every view the engine hands the policy.
    with leak_scan():
        result = run_experiment(ExperimentConfig("semantic", horizon=120, policies=("e3",)))
    records = result.runs["e3"].records
    opm = result.agent.opm
    ingested = [op[1] for op in opm.oplog if op[0] == "ingest"]
    assert len(ingested) == len(records) == 120
    assert all(op is record for op, record in zip(ingested, records))
    assert replay_oplog(opm.oplog).snapshot_table() == opm.snapshot_table()


def test_leak_check_reads_namedtuple_field_names():
    class Leaky(NamedTuple):
        device_id: int
        gamma: float

    class Holder(NamedTuple):
        device_id: int
        extra: dict

    assert_no_ground_truth(STATE)
    assert_no_ground_truth(RECORD)
    assert_no_ground_truth({0: [STATE], (1, 2): RECORD, None: "x"})  # non-string keys are skipped
    assert_no_ground_truth(["alpha", object()])  # strings and other objects are values, not names
    leaks = [
        ({"devices": [Leaky(0, 4000.0)]}, "'gamma' leaked at devices[0]"),
        ({"alpha": 1.0}, "'alpha' leaked at <root>"),
        (Leaky(0, 1.0), "'gamma' leaked at <root>"),
        ([{"z": 0.5}], "'z' leaked at [0]"),
        ((SNAPSHOT, Holder(1, {"ok": [1], "factor": 2.0})), "'factor' leaked at [1].extra"),
        ({3: {"beta": 2.0}}, "'beta' leaked at 3"),
    ]
    for payload, report in leaks:
        with pytest.raises(AssertionError, match=f"^{re.escape(f'ground-truth field {report}')}$"):
            assert_no_ground_truth(payload)
