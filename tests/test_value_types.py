"""The contract of the policy-visible value types and of the OPM's oplog.

The six types are immutable NamedTuples; their field order and ``repr`` text
are the ones policies, reports and logs were written against, so they are
pinned here literally.  The leak check reads the types themselves: their
field names count as keys.  No type in the package is a dataclass but those
on :data:`DATACLASS_ALLOWLIST`, so an import generates no methods, and no
definition in ``src/`` lacks a caller in ``src/`` but those on
:data:`NO_SRC_CALLER_ALLOWLIST`.
"""

from __future__ import annotations

import ast
import dataclasses
import importlib
import inspect
import pkgutil
import re
import sys
from pathlib import Path
from typing import NamedTuple

import pytest

from conftest import assert_no_ground_truth, leak_scan
from edgesched.harness import ExperimentConfig, run_experiment
import edgesched
from edgesched.metacontrol import TOOLS
from edgesched.opm import replay_oplog
from edgesched.profiles import default_profiles_path, load_profiles, priors_from_records
from edgesched.sim import DeviceLeave, DriftStep, PlanError, SemanticOnset, plan_from_dicts
from edgesched.sim.engine import (
    DeviceSnapshot,
    Engine,
    EventAnnotation,
    ExecutionRecord,
    InFlightView,
    ObservableState,
)
from edgesched.sim.workload import TaskSpec

TASK = TaskSpec(0, "LLM", 0.0, 256, 32)
QUEUED = TaskSpec(1, "SDXL", 2000.0)
# Arrival and start at 0.0: latency and service both read 1500.25.
RECORD = ExecutionRecord(0, 1, "LLM", 0.0, 0.0, 0.0, 1500.25, 256, 32, 0)
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
            "completion_time", "n_in", "n_out", "stutter",
        ),
        "ExecutionRecord(task_id=0, device_id=1, kind='LLM', arrival_time=0.0, "
        "dispatch_time=0.0, start_time=0.0, completion_time=1500.25, n_in=256, n_out=32, "
        "stutter=0)",
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
    # A record's row holds its ten stored facts and rebuilds it; the latency
    # and service are read off its timestamps (Telemetry.observations adds
    # them to the rows it hands tools, see test_simulator).
    row = RECORD._asdict()
    assert list(row) == list(CASES[1][1])
    assert ExecutionRecord(**row) == RECORD
    assert RECORD.latency_ms == 1500.25 and RECORD.service_ms == 1500.25
    with pytest.raises(AttributeError):
        RECORD.latency_ms = 0.0
    with pytest.raises(TypeError):
        ExecutionRecord(**row, latency_ms=1500.25)
    assert STATE.queue_tail(0, 7) == (7, VIEW, (QUEUED,)) and STATE.queue_tail(0, 8) == (7, VIEW, ())
    assert STATE.available_devices("LLM") == [0] and STATE.available_devices("SDXL") == []


def event_dense_config(seed: int) -> ExperimentConfig:
    """The benchmark's event_dense experiment: H=10000 under its seeded plan of event windows."""
    perfbench = str(Path(__file__).resolve().parent.parent / "perfbench")
    if perfbench not in sys.path:
        sys.path.insert(0, perfbench)
    import inputs

    profiles = load_profiles(default_profiles_path())
    rows = inputs.dense_plan_rows(seed, priors_from_records(profiles), [p.model_id for p in profiles])
    [spec] = inputs.experiment_specs("event_dense")
    return ExperimentConfig(**spec, plan=plan_from_dicts(rows))


def test_every_record_reads_its_latency_and_service_off_its_timestamps(monkeypatch):
    handed_back = []
    redispatch = Engine._redispatch_queue

    def counting(self, device):
        handed_back.append(len(self.devices[device].queue))
        redispatch(self, device)

    monkeypatch.setattr(Engine, "_redispatch_queue", counting)
    with leak_scan():
        churn = run_experiment(ExperimentConfig("churn", horizon=600, lam=2.0))
    assert sum(handed_back) > 0  # leaving devices handed queued tasks back
    dense = run_experiment(event_dense_config(seed=1))
    runs = [*churn.runs.values(), *dense.runs.values()]
    assert [len(run.records) for run in runs] == [600] * 4 + [10000] * 4
    for run in runs:
        for r in run.records:
            assert r.latency_ms == r.completion_time - r.arrival_time
            assert r.service_ms == r.completion_time - r.start_time


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


# "module.Class" -> why it stays a dataclass; every other class is declared without one.
DATACLASS_ALLOWLIST = {
    "edgesched.profiles.DevicePrior": "perfbench/test_perfbench.py calls dataclasses.replace on a prior",
}


def package_classes() -> dict[str, type]:
    """Every class defined in an edgesched module, nested ones too, by qualified name."""
    found: dict[str, type] = {}
    modules = [edgesched, *(importlib.import_module(info.name)
                            for info in pkgutil.walk_packages(edgesched.__path__, "edgesched."))]
    for module in modules:
        stack = [v for v in vars(module).values() if inspect.isclass(v) and v.__module__ == module.__name__]
        while stack:
            cls = stack.pop()
            found[f"{cls.__module__}.{cls.__qualname__}"] = cls
            stack.extend(v for v in vars(cls).values() if inspect.isclass(v) and v.__module__ == cls.__module__)
    return found


def test_no_class_but_the_allowlisted_is_a_dataclass():
    classes = package_classes()
    assert len(classes) > 40 and "edgesched.sim.engine._DeviceRuntime" in classes  # the walk reaches them
    dataclasses_found = sorted(name for name, cls in classes.items() if dataclasses.is_dataclass(cls))
    assert dataclasses_found == sorted(DATACLASS_ALLOWLIST)


def test_scenario_events_keep_their_repr_and_argument_errors():
    # report.json's plan hash is taken over these reprs, and plan_from_dicts
    # passes a constructor's TypeError on in its message.
    assert repr(SemanticOnset(60, 0, "game")) == "SemanticOnset(at_task=60, device=0, label='game', factor=3.0)"
    assert repr(DriftStep(120, 1, "llama3.1-8b-edge", 2.0)) == (
        "DriftStep(at_task=120, device=1, model='llama3.1-8b-edge', factor=2.0)"
    )
    assert repr(DeviceLeave(at_task=80, device=2)) == "DeviceLeave(at_task=80, device=2)"
    errors = [
        ({"at_task": 1}, "DeviceLeave.__init__() missing 1 required positional argument: 'device'"),
        ({"at_task": 1, "device": 0, "colour": "red"},
         "DeviceLeave.__init__() got an unexpected keyword argument 'colour'"),
    ]
    for row, text in errors:
        with pytest.raises(PlanError) as info:
            plan_from_dicts([{"type": "device_leave", **row}])
        assert str(info.value) == f"bad arguments for device_leave: {text}"
    with pytest.raises(AttributeError):
        DeviceLeave(1, 0).colour = "red"  # the fields are the __slots__, no others


# Definition name -> why it stays in src/ with no caller there.
NO_SRC_CALLER_ALLOWLIST = {
    "replay_oplog": "the bit-exact replay reference: README names replay as an opm feature",
    "snapshot_table": "the table replay_oplog's result is compared by, the same replay reference",
    "is_risky": "perfbench's risk-gate hook reads it, and perfbench changes only with the benchmark",
}


def _definitions_and_references(package: Path) -> tuple[list[tuple[str, tuple]], dict[str, list[frozenset]]]:
    """Every function, method and class defined under ``package``, as its name
    and its place (module, line, column), and each referenced name with the
    places of the definitions each of its references sits in.

    A reference is a loaded ``Name``, an ``Attribute``, an imported name or a
    string constant that is an identifier (``getattr(policy, "on_annotation")``).
    An ``__init__.py`` only re-exports, so its names are no callers.
    """
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    defined, referenced = [], {}
    for path in sorted(package.rglob("*.py")):
        module = path.relative_to(package).as_posix()
        stack = [(ast.parse(path.read_text(encoding="utf-8")), frozenset())]
        while stack:
            node, inside = stack.pop()
            for child in ast.iter_child_nodes(node):
                name, within = None, inside
                if isinstance(child, kinds):
                    place = (module, child.lineno, child.col_offset)
                    defined.append((child.name, place))
                    within = inside | {place}
                elif isinstance(child, ast.Name) and isinstance(child.ctx, ast.Load):
                    name = child.id
                elif isinstance(child, ast.Attribute):
                    name = child.attr
                elif isinstance(child, ast.alias):
                    name = child.name.rpartition(".")[2]
                elif isinstance(child, ast.Constant) and isinstance(child.value, str) and child.value.isidentifier():
                    name = child.value
                if name is not None and path.name != "__init__.py":
                    referenced.setdefault(name, []).append(inside)
                stack.append((child, within))
    return defined, referenced


def test_every_src_definition_has_a_src_caller():
    # Name-based: a method counts as called when any src/ scope outside its
    # own body names it.  Dunder methods are called by the interpreter, and a
    # tool handler _tool_<name> by the tool table's <name>.
    package = Path(edgesched.__file__).resolve().parent
    defined, referenced = _definitions_and_references(package)
    assert len(defined) > 150 and "scores" in referenced  # the walk reaches them
    uncalled = {}
    for name, place in defined:
        dunder = name.startswith("__") and name.endswith("__")
        if dunder or (name.startswith("_tool_") and name.removeprefix("_tool_") in TOOLS):
            continue
        if not any(place not in inside for inside in referenced.get(name, ())):
            uncalled[name] = "{}:{}".format(*place)
    assert sorted(uncalled) == sorted(NO_SRC_CALLER_ALLOWLIST), uncalled
