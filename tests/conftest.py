"""Shared fixtures and independent test oracles."""

from __future__ import annotations

from contextlib import contextmanager

import pytest

from edgesched.profiles import LLM, SDXL, DevicePrior
from edgesched.sim.engine import Engine, ObservableState
from edgesched.sim.truth import GroundTruthState
from edgesched.sim.workload import TaskSpec


@pytest.fixture
def fixture_priors() -> list[DevicePrior]:
    """The shipped 4-device pool: two LLM devices, two SDXL devices."""
    return [
        DevicePrior(0, LLM, alpha0=1.0, beta0=50.0),
        DevicePrior(1, LLM, alpha0=2.0, beta0=80.0),
        DevicePrior(2, SDXL, gamma0=4000.0),
        DevicePrior(3, SDXL, gamma0=7000.0),
    ]


_FORBIDDEN_KEYS = frozenset({"alpha", "beta", "gamma", "z", "active_factors", "factor", "service_jitter"})
_SCALARS = frozenset({str, int, float, bool, type(None)})
# NamedTuple class -> its first forbidden field name, or None; each class is read once.
_FIELD_LEAKS: dict[type, str | None] = {}


def assert_no_ground_truth(payload: object) -> None:
    """Structural non-leakage check: no hidden-state field names in a payload.

    Dict keys and NamedTuple field names count as names.  The walk reads the
    values as they are, descending into dicts, lists and tuples, and builds a
    path only for the leak it reports.
    """
    leak = _find_leak(payload)
    if leak is not None:
        key, steps = leak
        path = "".join(reversed(steps)).removeprefix(".")
        raise AssertionError(f"ground-truth field {key!r} leaked at {path or '<root>'}")


def _find_leak(value: object) -> tuple[str, list[str]] | None:
    """The first forbidden name under ``value`` and the path steps to it, innermost first.

    A dict's keys or a NamedTuple's field names are checked before its values.
    """
    cls = type(value)
    if isinstance(value, dict):
        name = next((key for key in value if isinstance(key, str) and key in _FORBIDDEN_KEYS), None)
        labels, items = value, value.values()
    elif isinstance(value, tuple) and hasattr(cls, "_fields"):
        if cls not in _FIELD_LEAKS:
            _FIELD_LEAKS[cls] = next((f for f in cls._fields if f in _FORBIDDEN_KEYS), None)
        name, labels, items = _FIELD_LEAKS[cls], cls._fields, value
    elif isinstance(value, (list, tuple)):
        name, labels, items = None, None, value
    else:
        return None
    if name is not None:
        return name, []
    for i, item in enumerate(items):
        if type(item) not in _SCALARS and (leak := _find_leak(item)) is not None:
            leak[1].append(f"[{i}]" if labels is None else f".{list(labels)[i]}")
            return leak
    return None


@contextmanager
def leak_scan():
    """Scan every view the engine hands a policy for ground-truth field names.

    Each decision's view is read as an ObservableState of the same moment, so
    the scan sees every snapshot, queued task and in-flight task whole.
    """
    original = Engine.observable_state

    def scanned(self):
        view = original(self)
        assert_no_ground_truth(ObservableState(view.now, view.devices, view.annotations))
        return view

    Engine.observable_state = scanned
    try:
        yield
    finally:
        Engine.observable_state = original


def slot_values(obj: object) -> tuple:
    """A plain class's field values, in the order of its ``__slots__``: what a
    generated ``__eq__`` would compare."""
    return tuple(getattr(obj, name) for name in type(obj).__slots__)


def reference_predicted_backlog(snap, predict, now):
    """Queued predictions in queue order, then the floored in-flight remainder."""
    total = 0.0
    for task in snap.queued:
        total += predict(snap.device_id, task)
    if snap.in_flight is not None:
        elapsed = now - snap.in_flight.start_time
        total += max(0.0, predict(snap.device_id, snap.in_flight.task) - elapsed)
    return total


def make_truth(priors, prior_error=None, jitter=0.0) -> GroundTruthState:
    return GroundTruthState(priors, prior_error=prior_error, service_jitter=jitter)


class TableTruth(GroundTruthState):
    """Ground truth whose service times come from an explicit (device, task) table."""

    def __init__(self, priors, table: dict[tuple[int, int], float]):
        super().__init__(priors)
        self._table = table

    def true_service_time(self, device, task):
        if not self.devices[device].available:
            raise RuntimeError("engine fault: unavailable device")
        return self._table[(device, task.task_id)]


class FixedAssignmentPolicy:
    """Scripted routing: task_id -> device, for queue-equivalence tests."""

    name = "fixed_assignment"

    def __init__(self, assignment: dict[int, int]):
        self._assignment = assignment

    def choose(self, task, obs):
        return self._assignment[task.task_id]


def brute_force_replay(
    tasks: list[TaskSpec],
    assignment: dict[int, int],
    service: dict[tuple[int, int], float],
) -> dict[int, tuple[float, float]]:
    """Independent chronological replay of FIFO single-server queues.

    Processes tasks in arrival order, tracking each device's next-free time:
    start = max(arrival, device free), completion = start + service.
    Returns task_id -> (start_time, completion_time).
    """
    free_at: dict[int, float] = {}
    out: dict[int, tuple[float, float]] = {}
    for task in sorted(tasks, key=lambda t: (t.arrival_time, t.task_id)):
        device = assignment[task.task_id]
        start = max(task.arrival_time, free_at.get(device, 0.0))
        completion = start + service[(device, task.task_id)]
        free_at[device] = completion
        out[task.task_id] = (start, completion)
    return out


def solve_lstsq_oracle(samples: list[tuple[int, int, float]]) -> tuple[float, float]:
    """Independent least-squares reference via numpy's SVD-based solver."""
    import numpy as np

    x = np.array([[s[0], s[1]] for s in samples], dtype=float)
    y = np.array([s[2] for s in samples], dtype=float)
    coef, *_ = np.linalg.lstsq(x, y, rcond=None)
    return float(coef[0]), float(coef[1])


def on_ms_grid(value: float) -> float:
    """``value`` rounded to a multiple of 2**-10 ms.

    A hand-built record stores no service time: it reads ``completion_time -
    start_time``.  With a service and a completion time on this grid (below
    2**40 ms), ``start = completion - service`` is exact, so the record reads
    back exactly the service it was built for.
    """
    return round(value * 1024) / 1024
