"""Report emission: report.json equals ``json.dumps`` of the report, which
carries no trajectory; each trajectory is written once, to its CSV, as ``%r``
rows that read back to the in-memory rows; the line files equal their joined
text; emission memory stays below the smallest CSV; and the moving average
keeps its old formula's bits."""

import json
import random
import tracemalloc

import pytest

from edgesched.harness import (
    ExperimentConfig,
    ExperimentResult,
    MetricsReport,
    PolicyMetrics,
    emit_report,
    run_experiment,
    smooth_ma,
)

NAN, INF = float("nan"), float("inf")
HEADER = "task_index,latency_ms,ma20_ms"


def expected(value) -> str:
    return json.dumps(value, sort_keys=True, indent=2) + "\n"


def result_with(trajectory) -> ExperimentResult:
    """A report with an e3 block holding ``trajectory`` and an oracle block
    with none; no policies when ``trajectory`` is None."""
    report = MetricsReport("semantic", 0, 300, 0.5, 0, "a" * 64, "b" * 64)
    if trajectory is not None:
        report.policies["e3"] = PolicyMetrics(12.5, 25.0, -0.0, 2**70, 3, trajectory)
        report.policies["oracle"] = PolicyMetrics(10.0, 0.0, 1e-07, 0, 0, [])
    return ExperimentResult(report, runs={}, agent=None)


# name -> e3 trajectory
CASES = {
    "empty_trajectory": [],
    "single_row": [(0, 1.5, 1.5)],
    "special_floats": [(0, NAN, INF), (5, -INF, -0.0), (10, 1e-07, 1e300)],
    "large_ints": [(2**70, -(2**63), 10**30)],
    "lists_not_tuples": [[0, 1.25, 2.5], [5, 3.0, 4.0]],
    "no_policies": None,
}


def number(text: str) -> int | float:
    try:
        return int(text)
    except ValueError:
        return float(text)


def assert_csv_round_trips(path, trajectory) -> None:
    """Each data row is its sample's ``%r`` text and parses back to it;
    ``repr`` compares NaN, the sign of zero and int against float."""
    lines = path.read_text().splitlines()
    assert lines[0] == HEADER
    assert len(lines) == len(trajectory) + 1
    for line, row in zip(lines[1:], trajectory):
        assert line == "%s,%r,%r" % tuple(row)
        assert repr(tuple(map(number, line.split(",")))) == repr(tuple(row))


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_json_equals_json_dumps(tmp_path, name):
    """report.json holds the bytes of one json.dumps call over the report
    dict, which has no trajectory: only a non-empty one is written, to its CSV."""
    result = result_with(CASES[name])
    emit_report(result, tmp_path)
    report = result.report.to_dict()
    assert (tmp_path / "report.json").read_text() == expected(report)
    assert all("trajectory" not in block for block in report["policies"].values())
    csvs = sorted(p.name for p in tmp_path.glob("trajectory_*.csv"))
    assert csvs == (["trajectory_e3.csv"] if CASES[name] else [])


@pytest.mark.parametrize("name", sorted(name for name, rows in CASES.items() if rows))
def test_trajectory_csv_rows_are_repr_and_round_trip(tmp_path, name):
    emit_report(result_with(CASES[name]), tmp_path)
    assert_csv_round_trips(tmp_path / "trajectory_e3.csv", CASES[name])


def test_trajectory_csvs_of_a_run_round_trip(tmp_path):
    result = run_experiment(ExperimentConfig(scenario="drift", horizon=600, lam=2.0, out_dir=tmp_path))
    for name, metrics in result.report.policies.items():
        assert metrics.trajectory
        assert_csv_round_trips(tmp_path / f"trajectory_{name}.csv", metrics.trajectory)


def test_emitted_files_equal_their_whole_string_forms(tmp_path):
    result = run_experiment(
        ExperimentConfig(scenario="churn", horizon=300, lam=2.0, trace_decisions=True)
    )
    emit_report(result, tmp_path)
    report = result.report.to_dict()
    assert (tmp_path / "report.json").read_text() == expected(report)
    assert (tmp_path / "audit.log").read_text() == "".join(line + "\n" for line in result.audit.lines())
    assert (tmp_path / "events.log").read_text() == "\n".join(result.event_log) + "\n"
    decisions = "\n".join(json.dumps(row, sort_keys=True) for row in result.agent.trace)
    assert (tmp_path / "decisions.log").read_text() == decisions + "\n"
    rows = "".join("%s,%r,%r\n" % row for row in result.report.policies["e3"].trajectory)
    assert (tmp_path / "trajectory_e3.csv").read_text() == HEADER + "\n" + rows


def test_emission_peak_memory_is_below_the_smallest_csv(tmp_path):
    """Joining a CSV's whole text before writing it peaks above that CSV's size."""
    result = run_experiment(ExperimentConfig(scenario="semantic", horizon=6000))
    emit_report(result, tmp_path)  # warm caches and imports outside the trace
    tracemalloc.start()
    try:
        emit_report(result, tmp_path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    smallest = min(p.stat().st_size for p in tmp_path.glob("trajectory_*.csv"))
    assert peak < smallest


def old_smooth_ma(series, window):
    """The formula smooth_ma replaced: one min() per point."""
    out = []
    running = 0.0
    for k, value in enumerate(series):
        running += value
        if k >= window:
            running -= series[k - window]
        out.append(running / min(k + 1, window))
    return out


@pytest.mark.parametrize("length", [0, 1, 5, 20, 21, 300])
@pytest.mark.parametrize("window", [1, 2, 20, 300, 301])
def test_smooth_ma_is_bit_exact_with_the_old_formula(length, window):
    rng = random.Random(length * 1000 + window)
    series = [rng.lognormvariate(6.0, 1.5) for _ in range(length)]
    old = old_smooth_ma(series, window)
    for start, every in [(0, 1), (0, 5), (3, 5), (50, 7), (length, 1)]:
        # A one-shot iterator: smooth_ma reads its input once, as compute_metrics streams it.
        rows = smooth_ma(iter(series), window, start, every)
        assert rows == [(k, series[k], old[k]) for k in range(start, length, every)]
