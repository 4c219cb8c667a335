"""Report emission: report.json equals ``json.dumps`` byte for byte and
rejects what json rejects, the line files equal their joined text, emission
memory stays below the report's size, and the moving average keeps its old
formula's bits."""

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


def expected(value) -> str:
    return json.dumps(value, sort_keys=True, indent=2) + "\n"


def result_with(trajectory, scenario="semantic", llm_calls=2**70) -> ExperimentResult:
    """A report with an e3 block holding ``trajectory`` and ``llm_calls``;
    no policies when ``trajectory`` is None."""
    report = MetricsReport(scenario, 0, 300, 0.5, 0, "a" * 64, "b" * 64)
    if trajectory is not None:
        report.policies["e3"] = PolicyMetrics(12.5, 25.0, -0.0, llm_calls, 3, trajectory)
        report.policies["oracle"] = PolicyMetrics(10.0, 0.0, 1e-07, 0, 0, [])
    return ExperimentResult(report, runs={}, agent=None)


# name -> result_with arguments
CASES = {
    "empty_trajectory": ([],),
    "single_row": ([(0, 1.5, 1.5)],),
    "special_floats": ([(0, NAN, INF), (5, -INF, -0.0), (10, 1e-07, 1e300)],),
    "large_ints": ([(2**70, -(2**63), 10**30)],),
    "lists_not_tuples": ([[0, 1.25, 2.5], [5, 3.0, 4.0]],),
    "no_policies": (None,),
    "escaped_strings": ([(0, 1.5, 1.5)], 'sé"man\\tic\n\t\x00\x7f ☃ \U0001f600'),
    # Trajectory rows go to the CSVs too, so the nesting sits in another value.
    "nested_empty_lists": ([], "semantic", [[], [[]], [[], [[], []]], [0, [], True, False, None, "x"]]),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_json_equals_json_dumps(tmp_path, name):
    """report.json, written chunk by chunk, holds the bytes of one json.dumps
    call over the nested report dict."""
    result = result_with(*CASES[name])
    emit_report(result, tmp_path)
    assert (tmp_path / "report.json").read_text() == expected(result.report.to_dict())


def test_a_value_json_rejects_raises_type_error(tmp_path):
    result = result_with([(0, 1.5, 1.5), {1, 2}])
    with pytest.raises(TypeError, match="^Object of type set is not JSON serializable$"):
        json.dumps(result.report.to_dict(), sort_keys=True, indent=2)
    with pytest.raises(TypeError, match="^Object of type set is not JSON serializable$"):
        emit_report(result, tmp_path)


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
    csv = (tmp_path / "trajectory_e3.csv").read_text().splitlines()
    trajectory = result.report.policies["e3"].trajectory
    assert len(csv) == len(trajectory) + 1
    assert csv[-1] == "{},{:.6f},{:.6f}".format(*trajectory[-1])


def test_emission_peak_memory_is_below_the_report_size(tmp_path):
    """Building report.json as one string peaks at about 5x its size, and
    copying each trajectory row into a new list about 1.2x."""
    result = run_experiment(ExperimentConfig(scenario="semantic", horizon=2000))
    emit_report(result, tmp_path)  # warm caches and imports outside the trace
    tracemalloc.start()
    try:
        emit_report(result, tmp_path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    size = (tmp_path / "report.json").stat().st_size
    assert size > 100_000
    assert peak < size


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
