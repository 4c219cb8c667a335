"""Acceptance gate: one test per criterion, at its stated tolerance.

Each test prints a PASS line with the measured values when it succeeds, so a
verbose run yields one pass/fail line per criterion.
"""

import random
import time

import pytest

from conftest import (
    FixedAssignmentPolicy,
    TableTruth,
    brute_force_replay,
    solve_lstsq_oracle,
)
from edgesched.harness import ExperimentConfig, run_experiment
from edgesched.opm import DRIFT_WINDOW_MS, Opm, replay_oplog
from edgesched.profiles import LLM, DevicePrior
from edgesched.sim.engine import Engine, ExecutionRecord, assert_no_ground_truth
from edgesched.sim.truth import ScenarioPlan
from edgesched.sim.workload import TOKEN_BIN_CYCLE, TaskSpec

ALL_POLICIES = ("e3", "fixed_heuristic", "round_robin", "oracle")

PRESET_KEYS = (
    ("warmup", 0),
    ("warmup", 30),
    ("warmup", 100),
    ("semantic", 0),
    ("churn", 0),
    ("drift", 0),
)


def preset_config(scenario, warmup, **kwargs):
    return ExperimentConfig(
        scenario=scenario,
        warmup_budget=warmup,
        policies=ALL_POLICIES,
        leak_check=True,
        **kwargs,
    )


@pytest.fixture(scope="module")
def preset_runs():
    results, timings = {}, {}
    for scenario, warmup in PRESET_KEYS:
        start = time.perf_counter()
        results[(scenario, warmup)] = run_experiment(preset_config(scenario, warmup))
        timings[(scenario, warmup)] = time.perf_counter() - start
    return results, timings


def _pass(criterion, message):
    print(f"PASS criterion {criterion}: {message}")


def test_criterion_01_opm_exact_recovery():
    rng = random.Random(42)
    start = time.perf_counter()
    worst = 0.0
    for trial in range(100):
        alpha, beta = rng.uniform(0.0, 25.0), rng.uniform(0.0, 250.0)
        # Four distinct grid bins are never collinear (no origin ray holds 4).
        bins = rng.sample(TOKEN_BIN_CYCLE, k=4)
        opm = Opm()
        opm.seed([DevicePrior(0, LLM, alpha0=1.0, beta0=1.0)])
        for i, (n_in, n_out) in enumerate(bins):
            service = alpha * n_in + beta * n_out
            record = ExecutionRecord(
                task_id=i, device_id=0, kind=LLM, arrival_time=0.0, dispatch_time=0.0,
                start_time=0.0, completion_time=float(i), latency_ms=float(i),
                service_ms=service, n_in=n_in, n_out=n_out, stutter=0,
            )
            opm.ingest_feedback(record, now=float(i))
        assert opm.refit(0, LLM, min_samples=4) == "updated"
        est = opm.estimates[(0, LLM)]
        err = max(abs(est.alpha_hat - alpha), abs(est.beta_hat - beta))
        worst = max(worst, err)
        assert err <= 1e-9, f"trial {trial}: recovery error {err}"
        # Cross-check one trial in ten against the independent SVD solver.
        if trial % 10 == 0:
            ref = solve_lstsq_oracle([(b[0], b[1], alpha * b[0] + beta * b[1]) for b in bins])
            assert abs(est.alpha_hat - ref[0]) <= 1e-9
            assert abs(est.beta_hat - ref[1]) <= 1e-9
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"exact-recovery suite took {elapsed:.3f}s (>= 1s)"
    _pass(1, f"100 random recoveries, worst error {worst:.2e}, {elapsed*1000:.0f} ms")


def test_criterion_02_queue_engine_oracle_equivalence():
    rng = random.Random(1234)
    for instance in range(200):
        n_tasks = rng.randint(1, 20)
        n_devices = rng.randint(1, 3)
        arrivals, t = [], 0.0
        for _ in range(n_tasks):
            t += rng.uniform(0.5, 400.0)
            arrivals.append(t)
        tasks = [TaskSpec(i, LLM, arrivals[i], 256, 32) for i in range(n_tasks)]
        assignment = {i: rng.randrange(n_devices) for i in range(n_tasks)}
        service = {
            (d, i): rng.uniform(1.0, 600.0)
            for d in range(n_devices)
            for i in range(n_tasks)
        }
        priors = [DevicePrior(d, LLM, alpha0=1.0, beta0=1.0) for d in range(n_devices)]
        truth = TableTruth(priors, service)
        result = Engine(truth, ScenarioPlan(()), tasks, FixedAssignmentPolicy(assignment)).run()
        expected = brute_force_replay(tasks, assignment, service)
        assert len(result.records) == n_tasks
        for record in result.records:
            start, completion = expected[record.task_id]
            assert record.start_time == start, f"instance {instance}, task {record.task_id}"
            assert record.completion_time == completion
    _pass(2, "200 random instances match brute-force chronological replay exactly")


def test_criterion_03_warmup_trend(preset_runs):
    results, timings = preset_runs
    gaps = {
        w: results[("warmup", w)].report.policies["e3"].vs_oracle_pct for w in (0, 30, 100)
    }
    assert gaps[0] > gaps[30] > gaps[100], f"ordering violated: {gaps}"
    assert gaps[100] <= 60.0, f"W=100 gap {gaps[100]:.2f}% exceeds 60%"
    for w in (0, 30, 100):
        assert timings[("warmup", w)] < 10.0, f"warmup W={w} took {timings[('warmup', w)]:.1f}s"
    _pass(
        3,
        f"gaps W0={gaps[0]:+.2f}% > W30={gaps[30]:+.2f}% > W100={gaps[100]:+.2f}% (<= 60%)",
    )


def test_criterion_04_dynamic_regime_dominance(preset_runs):
    results, _ = preset_runs
    summary = []
    for scenario in ("semantic", "churn", "drift"):
        policies = results[(scenario, 0)].report.policies
        e3, fh, rr = policies["e3"], policies["fixed_heuristic"], policies["round_robin"]
        assert e3.vs_oracle_pct <= 25.0, f"{scenario}: e3 gap {e3.vs_oracle_pct:.2f}% > 25%"
        assert fh.vs_oracle_pct > 100.0, f"{scenario}: fixed_heuristic {fh.vs_oracle_pct:.2f}% <= 100%"
        assert rr.vs_oracle_pct > 100.0, f"{scenario}: round_robin {rr.vs_oracle_pct:.2f}% <= 100%"
        best_static = min(fh.avg_latency_ms, rr.avg_latency_ms)
        assert e3.avg_latency_ms <= 0.5 * best_static, (
            f"{scenario}: e3 {e3.avg_latency_ms:.0f} ms > half of best static {best_static:.0f} ms"
        )
        summary.append(f"{scenario}: e3 {e3.vs_oracle_pct:+.1f}%, static >= {min(fh.vs_oracle_pct, rr.vs_oracle_pct):+.1f}%")
    _pass(4, "; ".join(summary))


def test_criterion_05_stutter_suppression(preset_runs):
    results, _ = preset_runs
    runs = results[("semantic", 0)].runs
    e3_stutters = sum(r.stutter for r in runs["e3"].records)
    fh_rate = sum(r.stutter for r in runs["fixed_heuristic"].records) / len(runs["fixed_heuristic"].records)
    rr_rate = sum(r.stutter for r in runs["round_robin"].records) / len(runs["round_robin"].records)
    assert e3_stutters == 0, f"e3 stuttered {e3_stutters} time(s)"
    assert max(fh_rate, rr_rate) > 0.0, "no static baseline ever stuttered"
    _pass(5, f"e3 stutter = 0 exactly; static baselines reach {max(fh_rate, rr_rate):.1%}")


def test_criterion_06_bounded_meta_control(preset_runs):
    results, _ = preset_runs
    semantic = results[("semantic", 0)].report.policies["e3"]
    churn = results[("churn", 0)].report.policies["e3"]
    drift = results[("drift", 0)].report.policies["e3"]
    assert semantic.llm_calls <= 15, f"semantic invocations {semantic.llm_calls} > 15"
    assert semantic.tool_calls <= 50, f"semantic tool calls {semantic.tool_calls} > 50"
    assert churn.llm_calls <= 5, f"churn invocations {churn.llm_calls} > 5"
    assert drift.llm_calls <= 8, f"drift invocations {drift.llm_calls} > 8"
    _pass(
        6,
        f"semantic {semantic.llm_calls} calls / {semantic.tool_calls} tools, "
        f"churn {churn.llm_calls}, drift {drift.llm_calls}",
    )


def test_criterion_07_drift_detection_latency(preset_runs):
    # Task counts are completed tasks on the drifted device, the unit the
    # criterion uses for the alarm clause.
    results, _ = preset_runs
    result = results[("drift", 0)]
    drift_task, drifted_device = 120, 1
    drift_time = drift_task * 2000.0

    alarms = [
        inv
        for inv in result.agent.meta.invocations
        if inv.reason == "residual_alarm"
        and inv.device == drifted_device
        and inv.task_index >= drift_task
    ]
    assert alarms, "no residual alarm fired after the drift step"
    alarm_entry = next(
        e
        for e in result.audit.entries
        if e.reason == "residual_alarm" and e.task_index == alarms[0].task_index
    )
    alarm_time = alarm_entry.sim_time_ms

    completions = sorted(
        r.completion_time
        for r in result.runs["e3"].records
        if r.device_id == drifted_device and r.completion_time >= drift_time
    )
    before_alarm = sum(1 for c in completions if c <= alarm_time)
    assert before_alarm <= 20, f"alarm after {before_alarm} drifted-device completions"

    # Replay the feedback log to trace the live ratio the agent observed.
    opm = Opm()
    recovered_at = None
    for op in result.agent.opm.oplog:
        tag = op[0]
        if tag == "seed":
            opm.seed(
                [DevicePrior(device_id=d, kind=k, alpha0=a, beta0=b, gamma0=g) for d, k, a, b, g in op[1]]
            )
        elif tag == "ingest":
            record = op[1]
            opm.ingest_feedback(record, op[2])
            if record.device_id == drifted_device and op[2] > alarm_time and recovered_at is None:
                ratio, _count = opm.drift_ratio(drifted_device, LLM, DRIFT_WINDOW_MS, op[2])
                if ratio <= 1.3:
                    recovered_at = op[2]
        elif tag == "refit":
            opm.refit(op[1], op[2], op[3], op[4])
        elif tag == "refit_all":
            opm.refit_all(op[1], op[2])
        elif tag == "calibrate":
            opm.apply_calibration(op[1], op[2], op[3])
    assert recovered_at is not None, "drift ratio never returned below 1.3"
    between = sum(1 for c in completions if alarm_time < c <= recovered_at)
    assert between <= 40, f"recovery took {between} drifted-device completions"
    _pass(7, f"alarm after {before_alarm} drifted-device completions, recovery after {between} more")


def test_criterion_08_non_leakage_and_replay(preset_runs):
    # The semantic preset ran with per-decision structural leak checks on; here
    # the audit trail, tool results, and model inputs are scanned again and the
    # feedback log is replayed offline.
    results, _ = preset_runs
    result = results[("semantic", 0)]
    for entry in result.audit.entries:
        assert_no_ground_truth(entry.to_dict())
    ingest_count = 0
    for op in result.agent.opm.oplog:
        if op[0] == "ingest":
            assert_no_ground_truth(op[1])
            ingest_count += 1
    assert ingest_count == 300
    replayed = replay_oplog(result.agent.opm.oplog)
    assert replayed.snapshot_table() == result.agent.opm.snapshot_table()
    _pass(8, f"no hidden fields in audit/tool/model inputs; replay of {ingest_count} records bit-exact")


def test_criterion_09_determinism(tmp_path):
    compared = 0
    for scenario, warmup in PRESET_KEYS:
        first = tmp_path / f"{scenario}_{warmup}_a"
        second = tmp_path / f"{scenario}_{warmup}_b"
        run_experiment(preset_config(scenario, warmup, out_dir=first))
        run_experiment(preset_config(scenario, warmup, out_dir=second))
        for name in ("report.json", "audit.log"):
            assert (first / name).read_bytes() == (second / name).read_bytes(), (
                f"{scenario} W={warmup}: {name} differs between runs"
            )
            compared += 1
    _pass(9, f"{compared} artifact files byte-identical across repeated runs")


def test_criterion_10_oracle_referent(preset_runs):
    results, _ = preset_runs
    for key, result in results.items():
        policies = result.report.policies
        oracle_avg = policies["oracle"].avg_latency_ms
        for name, pm in policies.items():
            assert oracle_avg <= pm.avg_latency_ms, (
                f"{key}: oracle {oracle_avg:.1f} ms not lowest (vs {name} {pm.avg_latency_ms:.1f} ms)"
            )
    _pass(10, f"oracle has the lowest average latency on all {len(results)} shipped presets")
