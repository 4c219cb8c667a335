"""Online performance model: fitting, uncertainty, drift, calibration, replay."""

import math
import random

import pytest

from conftest import solve_lstsq_oracle
from edgesched.opm import (
    CausalityError,
    Opm,
    UnknownDeviceError,
    left_sum,
    replay_oplog,
    solve_token_coefficients,
)
from edgesched.profiles import LLM, SDXL, DevicePrior
from edgesched.sim.engine import ExecutionRecord
from edgesched.sim.workload import TOKEN_BIN_CYCLE, TaskSpec


def make_record(task_id, device, kind, service, n_in=None, n_out=None, completion=None):
    completion = completion if completion is not None else 1000.0 * (task_id + 1)
    return ExecutionRecord(
        task_id=task_id,
        device_id=device,
        kind=kind,
        arrival_time=0.0,
        dispatch_time=0.0,
        start_time=completion - service,
        completion_time=completion,
        latency_ms=completion,
        service_ms=service,
        n_in=n_in,
        n_out=n_out,
        stutter=0,
    )


def seeded_opm(priors=None):
    opm = Opm()
    opm.seed(
        priors
        or [
            DevicePrior(0, LLM, alpha0=1.0, beta0=50.0),
            DevicePrior(2, SDXL, gamma0=4000.0),
        ]
    )
    return opm


# --- seeding ----------------------------------------------------------------


def test_seed_is_identity_with_zero_samples():
    opm = seeded_opm()
    est = opm.estimates[(0, LLM)]
    assert (est.alpha_hat, est.beta_hat, est.n) == (1.0, 50.0, 0)
    assert opm.estimates[(2, SDXL)].gamma_hat == 4000.0
    assert est.calibration_factor == 1.0


def test_seed_empty_and_duplicate():
    opm = Opm()
    opm.seed([])
    assert opm.estimates == {}
    opm2 = Opm()
    with pytest.raises(ValueError, match="duplicate"):
        opm2.seed([DevicePrior(0, LLM, 1.0, 50.0), DevicePrior(0, LLM, 2.0, 80.0)])


# --- causal ingestion ----------------------------------------------------------


def test_ingest_accepts_boundary_and_rejects_future():
    opm = seeded_opm()
    record = make_record(0, 0, LLM, 4160.0, 256, 32, completion=5000.0)
    opm.ingest_feedback(record, now=5000.0)
    assert opm.estimates[(0, LLM)].n == 1
    with pytest.raises(CausalityError):
        opm.ingest_feedback(make_record(1, 0, LLM, 100.0, 256, 32, completion=5001.0), now=5000.0)


def test_window_capacity_evicts_oldest():
    opm = seeded_opm()
    for i in range(41):
        opm.ingest_feedback(make_record(i, 0, LLM, 100.0 + i, 256, 32), now=1e9)
    assert opm.window_size(0, LLM) == 40
    assert opm.estimates[(0, LLM)].n == 41


def test_ingest_unknown_device_rejected():
    opm = seeded_opm()
    with pytest.raises(UnknownDeviceError):
        opm.ingest_feedback(make_record(0, 9, LLM, 100.0, 256, 32), now=1e9)


def test_ingest_rejects_out_of_order_and_non_finite_completion():
    opm = seeded_opm()
    opm.ingest_feedback(make_record(0, 0, LLM, 100.0, 256, 32, completion=5000.0), now=5000.0)
    # A tie with the newest residual is in order; another device-kind has its own order.
    opm.ingest_feedback(make_record(1, 0, LLM, 100.0, 256, 32, completion=5000.0), now=5000.0)
    opm.ingest_feedback(make_record(2, 2, SDXL, 4000.0, completion=1000.0), now=5000.0)
    oplog_len = len(opm.oplog)
    bad = [
        make_record(3, 0, LLM, 100.0, 256, 32, completion=4999.0),
        make_record(4, 0, LLM, 100.0, 256, 32, completion=float("nan")),
        make_record(5, 0, LLM, 100.0, 256, 32, completion=float("inf")),
        make_record(6, 2, SDXL, 4000.0, completion=float("-inf")),
    ]
    for record in bad:
        with pytest.raises(CausalityError):
            opm.ingest_feedback(record, now=float("inf"))
    with pytest.raises(CausalityError):
        opm.ingest_feedback(make_record(7, 0, LLM, 100.0, 256, 32, completion=6000.0), now=float("nan"))
    assert opm.estimates[(0, LLM)].n == 2
    assert opm.estimates[(2, SDXL)].n == 1
    assert len(opm.oplog) == oplog_len


# --- refitting ----------------------------------------------------------------


def test_refit_recovers_exact_coefficients():
    # Window generated from alpha=10, beta=50; solved by hand:
    # 256*10+32*50=4160, 256*10+128*50=8960, 1024*10+64*50=13440.
    opm = seeded_opm()
    window = [(256, 32, 4160.0), (256, 128, 8960.0), (1024, 64, 13440.0)]
    for i, (n_in, n_out, service) in enumerate(window):
        opm.ingest_feedback(make_record(i, 0, LLM, service, n_in, n_out), now=1e9)
    assert opm.refit(0, LLM, min_samples=3) == "updated"
    est = opm.estimates[(0, LLM)]
    assert est.alpha_hat == pytest.approx(10.0, abs=1e-9)
    assert est.beta_hat == pytest.approx(50.0, abs=1e-9)
    oracle = solve_lstsq_oracle(window)
    assert est.alpha_hat == pytest.approx(oracle[0], abs=1e-9)
    assert est.beta_hat == pytest.approx(oracle[1], abs=1e-9)


def test_collinear_window_falls_back_to_ridge():
    # n_out = n_in / 8 exactly: the normal system is singular.
    opm = seeded_opm()
    window = [(256, 32, 1000.0), (512, 64, 2000.0), (1024, 128, 4000.0)]
    for i, (n_in, n_out, service) in enumerate(window):
        opm.ingest_feedback(make_record(i, 0, LLM, service, n_in, n_out), now=1e9)
    assert opm.refit(0, LLM) == "updated"
    est = opm.estimates[(0, LLM)]
    for n_in, n_out, service in window:
        predicted = est.alpha_hat * n_in + est.beta_hat * n_out
        assert abs(predicted - service) <= 0.01 * service


def test_sdxl_refit_is_window_mean():
    opm = seeded_opm()
    for i, service in enumerate((4000.0, 4200.0, 3800.0)):
        opm.ingest_feedback(make_record(i, 2, SDXL, service), now=1e9)
    assert opm.refit(2, SDXL) == "updated"
    assert opm.estimates[(2, SDXL)].gamma_hat == pytest.approx(4000.0)


@pytest.mark.parametrize("window", [0, -3, True, 2.5, "3"])
def test_refit_rejects_a_window_outside_its_contract(window):
    opm = seeded_opm()
    for i in range(10):
        opm.ingest_feedback(make_record(i, 2, SDXL, 100.0 * (i + 1)), now=1e9)
    table, oplog_len = opm.snapshot_table(), len(opm.oplog)
    with pytest.raises(ValueError, match="window must be None or an int >= 1"):
        opm.refit(2, SDXL, window=window)
    with pytest.raises(ValueError, match="window must be None or an int >= 1"):
        opm.refit_all(window=window)
    assert opm.snapshot_table() == table
    assert len(opm.oplog) == oplog_len


def test_refit_insufficient_leaves_estimate_unchanged():
    opm = seeded_opm()
    assert opm.refit(0, LLM, min_samples=1) == "insufficient"
    assert opm.estimates[(0, LLM)].alpha_hat == 1.0


def test_refit_resets_calibration():
    opm = seeded_opm()
    opm.apply_calibration(0, LLM, 2.0)
    assert opm.estimates[(0, LLM)].calibration_factor != 1.0
    for i in range(3):
        n_in, n_out = TOKEN_BIN_CYCLE[i]
        opm.ingest_feedback(
            make_record(i, 0, LLM, 10.0 * n_in + 50.0 * n_out, n_in, n_out), now=1e9
        )
    opm.refit(0, LLM)
    assert opm.estimates[(0, LLM)].calibration_factor == 1.0


def test_exact_recovery_property_random_coefficients():
    rng = random.Random(3)
    for _trial in range(25):
        alpha, beta = rng.uniform(0, 20), rng.uniform(0, 200)
        # Four distinct grid bins can never be collinear (no ray holds four).
        bins = rng.sample(TOKEN_BIN_CYCLE, k=4)
        opm2 = seeded_opm()
        for i, (n_in, n_out) in enumerate(bins):
            service = alpha * n_in + beta * n_out
            opm2.ingest_feedback(make_record(i, 0, LLM, service, n_in, n_out), now=1e9)
        opm2.refit(0, LLM)
        est = opm2.estimates[(0, LLM)]
        assert est.alpha_hat == pytest.approx(alpha, abs=1e-9)
        assert est.beta_hat == pytest.approx(beta, abs=1e-9)


def test_clipping_keeps_coefficients_nonnegative():
    rng = random.Random(5)
    for _ in range(20):
        samples = [
            (rng.choice((256, 512, 1024)), rng.choice((32, 64, 128)), rng.uniform(-5000, 5000))
            for _ in range(6)
        ]
        alpha, beta = solve_token_coefficients(samples)
        assert alpha >= 0.0 and beta >= 0.0


# --- prediction and uncertainty -------------------------------------------------


def test_predict_examples():
    opm = seeded_opm()
    task = TaskSpec(0, LLM, 0.0, 512, 64)
    assert opm.predict(0, task) == 3712.0
    opm.estimates[(0, LLM)].calibration_factor = 1.5
    assert opm.predict(0, task) == pytest.approx(5568.0)
    assert opm.predict(2, TaskSpec(1, SDXL, 0.0)) == 4000.0


def test_predict_unknown_device_errors():
    opm = seeded_opm()
    with pytest.raises(UnknownDeviceError):
        opm.predict(9, TaskSpec(0, LLM, 0.0, 256, 32))


def test_uncertainty_decay():
    opm = seeded_opm()
    assert opm.uncertainty(0, LLM) == 1.0
    opm.ingest_feedback(make_record(0, 0, LLM, 100.0, 256, 32), now=1e9)
    assert opm.uncertainty(0, LLM) == 0.5
    for i in range(1, 19):
        opm.ingest_feedback(make_record(i, 0, LLM, 100.0, 256, 32), now=1e9)
    assert opm.uncertainty(0, LLM) == pytest.approx(0.05)


def test_uncertainty_strictly_decreasing():
    opm = seeded_opm()
    values = [opm.uncertainty(0, LLM)]
    for i in range(10):
        opm.ingest_feedback(make_record(i, 0, LLM, 100.0, 256, 32), now=1e9)
        values.append(opm.uncertainty(0, LLM))
    assert all(b < a for a, b in zip(values, values[1:]))


# --- drift and calibration --------------------------------------------------------


def drift_opm(observed_scale):
    opm = seeded_opm()
    # Prediction for (256, 32) with the seeded prior is 256 + 1600 = 1856.
    for i in range(4):
        opm.ingest_feedback(
            make_record(i, 0, LLM, 1856.0 * observed_scale, 256, 32, completion=1000.0 * i),
            now=1e9,
        )
    return opm


def test_drift_ratio_boundary_is_not_an_alarm():
    opm = drift_opm(1.3)
    ratio, count = opm.drift_ratio(0, LLM, 60_000.0, now=4000.0)
    assert ratio == pytest.approx(1.3)
    assert count == 4
    assert not opm.is_drift_alarm(ratio, count)


def test_drift_ratio_two_is_alarm():
    opm = drift_opm(2.0)
    ratio, count = opm.drift_ratio(0, LLM, 60_000.0, now=4000.0)
    assert ratio == pytest.approx(2.0)
    assert opm.is_drift_alarm(ratio, count)


def test_drift_ratio_empty_window():
    opm = seeded_opm()
    assert opm.drift_ratio(0, LLM, 60_000.0, now=0.0) == (1.0, 0)
    opm2 = drift_opm(2.0)
    # All pairs are older than the window.
    assert opm2.drift_ratio(0, LLM, 10.0, now=1e8) == (1.0, 0)


def test_drift_ratio_requires_positive_window():
    opm = seeded_opm()
    with pytest.raises(ValueError):
        opm.drift_ratio(0, LLM, 0.0, now=0.0)
    # NaN fails every comparison, so a "<= 0" test would let it through as "no evidence".
    with pytest.raises(ValueError, match="window_ms must be > 0"):
        drift_opm(2.0).drift_ratio(0, LLM, float("nan"), now=4000.0)


def reference_drift_ratio(pairs, window_ms, now):
    """The full-filter fold: every (predicted, observed, t) pair with cutoff <= t <= now."""
    cutoff = now - window_ms
    kept = [(pred, obs) for pred, obs, t in pairs if cutoff <= t <= now]
    if not kept:
        return 1.0, 0
    mean_obs = left_sum(obs for _pred, obs in kept) / len(kept)
    mean_pred = left_sum(pred for pred, _obs in kept) / len(kept)
    if mean_pred <= 0.0:
        return (1.0 if mean_obs <= 0.0 else float("inf")), len(kept)
    return mean_obs / mean_pred, len(kept)


@pytest.mark.parametrize("seed", range(4))
def test_drift_ratio_equals_full_filter_fold(seed):
    rng = random.Random(seed)
    nan, inf = float("nan"), float("inf")
    opm = seeded_opm()
    pairs = []  # the last 256 (predicted, observed, completion) of device 0
    t = 0.0
    for i in range(300):
        # Whole multiples of 250 ms keep now - (now - t) == t exact; 0 steps make ties.
        t += rng.choice((0.0, 0.0, 250.0, 500.0, 1000.0, 4000.0))
        n_in, n_out = TOKEN_BIN_CYCLE[i % 9]
        record = make_record(i, 0, LLM, rng.uniform(100.0, 9000.0), n_in, n_out, completion=t)
        predicted = opm.predict(0, record)
        opm.ingest_feedback(record, now=t)
        pairs = (pairs + [(predicted, record.service_ms, t)])[-256:]
        if i % 37 == 5:
            opm.apply_calibration(0, LLM, rng.uniform(0.5, 2.0))
        if i not in (3, 40, 299):
            continue
        times = sorted({p[2] for p in pairs})
        nows = [times[0] - 250.0, times[0], times[-1], times[-1] + 250.0, nan, inf, -inf]
        nows += rng.sample(times, min(5, len(times)))
        nows += [x + 125.0 for x in rng.sample(times, min(3, len(times)))]
        for now in nows:
            windows = [60_000.0, 1.0, 125.0, 1e12, inf]
            if math.isfinite(now):
                # Cutoffs that land exactly on pair times, including on now itself.
                windows += [now - x for x in times if x < now][-4:]
            for window_ms in windows:
                got = opm.drift_ratio(0, LLM, window_ms, now)
                assert got == reference_drift_ratio(pairs, window_ms, now), (i, now, window_ms)


def test_alarm_needs_minimum_samples():
    opm = seeded_opm()
    opm.ingest_feedback(make_record(0, 0, LLM, 5000.0, 256, 32, completion=0.0), now=0.0)
    ratio, count = opm.drift_ratio(0, LLM, 60_000.0, now=0.0)
    assert ratio > 1.3
    assert count == 1
    assert not opm.is_drift_alarm(ratio, count)


def test_apply_calibration_examples():
    opm = seeded_opm()
    old, new = opm.apply_calibration(0, LLM, 2.0)
    assert (old, new) == (1.0, pytest.approx(1.3))
    opm.estimates[(0, LLM)].calibration_factor = 1.3
    _, new = opm.apply_calibration(0, LLM, 1.3)
    assert new == pytest.approx(1.3)
    opm2 = seeded_opm()
    _, new2 = opm2.apply_calibration(0, LLM, 1.0)
    assert new2 == pytest.approx(1.0)
    with pytest.raises(ValueError):
        opm.apply_calibration(0, LLM, 0.0)


def test_calibration_converges_geometrically():
    opm = seeded_opm()
    target = 2.5
    errors = []
    for _ in range(8):
        _, new = opm.apply_calibration(0, LLM, target)
        errors.append(abs(new - target))
    for previous, current in zip(errors, errors[1:]):
        assert current == pytest.approx(previous * 0.7, rel=1e-9)


def test_prediction_uses_calibration():
    opm = seeded_opm()
    task = TaskSpec(0, LLM, 0.0, 512, 64)
    opm.apply_calibration(0, LLM, 2.0)
    assert opm.predict(0, task) == pytest.approx(1.3 * 3712.0)


# --- replay ------------------------------------------------------------------------


def test_oplog_replay_reproduces_estimate_table_bitwise():
    opm = seeded_opm()
    rng = random.Random(9)
    now = 0.0
    for i in range(60):
        now += 500.0
        if rng.random() < 0.7:
            n_in, n_out = TOKEN_BIN_CYCLE[i % 9]
            opm.ingest_feedback(
                make_record(i, 0, LLM, 3.0 * n_in + 40.0 * n_out + rng.uniform(0, 50), n_in, n_out, completion=now),
                now=now,
            )
        else:
            opm.ingest_feedback(
                make_record(i, 2, SDXL, 4100.0 + rng.uniform(-100, 100), completion=now), now=now
            )
        if i % 11 == 0:
            opm.refit_all(min_samples=2, window=40)
        if i % 17 == 0:
            opm.apply_calibration(0, LLM, 1.0 + rng.random())
    replayed = replay_oplog(opm.oplog)
    assert replayed.snapshot_table() == opm.snapshot_table()


def test_snapshot_text_one_line_per_device_kind():
    opm = seeded_opm()
    text = opm.snapshot_text()
    lines = text.splitlines()
    assert len(lines) == 2
    assert lines[0].startswith("device=0 kind=LLM alpha_hat=")
    assert lines[1].startswith("device=2 kind=SDXL gamma_hat=")
