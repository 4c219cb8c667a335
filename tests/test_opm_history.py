"""Differential check of the OPM's feedback history.

``TwoStoreOpm`` keeps feedback the way the model first did: a 40-sample
refit window and a separate 256-pair residual window per (device, kind),
both filled from each ingested record.  The OPM keeps one history instead.
Seeded operation streams must leave both with equal estimate tables and
equal drift readings.
"""

import random
from collections import deque

import pytest

from conftest import on_ms_grid
from edgesched.opm import (
    CALIBRATION_SMOOTHING,
    CausalityError,
    Opm,
    OpmEstimate,
    left_sum,
    solve_token_coefficients,
)
from edgesched.profiles import LLM, SDXL, DevicePrior
from edgesched.sim.engine import ExecutionRecord
from edgesched.sim.workload import TOKEN_BIN_CYCLE

PRIORS = [
    DevicePrior(0, LLM, alpha0=1.0, beta0=50.0),
    DevicePrior(1, LLM, alpha0=4.0, beta0=20.0),
    DevicePrior(2, SDXL, gamma0=4000.0),
]
WINDOWS = (None, 1, 3, 39, 40)


class TwoStoreOpm:
    """Reference model: separate refit and residual windows."""

    def __init__(self, priors):
        self.estimates = {}
        self.windows = {}
        self.residuals = {}
        for prior in priors:
            key = (prior.device_id, prior.kind)
            est = OpmEstimate(prior.device_id, prior.kind)
            if prior.kind == LLM:
                est.alpha_hat, est.beta_hat = prior.alpha0, prior.beta0
            else:
                est.gamma_hat = prior.gamma0
            self.estimates[key] = est
            self.windows[key] = deque(maxlen=40)  # (service_ms, n_in, n_out)
            self.residuals[key] = deque(maxlen=256)  # (predicted, observed, completion)

    def _predict(self, est, n_in, n_out):
        if est.kind == LLM:
            return est.calibration_factor * (est.alpha_hat * n_in + est.beta_hat * n_out)
        return est.calibration_factor * est.gamma_hat

    def ingest(self, record):
        key = (record.device_id, record.kind)
        est = self.estimates[key]
        predicted = self._predict(est, record.n_in, record.n_out)
        self.windows[key].append((record.service_ms, record.n_in, record.n_out))
        self.residuals[key].append((predicted, record.service_ms, record.completion_time))
        est.n += 1

    def refit(self, device, kind, min_samples, window):
        est = self.estimates[(device, kind)]
        samples = list(self.windows[(device, kind)])
        if window is not None:
            samples = samples[-window:]
        if len(samples) < max(min_samples, 1):
            return "insufficient"
        if kind == LLM:
            est.alpha_hat, est.beta_hat = solve_token_coefficients(
                [(n_in, n_out, service) for service, n_in, n_out in samples]
            )
        else:
            est.gamma_hat = left_sum(s[0] for s in samples) / len(samples)
        est.calibration_factor = 1.0
        return "updated"

    def refit_all(self, min_samples, window):
        return {
            device: self.refit(device, kind, min_samples, window)
            for device, kind in sorted(self.estimates)
        }

    def calibrate(self, device, kind, ratio):
        est = self.estimates[(device, kind)]
        old = est.calibration_factor
        est.calibration_factor = CALIBRATION_SMOOTHING * ratio + (1 - CALIBRATION_SMOOTHING) * old
        return old, est.calibration_factor

    def drift_ratio(self, device, kind, window_ms, now):
        cutoff = now - window_ms
        pairs = []
        for pair in reversed(self.residuals[(device, kind)]):
            t = pair[2]
            if not t <= now:
                continue
            if not cutoff <= t:
                break
            pairs.append(pair)
        if not pairs:
            return 1.0, 0
        sum_obs = sum_pred = 0.0
        for predicted, observed, _t in reversed(pairs):
            sum_obs += observed
            sum_pred += predicted
        mean_obs = sum_obs / len(pairs)
        mean_pred = sum_pred / len(pairs)
        if mean_pred <= 0.0:
            return (1.0 if mean_obs <= 0.0 else float("inf")), len(pairs)
        return mean_obs / mean_pred, len(pairs)

    def snapshot_table(self):
        return [tuple(getattr(self.estimates[key], name) for name in OpmEstimate.__slots__)
                for key in sorted(self.estimates)]


def _record(task_id, device, kind, service, completion, rng):
    n_in, n_out = rng.choice(TOKEN_BIN_CYCLE) if kind == LLM else (None, None)
    start = completion - service
    assert completion - start == service, "the service must be on_ms_grid"
    return ExecutionRecord(task_id, device, kind, 0.0, 0.0, start, completion, n_in, n_out, 0)


@pytest.mark.parametrize("seed", range(4))
def test_one_history_matches_two_stores(seed):
    rng = random.Random(seed)
    opm = Opm()
    opm.seed(PRIORS)
    reference = TwoStoreOpm(PRIORS)
    keys = sorted(reference.estimates)
    ingests = dict.fromkeys(keys, 0)
    t = 0.0
    for task_id in range(1500):
        # Whole multiples of 250 ms keep window arithmetic exact; 0 steps make ties.
        t += rng.choice((0.0, 0.0, 250.0, 500.0, 1000.0))
        key = rng.choice(keys)
        record = _record(task_id, *key, on_ms_grid(rng.uniform(100.0, 9000.0)), t, rng)
        opm.ingest_feedback(record, now=t)
        reference.ingest(record)
        ingests[key] += 1

        roll = rng.random()
        if roll < 0.05:
            ratio = rng.uniform(0.5, 2.5)
            assert opm.apply_calibration(*key, ratio) == reference.calibrate(*key, ratio)
        elif roll < 0.10:
            args = (rng.choice((1, 3, 41)), rng.choice(WINDOWS))
            assert opm.refit(*key, *args) == reference.refit(*key, *args)
        elif roll < 0.12:
            args = (rng.choice((1, 3, 41)), rng.choice(WINDOWS))
            assert opm.refit_all(*args) == reference.refit_all(*args)
        elif roll < 0.20:
            completions = [pair[2] for pair in reference.residuals[key]]
            nows = (completions[0] - 250.0, rng.choice(completions), t, t + 250.0)
            for now in nows:
                for window_ms in (250.0, 5_000.0, 60_000.0, 1e12):
                    if now < completions[-1]:
                        # A window that ends before the newest record breaks the ordering contract.
                        with pytest.raises(CausalityError):
                            opm.drift_ratio(*key, window_ms, now)
                        continue
                    assert opm.drift_ratio(*key, window_ms, now) == reference.drift_ratio(
                        *key, window_ms, now
                    )
        assert opm.snapshot_table() == reference.snapshot_table()

    assert min(ingests.values()) > 256
    for window in WINDOWS:
        assert opm.refit_all(1, window) == reference.refit_all(1, window)
        assert opm.snapshot_table() == reference.snapshot_table()
