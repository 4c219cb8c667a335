#!/usr/bin/env python3
"""The online performance model: learning service times from feedback only.

Seeds the model with deliberately wrong priors, feeds it noiseless
completions generated from hidden true coefficients, and shows exact
recovery by the windowed least-squares refit.  Then walks the drift path:
a hidden slowdown raises the observed/predicted ratio past the 1.3
threshold, calibration pulls predictions toward reality, and a refit on
fresh samples finishes the job.
"""

from edgesched.opm import Opm
from edgesched.profiles import LLM, DevicePrior
from edgesched.sim import ExecutionRecord, TOKEN_BIN_CYCLE, TaskSpec


def record(task_id, service, n_in, n_out, completion):
    # A record stores no service time; whole-millisecond times make
    # completion_time - start_time read back exactly the service.
    return ExecutionRecord(
        task_id=task_id, device_id=0, kind=LLM, arrival_time=0.0, dispatch_time=0.0,
        start_time=completion - service, completion_time=completion,
        n_in=n_in, n_out=n_out, stutter=0,
    )


def main():
    opm = Opm()
    opm.seed([DevicePrior(0, LLM, alpha0=1.0, beta0=50.0)])  # wrong on purpose
    true_alpha, true_beta = 3.0, 120.0

    print("seeded estimate:", opm.snapshot_text())
    task = TaskSpec(0, LLM, 0.0, 512, 64)
    print(f"prediction for (512, 64) before learning: {opm.predict(0, task):8.1f} ms")
    print(f"truth for (512, 64):                      {true_alpha*512 + true_beta*64:8.1f} ms")

    now = 0.0
    for i, (n_in, n_out) in enumerate(TOKEN_BIN_CYCLE[:6]):
        now += 2000.0
        service = true_alpha * n_in + true_beta * n_out
        opm.ingest_feedback(record(i, service, n_in, n_out, now), now)
        print(f"  ingested ({n_in:4d},{n_out:3d}) -> {service:8.1f} ms   u={opm.uncertainty(0, LLM):.3f}")

    opm.refit(0, LLM, min_samples=3)
    est = opm.estimates[(0, LLM)]
    print(f"refit recovers alpha={est.alpha_hat:.9f} beta={est.beta_hat:.9f} (exact)")

    # Hidden drift: the device silently becomes 2x slower.
    print("\nhidden 2x drift begins; the model only sees residuals:")
    for i in range(6, 12):
        n_in, n_out = TOKEN_BIN_CYCLE[i % 9]
        now += 2000.0
        service = 2.0 * (true_alpha * n_in + true_beta * n_out)
        opm.ingest_feedback(record(i, service, n_in, n_out, now), now)
    ratio, count = opm.drift_ratio(0, LLM, 60_000.0, now)
    print(f"  drift ratio over the 60 s window: {ratio:.3f} from {count} samples "
          f"(alarm: {opm.is_drift_alarm(ratio, count)})")

    old, new = opm.apply_calibration(0, LLM, ratio)
    print(f"  calibration smoothed {old:.3f} -> {new:.3f}")
    opm.refit(0, LLM, min_samples=3, window=6)
    est = opm.estimates[(0, LLM)]
    print(f"  refit on fresh samples: alpha={est.alpha_hat:.3f} beta={est.beta_hat:.3f} "
          f"(calibration reset to {est.calibration_factor:.1f})")
    ratio, count = opm.drift_ratio(0, LLM, 60_000.0, now)
    print("\nfinal estimate table:")
    print(opm.snapshot_text())


if __name__ == "__main__":
    main()
