"""Agent-side online performance model.

Learns per-device service-time coefficients purely from completed-task
feedback, kept as one history per (device, kind).  A refit reads its newest
40 records: a least-squares fit of the token-linear model for LLM devices, a
mean for diffusion devices.  Drift detection compares them with the
predictions made at ingest.  Also tracks epistemic uncertainty (sample
scarcity) and a smoothed multiplicative calibration factor.

Nothing here ever sees simulator ground truth; every number derives from
ingested :class:`ExecutionRecord` feedback.  All mutations are appended to an
operation log so a run's estimate table can be reproduced bit-for-bit by
offline replay.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import astuple, dataclass

from .profiles import LLM, DevicePrior, is_int
from .sim.engine import ExecutionRecord

# Residual mismatch above this observed/predicted ratio counts as drift.
DRIFT_THRESHOLD = 1.3
DRIFT_WINDOW_MS = 60_000.0
CALIBRATION_SMOOTHING = 0.3
WINDOW_CAPACITY = 40
HISTORY_CAPACITY = 256
RIDGE_DAMPING = 1e-6


class CausalityError(ValueError):
    """A record completes after ``now``, at a non-finite time, or out of order."""


class UnknownDeviceError(KeyError):
    """Query for a device-kind the model was never seeded with."""


@dataclass
class OpmEstimate:
    """Learned state for one device-kind."""

    device_id: int
    kind: str
    alpha_hat: float = 0.0
    beta_hat: float = 0.0
    gamma_hat: float = 0.0
    calibration_factor: float = 1.0
    n: int = 0


def left_sum(values) -> float:
    """Float sum folded strictly left to right, starting from 0.0.

    ``sum()`` switched to compensated float summation in Python 3.12, which
    changes the last bits; this fold gives the same result on every
    interpreter, so reports stay byte-identical across versions.
    """
    total = 0.0
    for value in values:
        total += value
    return total


def _check_window(window: object) -> None:
    if window is not None and not (is_int(window) and window >= 1):
        raise ValueError(f"window must be None or an int >= 1, got {window!r}")


def solve_token_coefficients(
    samples: list[tuple[int, int, float]], damping: float = RIDGE_DAMPING
) -> tuple[float, float]:
    """Least-squares (alpha, beta) for service = alpha*n_in + beta*n_out.

    Solves the 2x2 normal system directly; a singular system (collinear token
    features) falls back to ridge with the given damping.  Output is clipped
    to be non-negative.
    """
    sxx = sxy = syy = bx = by = 0.0
    for n_in, n_out, service in samples:
        sxx += n_in * n_in
        sxy += n_in * n_out
        syy += n_out * n_out
        bx += n_in * service
        by += n_out * service
    det = sxx * syy - sxy * sxy
    scale = sxx * syy
    if scale == 0.0 or det <= 1e-12 * scale:
        sxx += damping
        syy += damping
        det = sxx * syy - sxy * sxy
    if det == 0.0:
        return 0.0, 0.0
    alpha = (syy * bx - sxy * by) / det
    beta = (sxx * by - sxy * bx) / det
    return max(alpha, 0.0), max(beta, 0.0)


class Opm:
    """Online performance model over a fixed device pool.

    Version contract: ``version`` moves whenever a prediction may change,
    that is on :meth:`seed`, on a :meth:`refit` that returns "updated" and
    on :meth:`apply_calibration`.  Only these methods change estimates.  The
    fast path caches predictions of queued tasks per version, so a direct
    write to an :class:`OpmEstimate` field bypasses that invalidation.

    Feedback lives in one history per (device, kind): the newest
    :data:`HISTORY_CAPACITY` (prediction at ingest, record) pairs, sorted by
    completion time.  Refits read its newest :data:`WINDOW_CAPACITY` records.

    ``oplog`` lists every mutation in order.  An ``("ingest", record, now)``
    entry holds the ingested :class:`ExecutionRecord` itself, which is
    immutable, so :func:`replay_oplog` feeds it back unchanged.
    """

    def __init__(self) -> None:
        self.version = 0
        self.estimates: dict[tuple[int, str], OpmEstimate] = {}
        self._history: dict[tuple[int, str], deque[tuple[float, ExecutionRecord]]] = {}
        self.oplog: list[tuple] = []

    # -- lifecycle -----------------------------------------------------------

    def seed(self, priors: list[DevicePrior]) -> None:
        """Initialize estimates from offline priors (calibration 1, n = 0)."""
        for prior in priors:
            key = (prior.device_id, prior.kind)
            if key in self.estimates:
                raise ValueError(f"duplicate prior for device {prior.device_id}")
            est = OpmEstimate(prior.device_id, prior.kind)
            if prior.kind == LLM:
                est.alpha_hat = prior.alpha0
                est.beta_hat = prior.beta0
            else:
                est.gamma_hat = prior.gamma0
            self.estimates[key] = est
            self._history[key] = deque(maxlen=HISTORY_CAPACITY)
        self.version += 1
        self.oplog.append(("seed", tuple(sorted((p.device_id, p.kind, p.alpha0, p.beta0, p.gamma0) for p in priors))))

    def _estimate(self, device: int, kind: str) -> OpmEstimate:
        try:
            return self.estimates[(device, kind)]
        except KeyError:
            raise UnknownDeviceError(f"no estimate for device {device} kind {kind}") from None

    # -- feedback path --------------------------------------------------------

    def ingest_feedback(self, record: ExecutionRecord, now: float) -> None:
        """Append one completed-task record.

        Ordering contract: the completion time is finite, <= ``now`` and not
        earlier than the newest record of the same (device, kind), so each
        history is sorted by completion time; :meth:`drift_ratio` relies on
        that.
        """
        completion = record.completion_time
        est = self._estimate(record.device_id, record.kind)
        history = self._history[(record.device_id, record.kind)]
        newest = history[-1][1].completion_time if history else -math.inf
        if not (math.isfinite(completion) and newest <= completion <= now):
            raise CausalityError(
                f"record for task {record.task_id} completes at {completion}; it must be "
                f"finite, >= {newest} (newest record) and <= now {now}"
            )
        history.append((self._raw_predict(est, record.n_in, record.n_out), record))
        est.n += 1
        self.oplog.append(("ingest", record, now))

    def window_size(self, device: int, kind: str) -> int:
        """Number of records a refit with no ``window`` reads."""
        return min(len(self._history[(device, kind)]), WINDOW_CAPACITY)

    # -- estimation -----------------------------------------------------------

    def refit(
        self,
        device: int,
        kind: str,
        min_samples: int = 1,
        window: int | None = None,
        _log: bool = True,
    ) -> str:
        """Refit one device-kind from its newest ``min(window, 40)`` records.

        ``window`` is None (40) or an int >= 1.  Returns "updated" or
        "insufficient".  A successful refit supersedes any drift
        calibration, so the calibration factor resets to 1; a calibration
        applied just before an updating refit is erased unread, which is why
        the scripted residual alarm refits without calibrating.
        """
        _check_window(window)
        if _log:
            self.oplog.append(("refit", device, kind, min_samples, window))
        est = self._estimate(device, kind)
        count = WINDOW_CAPACITY if window is None else min(window, WINDOW_CAPACITY)
        samples = [record for _predicted, record in self._history[(device, kind)]][-count:]
        if len(samples) < max(min_samples, 1):
            return "insufficient"
        if kind == LLM:
            alpha, beta = solve_token_coefficients(
                [(r.n_in, r.n_out, r.service_ms) for r in samples]
            )
            est.alpha_hat = alpha
            est.beta_hat = beta
        else:
            est.gamma_hat = left_sum(r.service_ms for r in samples) / len(samples)
        est.calibration_factor = 1.0
        self.version += 1
        return "updated"

    def refit_all(self, min_samples: int = 1, window: int | None = None) -> dict[int, str]:
        """Refit every seeded device-kind; per-device status keyed by id."""
        _check_window(window)
        self.oplog.append(("refit_all", min_samples, window))
        results = {}
        for device, kind in sorted(self.estimates):
            results[device] = self.refit(device, kind, min_samples, window, _log=False)
        return results

    def _raw_predict(self, est: OpmEstimate, n_in: int | None, n_out: int | None) -> float:
        if est.kind == LLM:
            return est.calibration_factor * (est.alpha_hat * n_in + est.beta_hat * n_out)
        return est.calibration_factor * est.gamma_hat

    def predict(self, device: int, task) -> float:
        """Calibrated service-time prediction for a task on a device."""
        est = self._estimate(device, task.kind)
        return self._raw_predict(est, task.n_in, task.n_out)

    def uncertainty(self, device: int, kind: str) -> float:
        """Epistemic uncertainty in [0, 1]: 1 at cold start, decays as 1/(1+n)."""
        est = self._estimate(device, kind)
        return 1.0 / (1.0 + est.n)

    # -- drift and calibration --------------------------------------------------

    def drift_ratio(
        self, device: int, kind: str, window_ms: float, now: float
    ) -> tuple[float, int]:
        """Observed/predicted ratio over the history pairs whose record has
        ``now - window_ms <= completion_time <= now``.

        Relies on the ordering contract of :meth:`ingest_feedback`: the walk
        starts at the newest pair, skips pairs later than ``now`` and stops
        at the first one before the cutoff.  Those tests are the exact
        negations of the window test, so NaN and infinite bounds select the
        same pairs (a NaN window is rejected).  Both means fold oldest-first.
        An empty window reports (1.0, 0): no evidence means no alarm.
        """
        if not window_ms > 0:
            raise ValueError(f"window_ms must be > 0, got {window_ms}")
        self._estimate(device, kind)
        cutoff = now - window_ms
        pairs = []
        for pair in reversed(self._history[(device, kind)]):
            t = pair[1].completion_time
            if not t <= now:
                continue
            if not cutoff <= t:
                break
            pairs.append(pair)
        if not pairs:
            return 1.0, 0
        sum_obs = sum_pred = 0.0
        for predicted, record in reversed(pairs):
            sum_obs += record.service_ms
            sum_pred += predicted
        mean_obs = sum_obs / len(pairs)
        mean_pred = sum_pred / len(pairs)
        if mean_pred <= 0.0:
            return (1.0 if mean_obs <= 0.0 else float("inf")), len(pairs)
        return mean_obs / mean_pred, len(pairs)

    def is_drift_alarm(self, ratio: float, sample_count: int, min_samples: int = 3) -> bool:
        """Alarm rule: strictly above threshold with enough evidence."""
        return ratio > DRIFT_THRESHOLD and sample_count >= min_samples

    def apply_calibration(
        self, device: int, kind: str, observed_ratio: float
    ) -> tuple[float, float]:
        """Exponentially smoothed multiplicative correction; returns (old, new)."""
        if observed_ratio <= 0:
            raise ValueError(f"observed_ratio must be > 0, got {observed_ratio}")
        est = self._estimate(device, kind)
        old = est.calibration_factor
        new = CALIBRATION_SMOOTHING * observed_ratio + (1 - CALIBRATION_SMOOTHING) * old
        est.calibration_factor = new
        self.version += 1
        self.oplog.append(("calibrate", device, kind, observed_ratio))
        return old, new

    # -- introspection ----------------------------------------------------------

    def snapshot_table(self) -> list[tuple]:
        """Bit-comparable estimate table, one tuple per device-kind."""
        return [astuple(self.estimates[key]) for key in sorted(self.estimates)]

    def snapshot_text(self) -> str:
        """Human-readable one-line-per-device-kind estimate dump."""
        lines = []
        for key in sorted(self.estimates):
            est = self.estimates[key]
            if est.kind == LLM:
                coeffs = f"alpha_hat={est.alpha_hat:.6f} beta_hat={est.beta_hat:.6f}"
            else:
                coeffs = f"gamma_hat={est.gamma_hat:.6f}"
            lines.append(
                f"device={est.device_id} kind={est.kind} {coeffs} "
                f"calibration={est.calibration_factor:.6f} n={est.n}"
            )
        return "\n".join(lines)


def replay_oplog(oplog: list[tuple]) -> Opm:
    """Rebuild an OPM from a recorded operation log.

    The estimate table after replay is bit-identical to the original run's:
    the model depends only on the ingested record sequence and the explicit
    refit/calibration operations, never on simulator internals.
    """
    opm = Opm()
    for op in oplog:
        tag = op[0]
        if tag == "seed":
            priors = [
                DevicePrior(device_id=d, kind=k, alpha0=a, beta0=b, gamma0=g)
                for d, k, a, b, g in op[1]
            ]
            opm.seed(priors)
        elif tag == "ingest":
            opm.ingest_feedback(op[1], op[2])
        elif tag == "refit":
            _, device, kind, min_samples, window = op
            opm.refit(device, kind, min_samples, window)
        elif tag == "refit_all":
            _, min_samples, window = op
            opm.refit_all(min_samples, window)
        elif tag == "calibrate":
            _, device, kind, ratio = op
            opm.apply_calibration(device, kind, ratio)
        else:
            raise ValueError(f"unknown op {tag!r}")
    return opm
