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
from itertools import islice
from operator import itemgetter

from .profiles import COUNT, LLM, POSITIVE, DevicePrior, check, check_new_device, is_int, optional
from .sim.engine import ExecutionRecord

# Residual mismatch above this observed/predicted ratio counts as drift.
DRIFT_THRESHOLD = 1.3
DRIFT_WINDOW_MS = 60_000.0
ALARM_MIN_SAMPLES = 3
CALIBRATION_SMOOTHING = 0.3
WINDOW_CAPACITY = 40
HISTORY_CAPACITY = 256
RIDGE_DAMPING = 1e-6


_service = itemgetter(2)  # of a history entry


class CausalityError(ValueError):
    """A record completes after ``now``, at a non-finite time, or out of order."""


class UnknownDeviceError(KeyError):
    """Query for a device-kind the model was never seeded with."""

    def __init__(self, device: int, kind: str) -> None:
        super().__init__(f"no estimate for device {device} kind {kind}")


class OpmEstimate:
    """Learned state for one device-kind; its fields are its ``__slots__``, in order."""

    __slots__ = ("device_id", "kind", "alpha_hat", "beta_hat", "gamma_hat", "calibration_factor", "n")

    def __init__(self, device_id: int, kind: str) -> None:
        self.device_id = device_id
        self.kind = kind
        self.alpha_hat = self.beta_hat = self.gamma_hat = 0.0
        self.calibration_factor = 1.0
        self.n = 0


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


WINDOW = (f"an int in [1, {WINDOW_CAPACITY}], not a bool",
          lambda v: is_int(v) and 1 <= v <= WINDOW_CAPACITY)
_WINDOW_OR_NONE = optional(WINDOW)


def solve_token_coefficients(samples: list[tuple[int, int, float]]) -> tuple[float, float]:
    """Least-squares (alpha, beta) for service = alpha*n_in + beta*n_out.

    Solves the 2x2 normal system directly; a singular system (collinear token
    features) falls back to ridge with :data:`RIDGE_DAMPING`.  Token counts of
    about 1e8 absorb that ridge in rounding, so a system it leaves singular
    takes the ridge times the matrix trace instead, which keeps the
    determinant positive.  Output is clipped to be non-negative.
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
        ridge = RIDGE_DAMPING
        det = (sxx + ridge) * (syy + ridge) - sxy * sxy
        if det == 0.0:
            ridge *= sxx + syy
            det = (sxx + ridge) * (syy + ridge) - sxy * sxy
        sxx += ridge
        syy += ridge
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
    :data:`HISTORY_CAPACITY` entries, sorted by completion time.  Each entry
    is a flat ``(predicted, completion_time, service_ms, record)`` tuple:
    the prediction made at ingest, the record's completion time and service
    as plain floats, which the drift window and refits read, and the record
    itself.  Refits read the newest :data:`WINDOW_CAPACITY` entries.

    ``oplog`` lists every mutation in order, one tuple per call: ``("seed",
    priors)``, ``("ingest", record, now)``, ``("refit", device, kind,
    min_samples, window)`` whatever the outcome (:meth:`refit_all` logs one
    per device-kind) and ``("calibrate", device, kind, observed_ratio)``.  An
    ingest entry holds the immutable :class:`ExecutionRecord` itself, so
    :func:`replay_oplog` feeds it back unchanged.
    """

    def __init__(self) -> None:
        self.version = 0
        self.estimates: dict[tuple[int, str], OpmEstimate] = {}
        self._history: dict[tuple[int, str], deque[tuple[float, float, float, ExecutionRecord]]] = {}
        self.oplog: list[tuple] = []

    # -- lifecycle -----------------------------------------------------------

    def seed(self, priors: list[DevicePrior]) -> None:
        """Initialize estimates from offline priors (calibration 1, n = 0)."""
        seeded = {device for device, _kind in self.estimates}
        for prior in priors:
            check_new_device(prior.device_id, seeded)
            seeded.add(prior.device_id)
            key = (prior.device_id, prior.kind)
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
            raise UnknownDeviceError(device, kind) from None

    # -- feedback path --------------------------------------------------------

    def ingest_feedback(self, record: ExecutionRecord, now: float) -> None:
        """Append one completed-task record.

        Ordering contract: the completion time is finite, <= ``now`` and not
        earlier than the newest record of the same (device, kind), so each
        history is sorted by completion time; :meth:`drift_ratio` relies on
        that.
        """
        completion = record.completion_time
        key = (record.device_id, record.kind)
        history = self._history.get(key)
        if history is None:
            raise UnknownDeviceError(*key)
        newest = history[-1][1] if history else -math.inf
        if not (math.isfinite(completion) and newest <= completion <= now):
            raise CausalityError(
                f"record for task {record.task_id} completes at {completion}; it must be "
                f"finite, >= {newest} (newest record) and <= now {now}"
            )
        # A record carries its task's kind and token counts, so it prices as
        # the task did.  Its service_ms property is computed once here.
        predicted = self.predict(record.device_id, record)
        history.append((predicted, completion, completion - record.start_time, record))
        self.estimates[key].n += 1
        self.oplog.append(("ingest", record, now))

    # -- estimation -----------------------------------------------------------

    def refit(
        self,
        device: int,
        kind: str,
        min_samples: int = 1,
        window: int | None = None,
    ) -> str:
        """Refit one device-kind from its newest ``window`` records.

        ``window`` is None (40) or an int in [1, 40], and ``min_samples`` an
        int >= 1.  Returns "updated" or "insufficient"; a call rejected for
        its arguments or an unknown device-kind leaves the oplog unchanged.
        A successful refit supersedes any drift calibration, so the
        calibration factor resets to 1; a calibration applied just before an
        updating refit is erased unread, which is why the scripted residual
        alarm refits without calibrating.
        """
        check("window", window, _WINDOW_OR_NONE)
        check("min_samples", min_samples, COUNT)
        est = self._estimate(device, kind)
        self.oplog.append(("refit", device, kind, min_samples, window))
        count = WINDOW_CAPACITY if window is None else window
        entries = list(islice(reversed(self._history[(device, kind)]), count))
        entries.reverse()
        if len(entries) < min_samples:
            return "insufficient"
        if kind == LLM:
            alpha, beta = solve_token_coefficients(
                [(r.n_in, r.n_out, service) for _predicted, _completion, service, r in entries]
            )
            est.alpha_hat = alpha
            est.beta_hat = beta
        else:
            est.gamma_hat = left_sum(map(_service, entries)) / len(entries)
        est.calibration_factor = 1.0
        self.version += 1
        return "updated"

    def refit_all(self, min_samples: int = 1, window: int | None = None) -> dict[int, str]:
        """Refit every seeded device-kind in key order; per-device status keyed by id."""
        return {
            device: self.refit(device, kind, min_samples, window)
            for device, kind in sorted(self.estimates)
        }

    def predict(self, device: int, task) -> float:
        """Calibrated service-time prediction for a task (or a record of one) on a device."""
        try:
            est = self.estimates[(device, task.kind)]
        except KeyError:
            raise UnknownDeviceError(device, task.kind) from None
        if est.kind == LLM:
            return est.calibration_factor * (est.alpha_hat * task.n_in + est.beta_hat * task.n_out)
        return est.calibration_factor * est.gamma_hat

    def uncertainty(self, device: int, kind: str) -> float:
        """Epistemic uncertainty in [0, 1]: 1 at cold start, decays as 1/(1+n)."""
        try:
            est = self.estimates[(device, kind)]
        except KeyError:
            raise UnknownDeviceError(device, kind) from None
        return 1.0 / (1.0 + est.n)

    # -- drift and calibration --------------------------------------------------

    def drift_ratio(
        self, device: int, kind: str, window_ms: float, now: float
    ) -> tuple[float, int]:
        """Observed/predicted ratio over the history entries with
        ``now - window_ms <= completion_time``.

        ``now`` follows the ordering contract of :meth:`ingest_feedback`: it
        is not before the newest record of the (device, kind), and a NaN or
        earlier ``now`` raises :class:`CausalityError`, so every entry is
        at or before ``now``.  The walk starts at the newest entry and stops
        at the first one before the cutoff, the exact negation of the window
        test, so an infinite bound selects the same entries (a NaN window is
        rejected).  Both means fold the window's plain floats oldest-first.
        An empty window reports (1.0, 0): no evidence means no alarm.
        """
        if not window_ms > 0:
            raise ValueError(f"window_ms must be > 0, got {window_ms}")
        history = self._history.get((device, kind))
        if history is None:
            raise UnknownDeviceError(device, kind)
        newest = history[-1][1] if history else -math.inf
        if not newest <= now:
            raise CausalityError(f"drift window ends at now {now}; it must be >= {newest} (newest record)")
        cutoff = now - window_ms
        window = []  # newest first
        for entry in reversed(history):
            if not cutoff <= entry[1]:
                break
            window.append(entry)
        count = len(window)
        if not count:
            return 1.0, 0
        sum_obs = sum_pred = 0.0
        for predicted, _completion, service, _record in reversed(window):
            sum_obs += service
            sum_pred += predicted
        mean_obs = sum_obs / count
        mean_pred = sum_pred / count
        if mean_pred <= 0.0:
            return (1.0 if mean_obs <= 0.0 else float("inf")), count
        return mean_obs / mean_pred, count

    def is_drift_alarm(self, ratio: float, sample_count: int) -> bool:
        """Alarm rule: strictly above threshold over at least ``ALARM_MIN_SAMPLES`` records."""
        return ratio > DRIFT_THRESHOLD and sample_count >= ALARM_MIN_SAMPLES

    def apply_calibration(
        self, device: int, kind: str, observed_ratio: float
    ) -> tuple[float, float]:
        """Exponentially smoothed multiplicative correction; returns (old, new)."""
        check("observed_ratio", observed_ratio, POSITIVE)
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
        fields = OpmEstimate.__slots__
        return [tuple(getattr(self.estimates[key], name) for name in fields) for key in sorted(self.estimates)]

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
        elif tag == "calibrate":
            _, device, kind, ratio = op
            opm.apply_calibration(device, kind, ratio)
        else:
            raise ValueError(f"unknown op {tag!r}")
    return opm
