"""Benchmark inputs: the experiment configs of each workload.

``presets`` and ``overload`` are fixed; ``event_dense`` builds its scenario
plan from the workload seed with stdlib ``random``, so the same seed always
gives the same plan.  The program under test receives only the generated
``ExperimentConfig`` values.
"""

from __future__ import annotations

import random

WORKLOADS = ("presets", "overload", "event_dense")

# The six shipped presets at their defaults (H=300, lambda=0.5).
PRESETS = (
    ("warmup", 0),
    ("warmup", 30),
    ("warmup", 100),
    ("semantic", 0),
    ("churn", 0),
    ("drift", 0),
)

OVERLOAD_HORIZON = 3000
OVERLOAD_LAMBDA = 2.0

DENSE_HORIZON = 10000
DENSE_LAMBDA = 0.5
# Windows open after the engine's settling prefix and all close at least
# CLOSE_MARGIN tasks before H.
DENSE_PREFIX = 50
CLOSE_MARGIN = 50
# (family, window lengths in tasks).  Each block of windows holds, for every
# device of a kind, one window of each listed length.  The 60-task semantic
# window outlives the 50-task risk TTL, so the gate's expiry is exercised.
FAMILIES = (
    ("semantic", (30, 60)),
    ("churn", (40,)),
    ("drift", (80,)),
)
# Tasks between one window's close and the next window's open on the same
# kind.  With the lengths above each kind opens a window about every 80
# tasks, so the pool as a whole sees one about every 40.
KIND_GAP = (20, 40)
DRIFT_FACTOR = 2.0
SEMANTIC_FACTOR = 3.0
SEMANTIC_LABELS = ("game", "video_call", "low_battery", "system_update", "overheating")

LLM_KIND = "LLM"
SDXL_KIND = "SDXL"
POOL_KINDS = [LLM_KIND, LLM_KIND, SDXL_KIND, SDXL_KIND]


class PlanInputError(ValueError):
    """The device pool does not match the 4-device layout the plan assumes."""


def check_pool(priors) -> None:
    """Reject any pool other than devices 0-1 LLM and 2-3 SDXL.

    ``run_experiment`` skips its own pool check when a custom plan is given,
    so the generator checks the pool before building one.
    """
    kinds = [p.kind for p in sorted(priors, key=lambda p: p.device_id)]
    ids = sorted(p.device_id for p in priors)
    if kinds != POOL_KINDS or ids != [0, 1, 2, 3]:
        raise PlanInputError(
            f"event_dense plans need devices 0-1 LLM and 2-3 SDXL; got ids {ids} kinds {kinds}"
        )


def _window_rows(family: str, device: int, start: int, end: int, rng, model_ids) -> tuple[dict, dict]:
    if family == "semantic":
        label = rng.choice(SEMANTIC_LABELS)
        opened = {"type": "semantic_onset", "device": device, "label": label, "factor": SEMANTIC_FACTOR}
        closed = {"type": "semantic_offset", "device": device, "label": label}
    elif family == "churn":
        opened = {"type": "device_leave", "device": device}
        closed = {"type": "device_return", "device": device}
    else:
        model = model_ids[device]
        opened = {"type": "drift_step", "device": device, "model": model, "factor": DRIFT_FACTOR}
        closed = {"type": "drift_restore", "device": device, "model": model}
    return {"at_task": start, **opened}, {"at_task": end, **closed}


def dense_plan_rows(
    seed: int,
    priors,
    model_ids: list[str],
    horizon: int = DENSE_HORIZON,
) -> list[dict]:
    """Paired event windows for ``event_dense`` as ``plan_from_dicts`` rows.

    Each window is a semantic onset/offset, a churn leave/return or a hidden
    drift step/restore on one device.  Windows on devices of one kind follow
    each other without overlap, so the two devices of one kind are never out
    at once and no device has two open windows; LLM and SDXL windows
    interleave freely.  Every window closes at least ``CLOSE_MARGIN`` tasks
    before ``horizon``.

    Each kind draws its windows from shuffled blocks that hold the same
    (family, device, length) windows, so every seed gives the same mix and
    only the order, gaps and labels vary.  Overlapping windows on one kind
    (a device leaving while its peer is degraded) and random lengths set
    most of the latency tail, so allowing them would let the seed, not the
    program, move the simulated figures.
    """
    check_pool(priors)
    rng = random.Random(seed)
    last_close = horizon - CLOSE_MARGIN
    rows: list[tuple[int, int, int, dict]] = []
    for kind in (LLM_KIND, SDXL_KIND):
        devices = sorted(p.device_id for p in priors if p.kind == kind)
        block = [(name, d, n) for name, lengths in FAMILIES for d in devices for n in lengths]
        pending: list[tuple[str, int, int]] = []
        start = DENSE_PREFIX + rng.randint(*KIND_GAP)
        while True:
            if not pending:
                pending = list(block)
                rng.shuffle(pending)
            family, device, length = pending.pop()
            end = start + length
            if end > last_close:
                break
            opened, closed = _window_rows(family, device, start, end, rng, model_ids)
            # Closing events sort ahead of opening events at the same index.
            rows.append((start, 1, len(rows), opened))
            rows.append((end, 0, len(rows), closed))
            start = end + rng.randint(*KIND_GAP)
    rows.sort(key=lambda r: r[:3])
    return [r[3] for r in rows]


def experiment_specs(workload: str) -> list[dict]:
    """The ExperimentConfig keyword sets of one round of a workload.

    ``event_dense`` returns the config without its plan; ``run.py`` adds the
    plan it built from the seed.
    """
    if workload == "presets":
        return [{"scenario": s, "warmup_budget": w} for s, w in PRESETS]
    if workload == "overload":
        return [{"scenario": "semantic", "horizon": OVERLOAD_HORIZON, "lam": OVERLOAD_LAMBDA}]
    if workload == "event_dense":
        # scenario="semantic" selects that preset's prior errors and jitter.
        return [{"scenario": "semantic", "horizon": DENSE_HORIZON, "lam": DENSE_LAMBDA}]
    raise ValueError(f"unknown workload {workload!r}; valid: {list(WORKLOADS)}")
