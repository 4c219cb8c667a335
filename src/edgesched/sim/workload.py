"""Deterministic task stream generation.

The stream alternates LLM and SDXL requests at a fixed arrival rate.
LLM token lengths cycle row-major through the 3x3 bin grid so every
(input, output) combination recurs on a fixed schedule, which keeps the
least-squares fit identifiable without randomness.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from ..profiles import INDEX, LLM, POSITIVE, SDXL, check

INPUT_BINS = (256, 512, 1024)
OUTPUT_BINS = (32, 64, 128)

# Row-major walk over INPUT_BINS x OUTPUT_BINS.
TOKEN_BIN_CYCLE = tuple((n_in, n_out) for n_in in INPUT_BINS for n_out in OUTPUT_BINS)

# The most tasks one stream may hold: a run keeps about 1 KB per task over
# its four policies, so this many take about 10 GB.
MAX_HORIZON = 10**7

_new_tuple = tuple.__new__


class TaskSpec(NamedTuple):
    """One generative request: position in the stream, kind, and size."""

    task_id: int
    kind: str
    arrival_time: float
    n_in: int | None = None
    n_out: int | None = None


def check_horizon(horizon: object, error: type[Exception] = ValueError) -> None:
    """Raise ``error`` unless ``horizon`` is an int in [0, :data:`MAX_HORIZON`]."""
    check("horizon", horizon, INDEX, error)
    if horizon > MAX_HORIZON:
        # A huge int is named by its size: all its digits would fill the message.
        shown = horizon if horizon < 10**15 else f"about 10**{round(math.log10(horizon))}"
        raise error(f"horizon must be at most MAX_HORIZON = 10**7 tasks, got {shown}")


def generate_workload(horizon: int, lam: float = 0.5) -> list[TaskSpec]:
    """Build the deterministic stream of ``horizon`` tasks.

    ``horizon`` is checked against :data:`MAX_HORIZON` before any task is
    built.  Arrivals are evenly spaced at 1000/lam milliseconds (lam in
    tasks/s).  The last one, at (horizon - 1) * 1000/lam, must be finite and
    below 2**53 ms, where a float still resolves a millisecond; under the
    horizon bound some finite rate always does that.  Even task ids are LLM
    requests, whose token bins follow :data:`TOKEN_BIN_CYCLE`; odd ids are
    SDXL requests.
    """
    check_horizon(horizon)
    check("lambda", lam, POSITIVE)
    interarrival = 1000.0 / lam
    last = max(horizon - 1, 0)
    if not last * interarrival < 2.0**53:  # also true for inf and nan
        raise ValueError(
            f"lambda must put the last arrival, (horizon - 1) * 1000/lambda ms, "
            f"below 2**53 ms, got lambda={lam!r} for horizon {horizon}"
        )
    # In field order, through tuple.__new__ (the engine's idiom): this runs once per task.
    tasks: list[TaskSpec] = []
    llm_ordinal = 0
    for k in range(horizon):
        if k % 2 == 0:
            n_in, n_out = TOKEN_BIN_CYCLE[llm_ordinal % len(TOKEN_BIN_CYCLE)]
            llm_ordinal += 1
            tasks.append(_new_tuple(TaskSpec, (k, LLM, k * interarrival, n_in, n_out)))
        else:
            tasks.append(_new_tuple(TaskSpec, (k, SDXL, k * interarrival, None, None)))
    return tasks
