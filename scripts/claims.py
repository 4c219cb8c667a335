"""Paper-claims ledger: where the agent stands against the paper's numbers.

``PAPER.md`` claims that across the dynamic scenarios the agent cuts
average latency by 65-73% against the best static baseline, stays within
7-10% of the full-information oracle, and suppresses stutter under semantic
degradation.  This script runs semantic, churn and drift over a fixed grid
(arrival rate, horizon, service jitter) and records, per point, each
measured value, the paper's band and whether the value falls below, inside
or above it, plus the agent's task count and final OPM sample count per
(device, kind).  A count of zero is the signature of a device the agent
never tried.

The ledger is a measurement, not a gate: every point is kept, whatever it
shows.  It needs the standard library alone; ``python scripts/claims.py``
rewrites ``CLAIMS.json`` at the repository root, and
``tests/test_claims.py`` checks that the committed file is current.
"""

from __future__ import annotations

import json
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from edgesched.harness import PRESETS, ExperimentConfig, run_experiment  # noqa: E402

LEDGER_PATH = ROOT / "CLAIMS.json"
# The dynamic scenarios: the presets with a settling prefix (semantic, churn, drift).
SCENARIOS = tuple(name for name, preset in PRESETS.items() if preset["prefix"])
LAMBDAS = (0.25, 0.5, 1.0, 2.0)
HORIZONS = (300, 600)
# The paper's bands, in percent.
BANDS = {"cut_pct": (65.0, 73.0), "gap_pct": (7.0, 10.0)}
STATIC = ("fixed_heuristic", "round_robin")


def _claim(name: str, value: float) -> dict:
    low, high = BANDS[name]
    where = "below" if value < low else "above" if value > high else "inside"
    return {"value": value, "band": [low, high], "where": where}


def _by_device_kind(counts: dict[tuple[int, str], int]) -> dict[str, int]:
    return {f"{device}/{kind}": n for (device, kind), n in sorted(counts.items())}


def measure(scenario: str, lam: float, horizon: int, jitter: float) -> dict:
    """One ledger point: the three claims and the agent's per-device counts."""
    result = run_experiment(
        ExperimentConfig(scenario, horizon=horizon, lam=lam, service_jitter=jitter)
    )
    policies = result.report.policies
    e3 = policies["e3"]
    best_static = min(policies[name].avg_latency_ms for name in STATIC)
    tasks = Counter((r.device_id, r.kind) for r in result.runs["e3"].records)
    return {
        "scenario": scenario,
        "lambda": lam,
        "horizon": horizon,
        "jitter": jitter,
        "cut_pct": _claim("cut_pct", (1.0 - e3.avg_latency_ms / best_static) * 100.0),
        "gap_pct": _claim("gap_pct", e3.vs_oracle_pct),
        "stutter_rate": {
            "e3": e3.stutter_rate,
            "fixed_heuristic": policies["fixed_heuristic"].stutter_rate,
        },
        "e3_tasks": _by_device_kind(tasks),
        "e3_opm_n": _by_device_kind(
            {key: est.n for key, est in result.agent.opm.estimates.items()}
        ),
    }


def build_ledger() -> dict:
    points = [
        measure(scenario, lam, horizon, jitter)
        for scenario in SCENARIOS
        for lam in LAMBDAS
        for horizon in HORIZONS
        for jitter in (0.0, PRESETS[scenario]["service_jitter"])
    ]
    return {"bands": {name: list(band) for name, band in BANDS.items()}, "points": points}


def render(ledger: dict) -> str:
    return json.dumps(ledger, sort_keys=True, indent=2) + "\n"


if __name__ == "__main__":
    LEDGER_PATH.write_text(render(build_ledger()))
