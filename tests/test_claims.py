"""The committed paper-claims ledger equals a fresh run of its grid.

``scripts/claims.py`` measures the paper's three claims over a fixed grid of
dynamic scenarios.  The comparison is exact, so any change that moves a
claim, a stutter rate or one of the agent's per-device counts shows as a
diff of ``CLAIMS.json``; the ledger itself is a measurement, not a gate.
"""

import importlib.util
import json
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "claims.py"


def load_claims():
    spec = importlib.util.spec_from_file_location("claims", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_committed_ledger_equals_a_fresh_run():
    claims = load_claims()
    assert claims.render(claims.build_ledger()) == claims.LEDGER_PATH.read_text()


def test_ledger_covers_the_whole_grid_and_every_band():
    claims = load_claims()
    points = json.loads(claims.LEDGER_PATH.read_text())["points"]
    assert len(points) == len(claims.SCENARIOS) * len(claims.LAMBDAS) * len(claims.HORIZONS) * 2
    for point in points:
        for name, (low, high) in claims.BANDS.items():
            claim = point[name]
            assert claim["band"] == [low, high]
            value = claim["value"]
            assert claim["where"] == ("below" if value < low else "above" if value > high else "inside")
