"""The named input rules at their boundaries, and the sites that check through them.

Table-driven boundary-value analysis (Myers, *The Art of Software Testing*,
1979): each rule accepts its inclusive bound, or the smallest float above an
exclusive one, and rejects the value just outside, bools, nan, ±inf, an int
too large for a float (where the rule takes floats or has an upper bound)
and a wrong type.
"""

import math
import re
from pathlib import Path

import pytest

from edgesched.harness import ExperimentConfig, ExperimentError
from edgesched.metacontrol import AdapterConfig
from edgesched.opm import WINDOW, Opm
from edgesched.profiles import (
    COUNT,
    INDEX,
    INT,
    LLM,
    NAME,
    NON_NEGATIVE,
    PATH,
    POSITIVE,
    SDXL,
    STRING,
    DevicePrior,
    ProfileError,
    RawProfileRecord,
    check,
    optional,
)
from edgesched.router import RiskOverrideTable, RoundRobinPolicy
from edgesched.sim.engine import Engine, Telemetry
from edgesched.sim.truth import (
    GroundTruthState,
    PlanError,
    ScenarioPlan,
    SemanticOnset,
    check_prior_error,
    check_service_jitter,
)
from edgesched.sim.workload import MAX_HORIZON, generate_workload

INF, NAN = math.inf, math.nan
HUGE = 10**400  # an int too large for a float
TINY = math.nextafter(0.0, INF)
# Rejected by every rule: bools, non-finite floats and a value of no rule's type.
EVERY_RULE_REJECTS = [True, False, NAN, INF, -INF, None, []]

# rule -> (values it accepts, values it rejects besides EVERY_RULE_REJECTS)
TABLE = {
    "INT": (INT, [0, -1, 7, HUGE], [0.0, 2.5, "0"]),
    "INDEX": (INDEX, [0, 1, HUGE], [-1, 0.0, "0"]),
    "COUNT": (COUNT, [1, 2, HUGE], [0, -1, 1.0, "1"]),
    "WINDOW": (WINDOW, [1, 40], [0, 41, HUGE, 1.0, "1"]),
    "POSITIVE": (POSITIVE, [TINY, 1, 0.5], [0, 0.0, -0.0, -TINY, HUGE, "1"]),
    "NON_NEGATIVE": (NON_NEGATIVE, [0, 0.0, -0.0, TINY, 3], [-TINY, -1, HUGE, "0"]),
    "STRING": (STRING, ["", "x"], [5, b"x", ["x"]]),
    "NAME": (NAME, ["x", " "], ["", 5, b"x"]),
    "PATH": (PATH, ["x", Path("x"), Path("")], ["", b"p", 5]),
}


def _cases(accepted):
    for name, (rule, good, bad) in TABLE.items():
        for value in good if accepted else [*bad, *EVERY_RULE_REJECTS]:
            yield pytest.param(rule, value, id=f"{name}-{'10**400' if value is HUGE else repr(value)}")


@pytest.mark.parametrize("rule, value", _cases(accepted=True))
def test_each_rule_accepts_its_bound(rule, value):
    check("x", value, rule)
    check("x", value, optional(rule))


@pytest.mark.parametrize("rule, value", _cases(accepted=False))
def test_each_rule_rejects_the_value_just_outside_and_every_wrong_type(rule, value):
    contract = rule[0]
    with pytest.raises(ValueError) as info:
        check("x", value, rule)
    assert type(info.value) is ValueError and str(info.value) == f"x must be {contract}, got {value!r}"
    if value is not None:
        with pytest.raises(ValueError, match=f"^x must be None or {re.escape(contract)}, got "):
            check("x", value, optional(rule))


def test_each_contract_text_is_written_once_in_the_package():
    src = Path(__file__).resolve().parents[1] / "src"
    text = "".join(p.read_text(encoding="utf-8") for p in sorted(src.rglob("*.py")))
    for name, (rule, _good, _bad) in TABLE.items():
        if name != "WINDOW":  # an f-string of the window capacity
            assert text.count(f'"{rule[0]}"') == 1, name


def _record(**fields):
    return RawProfileRecord("dev", "sdxl-base", "SingleStream", **fields).validate()


# site -> (call, the class it raises, the full message)
SITES = {
    "event_factor": (lambda: SemanticOnset(60, 0, "game", 0), PlanError,
                     "semantic_onset factor must be a finite number > 0, got 0"),
    "event_at_task": (lambda: SemanticOnset(-1, 0, "game"), PlanError,
                      "semantic_onset at_task must be an int >= 0, got -1"),
    "event_label": (lambda: SemanticOnset(60, 0, ""), PlanError,
                    "semantic_onset label must be a non-empty string, got ''"),
    "record_latency": (lambda: _record(latency_ms_p99=0), ProfileError,
                       "field latency_ms_p99 must be a finite number > 0, got 0"),
    "record_device_name": (lambda: RawProfileRecord(5, "sdxl", "SingleStream", latency_ms_p99=1.0).validate(),
                           ProfileError, "device_name must be a string, got 5"),
    "prior_gamma0": (lambda: DevicePrior(0, SDXL, gamma0=-TINY), ProfileError,
                     f"gamma0 must be a finite number >= 0, got {-TINY!r}"),
    "prior_device_id": (lambda: DevicePrior(True, SDXL, gamma0=1.0), ProfileError,
                        "device_id must be an int, got True"),
    "config_lambda": (lambda: ExperimentConfig("drift", lam=0), ExperimentError,
                      "lambda must be a finite number > 0, got 0"),
    "config_horizon": (lambda: ExperimentConfig("drift", horizon=-1), ExperimentError,
                       "horizon must be an int >= 0, got -1"),
    "config_warmup": (lambda: ExperimentConfig("warmup", horizon=10, warmup_budget=11), ExperimentError,
                      "warmup_budget must be within [0, horizon=10], got 11"),
    "config_out_dir": (lambda: ExperimentConfig("drift", out_dir=""), ExperimentError,
                       "out_dir must be None or a non-empty str or an os.PathLike, got ''"),
    "adapter_timeout": (lambda: AdapterConfig(url="u", timeout_s=0), ValueError,
                        "adapter timeout_s must be a finite number > 0, got 0"),
    "adapter_url": (lambda: AdapterConfig(url=""), ValueError, "adapter url must be a non-empty string, got ''"),
    "workload_lambda": (lambda: generate_workload(10, lam=0), ValueError,
                        "lambda must be a finite number > 0, got 0"),
    "workload_horizon": (lambda: generate_workload(-1), ValueError, "horizon must be an int >= 0, got -1"),
    # Both bound checks run before any task is built.
    "workload_max_horizon": (lambda: generate_workload(MAX_HORIZON + 1), ValueError,
                             "horizon must be at most MAX_HORIZON = 10**7 tasks, got 10000001"),
    "workload_huge_horizon": (lambda: generate_workload(HUGE, lam=1e-300), ValueError,
                              "horizon must be at most MAX_HORIZON = 10**7 tasks, got about 10**400"),
    "config_max_horizon": (lambda: ExperimentConfig("warmup", horizon=MAX_HORIZON + 1), ExperimentError,
                           "horizon must be at most MAX_HORIZON = 10**7 tasks, got 10000001"),
    "risk_ttl": (lambda: RiskOverrideTable().set(0, 0), ValueError, "ttl must be an int >= 1, not a bool, got 0"),
    "calibration": (lambda: _opm().apply_calibration(0, LLM, 0), ValueError,
                    "observed_ratio must be a finite number > 0, got 0"),
    "refit_window": (lambda: _opm().refit(0, LLM, window=41), ValueError,
                     "window must be None or an int in [1, 40], not a bool, got 41"),
    "service_jitter": (lambda: check_service_jitter(1), ValueError,
                       "service_jitter must be a finite number in [0, 1), got 1"),
    "prior_error": (lambda: check_prior_error({0: 0}), ValueError,
                    "prior_error must map device ids to a finite number > 0 or a pair of them, got 0: 0"),
    # A factor for a device the pool lacks was once ignored without a word.
    "prior_error_device": (lambda: GroundTruthState([DevicePrior(0, LLM, 1.0, 1.0)], prior_error={7: 2.0}),
                           ValueError, "prior_error names device 7, which is not in the pool; its devices are [0]"),
    # The rules pull_observations applies; a limit of 0 once returned every row.
    "observations_window": (lambda: _telemetry().observations(0.0), ValueError,
                            "window_ms must be None or a finite number > 0, got 0.0"),
    "observations_limit": (lambda: _telemetry().observations(None, 0), ValueError,
                           "limit must be None or an int >= 1, not a bool, got 0"),
}


def _opm():
    opm = Opm()
    opm.seed([DevicePrior(0, LLM, 1.0, 1.0)])
    return opm


def _telemetry():
    priors = [DevicePrior(0, LLM, 1.0, 1.0)]
    return Telemetry(Engine(GroundTruthState(priors), ScenarioPlan(()), [], RoundRobinPolicy()))


def test_a_horizon_at_the_bound_is_accepted():
    # A config builds no tasks, so the bound itself is checked here.
    assert MAX_HORIZON == 10**7
    assert ExperimentConfig("warmup", horizon=MAX_HORIZON).horizon == MAX_HORIZON


@pytest.mark.parametrize("call, error, message", SITES.values(), ids=SITES)
def test_each_site_raises_its_own_class_with_its_own_name(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error and str(info.value) == message
