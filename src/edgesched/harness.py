"""Experiment runner and metrics pipeline.

One experiment generates a single workload and scenario plan, then runs every
requested policy against identical copies (fairness by construction, recorded
as input hashes).  Reports carry average latency, the relative gap to the
full-information reference policy, stutter rate, meta-control counts, and
sampled latency trajectories with a 20-task moving average.
"""

from __future__ import annotations

import functools
import hashlib
import json
import logging
from collections import deque
from collections.abc import Iterable
from itertools import chain, repeat
from operator import add, attrgetter, ne
from pathlib import Path
from typing import NamedTuple

from .metacontrol import AdapterConfig, AuditLog, MetaController, llm_adapter_invoke
from .opm import left_sum
from .profiles import (
    INT,
    LLM,
    PATH,
    POSITIVE,
    SDXL,
    DevicePrior,
    check,
    default_profiles_path,
    load_profiles,
    optional,
    priors_from_records,
)
from .router import (
    AdaptiveAgentPolicy,
    FixedHeuristicPolicy,
    OraclePolicy,
    RoundRobinPolicy,
)
from .sim.engine import Engine, ExecutionRecord, SimulationResult
from .sim.truth import (
    DeviceLeave,
    DeviceReturn,
    DriftRestore,
    DriftStep,
    GroundTruthState,
    ScenarioPlan,
    SemanticOffset,
    SemanticOnset,
    check_prior_error,
    check_service_jitter,
)
from .sim.workload import TaskSpec, check_horizon, generate_workload

logger = logging.getLogger(__name__)

POLICY_NAMES = ("e3", "fixed_heuristic", "round_robin", "oracle")

MA_WINDOW = 20
TRAJECTORY_SAMPLE_EVERY = 5

# Dynamic scenarios start with a settling prefix before the event plan; the
# agent treats the prefix as its warmup budget and trajectories index from
# the prefix end.
DYNAMIC_PREFIX_TASKS = 50

# Device kinds of the shipped pool, by device id: the presets' plans and
# prior-error factors are set for it.
SHIPPED_KINDS = (LLM, LLM, SDXL, SDXL)

# One row per scenario: its prior-error factors (true coefficients = prior *
# factor; LLM devices take an (alpha, beta) pair), its deterministic per-task
# service jitter amplitude, its settling prefix (in tasks) and its event plan.
# The plans are set for the shipped pool and the default 300-task horizon,
# with every event inside [prefix, 300).  These are repo defaults tuned so
# every published trend reproduces on the shipped fixture pool.
PRESETS: dict[str, dict] = {
    "warmup": {
        "prior_error": {0: (4.0, 0.4), 1: (0.5, 0.8125), 2: 0.95, 3: 0.12},
        "service_jitter": 0.25,
        "prefix": 0,
        "plan": ScenarioPlan(()),
    },
    "semantic": {
        "prior_error": {0: (1.0, 1.0), 1: (0.25, 0.25), 2: 1.05, 3: 0.25},
        "service_jitter": 0.15,
        "prefix": DYNAMIC_PREFIX_TASKS,
        "plan": ScenarioPlan((
            SemanticOnset(60, 0, "game"), SemanticOffset(100, 0, "game"),
            SemanticOnset(110, 2, "video_call"), SemanticOffset(140, 2, "video_call"),
            SemanticOnset(150, 1, "low_battery"), SemanticOffset(180, 1, "low_battery"),
            SemanticOnset(190, 3, "system_update"), SemanticOffset(230, 3, "system_update"),
            SemanticOnset(240, 0, "overheating"), SemanticOffset(270, 0, "overheating"),
        )),
    },
    "churn": {
        "prior_error": {0: (2.0, 2.0), 1: (0.25, 0.25), 2: 1.05, 3: 0.25},
        "service_jitter": 0.15,
        "prefix": DYNAMIC_PREFIX_TASKS,
        "plan": ScenarioPlan((DeviceLeave(80, 2), DeviceReturn(160, 2), DeviceLeave(200, 0), DeviceReturn(260, 0))),
    },
    "drift": {
        "prior_error": {0: (2.0, 2.0), 1: (0.25, 0.25), 2: 1.05, 3: 0.25},
        "service_jitter": 0.15,
        "prefix": DYNAMIC_PREFIX_TASKS,
        "plan": ScenarioPlan((DriftStep(120, 1, "llama3.1-8b-edge", 2.0), DriftRestore(220, 1, "llama3.1-8b-edge"))),
    },
}
SCENARIOS = tuple(PRESETS)


class ExperimentError(RuntimeError):
    """Fatal configuration or consistency problem in an experiment."""


class ExperimentConfig:
    """One experiment's settings, checked when built; its fields are its ``__slots__``."""

    __slots__ = (
        "scenario", "warmup_budget", "horizon", "lam", "policies", "profiles_path", "out_dir",
        "prior_error", "service_jitter", "plan", "adapter", "adapter_transport", "trace_decisions",
    )

    def __init__(
        self,
        scenario: str,
        warmup_budget: int = 0,
        horizon: int = 300,
        lam: float = 0.5,
        policies: tuple[str, ...] = POLICY_NAMES,
        profiles_path: str | Path | None = None,
        out_dir: str | Path | None = None,
        prior_error: dict | None = None,
        service_jitter: float | None = None,
        plan: ScenarioPlan | None = None,
        adapter: AdapterConfig | None = None,
        adapter_transport: object | None = None,
        trace_decisions: bool = False,
    ) -> None:
        given = locals()  # each parameter sets the field of its name
        for name in self.__slots__:
            setattr(self, name, given[name])
        if self.scenario not in SCENARIOS:
            raise ExperimentError(
                f"unknown scenario {self.scenario!r}; valid: {sorted(SCENARIOS)}"
            )
        check_horizon(self.horizon, ExperimentError)
        for name, rule in _CONFIG_FIELDS.items():
            check(name, getattr(self, name), rule, ExperimentError)
        check("lambda", self.lam, POSITIVE, ExperimentError)
        self.lam = float(self.lam)  # an int rate is accepted and reported as a float
        if self.prior_error is not None:
            check_prior_error(self.prior_error)
        if self.service_jitter is not None:
            check_service_jitter(self.service_jitter)
        check("warmup_budget", self.warmup_budget,
              (f"within [0, horizon={self.horizon}]", lambda v: 0 <= v <= self.horizon), ExperimentError)
        prefix = PRESETS[self.scenario]["prefix"]
        if prefix and self.warmup_budget != 0:
            raise ExperimentError(
                f"{self.scenario} takes no warmup budget, got {self.warmup_budget}; "
                f"its budget is the {prefix}-task settling prefix"
            )
        if not self.policies:
            raise ExperimentError(f"policies must name at least one of {sorted(POLICY_NAMES)}")
        for policy in self.policies:
            if policy not in POLICY_NAMES:
                raise ExperimentError(
                    f"unknown policy {policy!r}; valid: {sorted(POLICY_NAMES)}"
                )


# ExperimentConfig field -> rule; ``horizon`` has its own check and ``lam`` is
# checked as "lambda", its config-file key
_CONFIG_FIELDS = {
    "warmup_budget": INT,
    "trace_decisions": ("a bool", lambda v: isinstance(v, bool)),
    "profiles_path": optional(PATH),
    "out_dir": optional(PATH),
    "plan": optional(("a ScenarioPlan", lambda v: isinstance(v, ScenarioPlan))),
    "adapter": optional(("an AdapterConfig", lambda v: isinstance(v, AdapterConfig))),
    "adapter_transport": optional(("a callable", callable)),
    "policies": ("a tuple or list of policy names", lambda v: isinstance(v, (tuple, list))),
}


class PolicyMetrics(NamedTuple):
    avg_latency_ms: float
    vs_oracle_pct: float
    stutter_rate: float
    llm_calls: int
    tool_calls: int
    trajectory: list[tuple[int, float, float]]

    def to_dict(self) -> dict:
        return {
            "avg_latency_ms": self.avg_latency_ms,
            "vs_oracle_pct": self.vs_oracle_pct,
            "stutter_rate": self.stutter_rate,
            "llm_calls": self.llm_calls,
            "tool_calls": self.tool_calls,
        }


class MetricsReport:
    """One experiment's inputs and, once its policies ran, their metrics."""

    __slots__ = ("scenario", "warmup_budget", "horizon", "lam", "prefix_end", "workload_sha256", "plan_sha256",
                 "policies")

    def __init__(
        self, scenario: str, warmup_budget: int, horizon: int, lam: float, prefix_end: int,
        workload_sha256: str, plan_sha256: str,
    ) -> None:
        given = locals()  # each parameter sets the field of its name
        for name in self.__slots__[:-1]:
            setattr(self, name, given[name])
        self.policies: dict[str, PolicyMetrics] = {}

    def to_dict(self) -> dict:
        return {
            "scenario": self.scenario,
            "warmup_budget": self.warmup_budget,
            "horizon": self.horizon,
            "lambda": self.lam,
            "prefix_end": self.prefix_end,
            "workload_sha256": self.workload_sha256,
            "plan_sha256": self.plan_sha256,
            "policies": {name: pm.to_dict() for name, pm in sorted(self.policies.items())},
        }


class ExperimentResult(NamedTuple):
    report: MetricsReport
    runs: dict[str, SimulationResult]  # in the order the policies were asked for
    agent: AdaptiveAgentPolicy | None

    @property
    def audit(self) -> AuditLog | None:
        return self.agent.meta.audit if self.agent is not None else None

    @property
    def event_log(self) -> list[str]:
        """The event log of the first policy asked for."""
        return next(iter(self.runs.values())).event_log if self.runs else []


def smooth_ma(
    series: Iterable[float], window: int = MA_WINDOW, start: int = 0, every: int = 1
) -> list[tuple[int, float, float]]:
    """Trailing moving average, sampled: a ``(k, value, mean)`` row for the
    ``start``-th point and every ``every``-th point after it, where ``mean``
    covers the last min(window, k+1) points.

    One plain loop reads ``series`` once.  The running sum adds each point,
    then subtracts the one that left the ``window``-slot window, so every
    mean is bit-identical to that of a whole-list pass.
    """
    if window < 1:
        raise ValueError(f"window must be >= 1, got {window}")
    recent: deque[float] = deque(maxlen=window)
    running = 0.0
    rows = []
    due = start
    for k, value in enumerate(series):
        running += value
        if k >= window:
            running -= recent[0]
        recent.append(value)
        if k == due:
            rows.append((k, value, running / (k + 1 if k < window else window)))
            due += every
    return rows


_task_id = attrgetter("task_id")
_latency_ms = attrgetter("latency_ms")
_stutter = attrgetter("stutter")


def compute_metrics(
    records_by_policy: dict[str, list[ExecutionRecord]],
    oracle_records: list[ExecutionRecord],
    meta_counts: dict[str, tuple[int, int]] | None = None,
    prefix_end: int = 0,
) -> dict[str, PolicyMetrics]:
    """Aggregate per-policy metrics against the reference run.

    Every policy must cover exactly the oracle's task ids (identical
    workloads, at least one task: a run with H=0 never gets here); the
    oracle block reports a zero gap by definition.  Averages fold the
    records in completion order; the reference's is folded once and reused
    for a policy whose list is the reference list itself.  The trajectory
    is one :func:`smooth_ma` pass over the task-ordered records, keeping
    every ``TRAJECTORY_SAMPLE_EVERY``-th ``(k, raw, ma)`` row from
    ``prefix_end`` on.
    """
    meta_counts = meta_counts or {}
    oracle_ids = sorted(map(_task_id, oracle_records))
    oracle_avg = left_sum(map(_latency_ms, oracle_records)) / len(oracle_records)
    metrics: dict[str, PolicyMetrics] = {}
    for name, records in records_by_policy.items():
        ordered = sorted(records, key=_task_id)
        if len(ordered) != len(oracle_ids) or any(map(ne, map(_task_id, ordered), oracle_ids)):
            raise ExperimentError(
                f"policy {name!r} covers {len(ordered)} task(s) but the reference covers "
                f"{len(oracle_ids)}; record lists must match"
            )
        if records is oracle_records:
            avg = oracle_avg
        else:
            avg = left_sum(map(_latency_ms, records)) / len(records)
        vs = 0.0 if name == "oracle" else (avg / oracle_avg - 1.0) * 100.0
        stutter = sum(map(_stutter, records)) / len(records)
        llm_calls, tool_calls = meta_counts.get(name, (0, 0))
        trajectory = smooth_ma(
            map(_latency_ms, ordered), MA_WINDOW, prefix_end, TRAJECTORY_SAMPLE_EVERY
        )
        metrics[name] = PolicyMetrics(avg, vs, stutter, llm_calls, tool_calls, trajectory)
    return metrics


def _workload_sha(workload: list[TaskSpec]) -> str:
    # A TaskSpec is a tuple of its five fields, and %s writes each as an f-string field does.
    text = ";".join(map("%s,%s,%s,%s,%s".__mod__, workload))
    return hashlib.sha256(text.encode()).hexdigest()


def _plan_sha(plan: ScenarioPlan) -> str:
    text = ";".join(repr(e) for e in plan.events)
    return hashlib.sha256(text.encode()).hexdigest()


def _check_default_pool(priors: list[DevicePrior]) -> None:
    kinds = [p.kind for p in sorted(priors, key=lambda p: p.device_id)]
    if kinds != list(SHIPPED_KINDS):
        raise ExperimentError(
            "built-in scenario plans expect the 4-device pool "
            "(two LLM devices 0-1, two SDXL devices 2-3); "
            f"got kinds {kinds}"
        )


def build_agent(
    priors: list[DevicePrior],
    warmup_budget: int,
    controller=None,
    trace: list | None = None,
) -> AdaptiveAgentPolicy:
    """The e3 agent: routing on a meta-controller that seeds its model from
    ``priors`` and hands each invocation to ``controller`` (None: the scripted one)."""
    return AdaptiveAgentPolicy(MetaController(priors, warmup_budget, controller), trace)


def _build_policy(
    name: str, priors: list[DevicePrior], warmup_budget: int, config: ExperimentConfig
):
    if name == "e3":
        controller = None
        if config.adapter is not None:
            controller = functools.partial(
                llm_adapter_invoke, endpoint=config.adapter, transport=config.adapter_transport
            )
        return build_agent(priors, warmup_budget, controller, trace=[] if config.trace_decisions else None)
    if name == "fixed_heuristic":
        return FixedHeuristicPolicy(priors)
    if name == "round_robin":
        return RoundRobinPolicy()
    return OraclePolicy()  # ExperimentConfig admits only POLICY_NAMES


def run_experiment(config: ExperimentConfig) -> ExperimentResult:
    """Run one preset: shared workload and plan, one engine per policy."""
    profiles_path = config.profiles_path or default_profiles_path()
    records = load_profiles(profiles_path)
    if not records:
        raise ExperimentError(f"no usable profiles in {profiles_path}")
    priors = priors_from_records(records)

    preset = PRESETS[config.scenario]
    plan = config.plan
    if plan is None:
        plan = preset["plan"]
        if plan.events:
            _check_default_pool(priors)
    prior_error = config.prior_error
    if prior_error is None:
        # The preset's factors are set for the shipped pool; a run on
        # another pool takes those of its devices that have the shipped
        # device's id and kind.
        kinds = {prior.device_id: prior.kind for prior in priors}
        prior_error = {
            device: error
            for device, error in preset["prior_error"].items()
            if kinds.get(device) == SHIPPED_KINDS[device]
        }
    jitter = (
        config.service_jitter
        if config.service_jitter is not None
        else preset["service_jitter"]
    )
    prefix_end = preset["prefix"]
    warmup_budget = prefix_end or config.warmup_budget

    workload = generate_workload(config.horizon, config.lam)
    missing = {t.kind for t in workload} - {p.kind for p in priors}
    if missing:
        # The engine would hold those tasks pending to the end of the run.
        raise ExperimentError(f"no device in the pool runs the workload's {sorted(missing)} tasks")
    report = MetricsReport(
        scenario=config.scenario,
        warmup_budget=warmup_budget,
        horizon=config.horizon,
        lam=config.lam,
        prefix_end=min(prefix_end, config.horizon),
        workload_sha256=_workload_sha(workload),
        plan_sha256=_plan_sha(plan),
    )

    if config.horizon == 0:
        # Nothing runs, but the prior-error factors must still fit the pool.
        GroundTruthState(priors, prior_error=prior_error, service_jitter=jitter)
        result = ExperimentResult(report, {}, None)
        if config.out_dir is not None:
            emit_report(result, config.out_dir)
        return result

    wanted = list(dict.fromkeys(config.policies))
    to_run = list(wanted)
    if "oracle" not in to_run:
        to_run.append("oracle")

    runs: dict[str, SimulationResult] = {}
    meta_counts: dict[str, tuple[int, int]] = {}
    agent: AdaptiveAgentPolicy | None = None
    for name in to_run:
        truth = GroundTruthState(priors, prior_error=prior_error, service_jitter=jitter)
        policy = _build_policy(name, priors, warmup_budget, config)
        engine = Engine(truth, plan, workload, policy)
        runs[name] = engine.run()
        if name == "e3":
            agent = policy
            meta_counts[name] = (len(policy.meta.invocations), policy.meta.tool_calls)
        logger.info(
            "scenario=%s policy=%s completed %d tasks",
            config.scenario,
            name,
            len(runs[name].records),
        )

    metrics = compute_metrics(
        {name: runs[name].records for name in wanted},
        runs["oracle"].records,
        meta_counts,
        prefix_end=report.prefix_end,
    )
    report.policies = metrics

    result = ExperimentResult(report, {n: runs[n] for n in wanted}, agent)
    if config.out_dir is not None:
        emit_report(result, config.out_dir)
    return result


def _write_lines(path: Path, lines: Iterable[str]) -> None:
    """Write each line followed by a newline."""
    with path.open("w", encoding="utf-8") as fh:
        fh.writelines(map(add, lines, repeat("\n")))


def emit_report(result: ExperimentResult, out_dir: str | Path) -> list[Path]:
    """Write report.json, per-policy trajectory CSVs, events.log, audit.log.

    report.json holds the metrics and input hashes, the bytes of
    ``json.dumps(report, sort_keys=True, indent=2)`` plus a newline.  Each
    non-empty trajectory is written once, to its CSV, one ``%r`` row per
    sample, so every float reads back to the same bits.  Every file but
    report.json and the few-line OPM snapshot is written line by line, never
    held whole as one string.  Re-emitting the same result produces
    byte-identical files.
    """
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ExperimentError(f"cannot create output directory {out}: {exc}") from exc

    written: list[Path] = []
    report_path = out / "report.json"
    with report_path.open("w", encoding="utf-8") as fh:
        json.dump(result.report.to_dict(), fh, sort_keys=True, indent=2)
        fh.write("\n")
    written.append(report_path)

    for name, pm in sorted(result.report.policies.items()):
        if not pm.trajectory:
            continue
        path = out / f"trajectory_{name}.csv"
        # A row may be a list; %-formatting takes its fields as a tuple.
        rows = map("%s,%r,%r".__mod__, map(tuple, pm.trajectory))
        _write_lines(path, chain(("task_index,latency_ms,ma20_ms",), rows))
        written.append(path)

    events_path = out / "events.log"
    _write_lines(events_path, result.event_log)
    written.append(events_path)

    audit_path = out / "audit.log"
    _write_lines(audit_path, result.audit.lines() if result.audit is not None else ())
    written.append(audit_path)

    if result.agent is not None:
        snapshot_path = out / "opm_snapshot.txt"
        snapshot_path.write_text(result.agent.opm.snapshot_text() + "\n", encoding="utf-8")
        written.append(snapshot_path)
        if result.agent.trace is not None:
            decisions_path = out / "decisions.log"
            _write_lines(
                decisions_path, (json.dumps(row, sort_keys=True) for row in result.agent.trace)
            )
            written.append(decisions_path)
    return written
