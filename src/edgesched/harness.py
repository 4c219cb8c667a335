"""Experiment runner and metrics pipeline.

One experiment generates a single workload and scenario plan, then runs every
requested policy against identical copies (fairness by construction, recorded
as input hashes).  Reports carry average latency, the relative gap to the
full-information reference policy, stutter rate, meta-control counts, and
sampled latency trajectories with a 20-task moving average.
"""

from __future__ import annotations

import hashlib
import json
import logging
from collections.abc import Iterable
from dataclasses import dataclass, field
from itertools import chain
from operator import attrgetter
from pathlib import Path

from .metacontrol import AdapterConfig, AuditLog, MetaController
from .opm import Opm, left_sum
from .profiles import (
    LLM,
    SDXL,
    DevicePrior,
    default_profiles_path,
    is_finite_number,
    is_int,
    load_profiles,
    priors_from_records,
)
from .router import (
    AdaptiveAgentPolicy,
    FixedHeuristicPolicy,
    OraclePolicy,
    RiskOverrideTable,
    RoundRobinPolicy,
    RouterConfig,
)
from .sim.engine import Engine, ExecutionRecord, SimulationResult
from .sim.truth import (
    GroundTruthState,
    ScenarioPlan,
    builtin_plans,
    check_prior_error,
    check_service_jitter,
)
from .sim.workload import TaskSpec, generate_workload

logger = logging.getLogger(__name__)

SCENARIOS = ("warmup", "semantic", "churn", "drift")
POLICY_NAMES = ("e3", "fixed_heuristic", "round_robin", "oracle")

MA_WINDOW = 20
TRAJECTORY_SAMPLE_EVERY = 5

# Dynamic scenarios start with a settling prefix before the event plan; the
# agent treats the prefix as its warmup budget and trajectories index from
# the prefix end.
DYNAMIC_PREFIX_TASKS = 50

# Per-scenario prior-error factors (true coefficients = prior * factor; LLM
# devices take an (alpha, beta) pair) and the deterministic per-task service
# jitter amplitude.  These are repo defaults tuned so every published trend
# reproduces on the shipped fixture pool.
PRESETS: dict[str, dict] = {
    "warmup": {
        "prior_error": {0: (4.0, 0.4), 1: (0.5, 0.8125), 2: 0.95, 3: 0.12},
        "service_jitter": 0.25,
    },
    "semantic": {
        "prior_error": {0: (1.0, 1.0), 1: (0.25, 0.25), 2: 1.05, 3: 0.25},
        "service_jitter": 0.15,
    },
    "churn": {
        "prior_error": {0: (2.0, 2.0), 1: (0.25, 0.25), 2: 1.05, 3: 0.25},
        "service_jitter": 0.15,
    },
    "drift": {
        "prior_error": {0: (2.0, 2.0), 1: (0.25, 0.25), 2: 1.05, 3: 0.25},
        "service_jitter": 0.15,
    },
}


class ExperimentError(RuntimeError):
    """Fatal configuration or consistency problem in an experiment."""


@dataclass
class ExperimentConfig:
    scenario: str
    warmup_budget: int = 0
    horizon: int = 300
    lam: float = 0.5
    policies: tuple[str, ...] = POLICY_NAMES
    profiles_path: str | Path | None = None
    out_dir: str | Path | None = None
    prior_error: dict | None = None
    service_jitter: float | None = None
    plan: ScenarioPlan | None = None
    adapter: AdapterConfig | None = None
    adapter_transport: object | None = None
    explore_weight_ms: float | None = None
    trace_decisions: bool = False
    leak_check: bool = False

    def __post_init__(self) -> None:
        if self.scenario not in SCENARIOS:
            raise ExperimentError(
                f"unknown scenario {self.scenario!r}; valid: {sorted(SCENARIOS)}"
            )
        for name in ("horizon", "warmup_budget"):
            value = getattr(self, name)
            if not is_int(value):
                raise ExperimentError(f"{name} must be an int, got {value!r}")
        if self.horizon < 0:
            raise ExperimentError("horizon must be >= 0")
        if not is_finite_number(self.lam) or self.lam <= 0:
            raise ExperimentError(f"lambda must be a finite number > 0, got {self.lam!r}")
        self.lam = float(self.lam)  # an int rate is accepted and reported as a float
        if not isinstance(self.trace_decisions, bool):
            raise ExperimentError(f"trace_decisions must be a bool, got {self.trace_decisions!r}")
        if self.prior_error is not None:
            check_prior_error(self.prior_error)
        if self.service_jitter is not None:
            check_service_jitter(self.service_jitter)
        if self.explore_weight_ms is not None:  # checked even when e3 does not run
            RouterConfig(explore_weight_ms=self.explore_weight_ms)
        if self.warmup_budget < 0 or self.warmup_budget > max(self.horizon, 0):
            raise ExperimentError("warmup budget must be within [0, horizon]")
        if self.scenario != "warmup" and self.warmup_budget != 0:
            raise ExperimentError(
                f"{self.scenario} takes no warmup budget, got {self.warmup_budget}; "
                f"its budget is the {DYNAMIC_PREFIX_TASKS}-task settling prefix"
            )
        if not self.policies:
            raise ExperimentError(f"policies must name at least one of {sorted(POLICY_NAMES)}")
        for policy in self.policies:
            if policy not in POLICY_NAMES:
                raise ExperimentError(
                    f"unknown policy {policy!r}; valid: {sorted(POLICY_NAMES)}"
                )


@dataclass
class PolicyMetrics:
    avg_latency_ms: float
    vs_oracle_pct: float
    stutter_rate: float
    llm_calls: int
    tool_calls: int
    trajectory: list[tuple[int, float, float]] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "avg_latency_ms": self.avg_latency_ms,
            "vs_oracle_pct": self.vs_oracle_pct,
            "stutter_rate": self.stutter_rate,
            "llm_calls": self.llm_calls,
            "tool_calls": self.tool_calls,
            # The (k, raw, ma) tuples serialize as JSON arrays, so only the outer
            # list is copied: a new list per row made emit_report peak at 1.2x
            # the size of report.json (semantic, H=2000), the tuples at 0.4x.
            "trajectory": list(self.trajectory),
        }


@dataclass
class MetricsReport:
    scenario: str
    warmup_budget: int
    horizon: int
    lam: float
    prefix_end: int
    workload_sha256: str
    plan_sha256: str
    policies: dict[str, PolicyMetrics] = field(default_factory=dict)

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


@dataclass
class ExperimentResult:
    report: MetricsReport
    runs: dict[str, SimulationResult]
    audit: AuditLog | None
    agent: AdaptiveAgentPolicy | None
    event_log: list[str]


def smooth_ma(series: list[float], window: int = MA_WINDOW) -> list[float]:
    """Trailing moving average; output[k] covers the last min(window, k+1) points."""
    if window < 1:
        raise ValueError(f"window must be >= 1, got {window}")
    out = []
    running = 0.0
    for k, value in enumerate(series[:window]):
        running += value
        out.append(running / (k + 1))
    for k in range(window, len(series)):
        running += series[k]
        running -= series[k - window]
        out.append(running / window)
    return out


_task_id = attrgetter("task_id")


def compute_metrics(
    records_by_policy: dict[str, list[ExecutionRecord]],
    oracle_records: list[ExecutionRecord],
    meta_counts: dict[str, tuple[int, int]] | None = None,
    prefix_end: int = 0,
) -> dict[str, PolicyMetrics]:
    """Aggregate per-policy metrics against the reference run.

    Every policy must cover exactly the oracle's task ids (identical
    workloads); the oracle block reports a zero gap by definition.
    """
    meta_counts = meta_counts or {}
    oracle_ids = sorted(r.task_id for r in oracle_records)
    oracle_avg = (
        left_sum(r.latency_ms for r in oracle_records) / len(oracle_records)
        if oracle_records
        else 0.0
    )
    metrics: dict[str, PolicyMetrics] = {}
    for name, records in records_by_policy.items():
        ordered = sorted(records, key=_task_id)
        ids = list(map(_task_id, ordered))
        if ids != oracle_ids:
            raise ExperimentError(
                f"policy {name!r} covers {len(ids)} task(s) but the reference covers "
                f"{len(oracle_ids)}; record lists must match"
            )
        if not records:
            metrics[name] = PolicyMetrics(0.0, 0.0, 0.0, 0, 0, [])
            continue
        avg = left_sum(r.latency_ms for r in records) / len(records)
        if name == "oracle":
            vs = 0.0
        else:
            vs = (avg / oracle_avg - 1.0) * 100.0 if oracle_avg > 0 else 0.0
        stutter = sum(r.stutter for r in records) / len(records)
        llm_calls, tool_calls = meta_counts.get(name, (0, 0))
        latencies = [r.latency_ms for r in ordered]
        ma = smooth_ma(latencies, MA_WINDOW)
        trajectory = [
            (k, latencies[k], ma[k])
            for k in range(prefix_end, len(latencies), TRAJECTORY_SAMPLE_EVERY)
        ]
        metrics[name] = PolicyMetrics(avg, vs, stutter, llm_calls, tool_calls, trajectory)
    return metrics


def _workload_sha(workload: list[TaskSpec]) -> str:
    text = ";".join(
        f"{t.task_id},{t.kind},{t.arrival_time},{t.n_in},{t.n_out}" for t in workload
    )
    return hashlib.sha256(text.encode()).hexdigest()


def _plan_sha(plan: ScenarioPlan) -> str:
    text = ";".join(repr(e) for e in plan.events)
    return hashlib.sha256(text.encode()).hexdigest()


def _check_default_pool(priors: list[DevicePrior]) -> None:
    kinds = [p.kind for p in sorted(priors, key=lambda p: p.device_id)]
    if kinds != [LLM, LLM, SDXL, SDXL]:
        raise ExperimentError(
            "built-in scenario plans expect the 4-device pool "
            "(two LLM devices 0-1, two SDXL devices 2-3); "
            f"got kinds {kinds}"
        )


def build_agent(
    priors: list[DevicePrior],
    warmup_budget: int,
    adapter: AdapterConfig | None = None,
    transport=None,
    trace: list | None = None,
    router_config: RouterConfig | None = None,
) -> AdaptiveAgentPolicy:
    """Wire the controller (model, router config, risk mask), then the agent that routes on it."""
    opm = Opm()
    opm.seed(priors)
    meta = MetaController(
        opm,
        router_config or RouterConfig(),
        RiskOverrideTable(),
        warmup_budget=warmup_budget,
        adapter=adapter,
        transport=transport,
    )
    return AdaptiveAgentPolicy(meta, warmup_budget, trace)


def _build_policy(
    name: str, priors: list[DevicePrior], warmup_budget: int, config: ExperimentConfig
):
    if name == "e3":
        weight = config.explore_weight_ms
        router_config = RouterConfig() if weight is None else RouterConfig(explore_weight_ms=weight)
        return build_agent(
            priors,
            warmup_budget,
            adapter=config.adapter,
            transport=config.adapter_transport,
            trace=[] if config.trace_decisions else None,
            router_config=router_config,
        )
    if name == "fixed_heuristic":
        return FixedHeuristicPolicy(priors)
    if name == "round_robin":
        return RoundRobinPolicy()
    if name == "oracle":
        return OraclePolicy()
    raise ExperimentError(f"unknown policy {name!r}")


def run_experiment(config: ExperimentConfig) -> ExperimentResult:
    """Run one preset: shared workload and plan, one engine per policy."""
    profiles_path = config.profiles_path or default_profiles_path()
    records = load_profiles(profiles_path)
    if not records:
        raise ExperimentError(f"no usable profiles in {profiles_path}")
    priors = priors_from_records(records)

    if config.plan is not None:
        plan = config.plan
    else:
        plan = builtin_plans(config.scenario)
        if config.scenario != "warmup":
            _check_default_pool(priors)

    preset = PRESETS[config.scenario]
    prior_error = config.prior_error if config.prior_error is not None else preset["prior_error"]
    jitter = (
        config.service_jitter
        if config.service_jitter is not None
        else preset["service_jitter"]
    )
    warmup_budget = (
        config.warmup_budget if config.scenario == "warmup" else DYNAMIC_PREFIX_TASKS
    )
    prefix_end = 0 if config.scenario == "warmup" else DYNAMIC_PREFIX_TASKS

    workload = generate_workload(config.horizon, config.lam)
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
        result = ExperimentResult(report, {}, None, None, [])
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
        engine = Engine(truth, plan, workload, policy, leak_check=config.leak_check)
        runs[name] = engine.run()
        if name == "e3":
            agent = policy
            meta_counts[name] = (policy.meta.llm_calls, policy.meta.tool_calls)
        else:
            meta_counts[name] = (0, 0)
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

    event_log = runs[wanted[0]].event_log if wanted else []
    audit = agent.meta.audit if agent is not None else None
    result = ExperimentResult(report, {n: runs[n] for n in wanted}, audit, agent, event_log)
    if config.out_dir is not None:
        emit_report(result, config.out_dir)
    return result


def _write_lines(path: Path, lines: Iterable[str]) -> None:
    """Write each line followed by a newline."""
    with path.open("w", encoding="utf-8") as fh:
        fh.writelines(line + "\n" for line in lines)


def emit_report(result: ExperimentResult, out_dir: str | Path) -> list[Path]:
    """Write report.json, per-policy trajectory CSVs, events.log, audit.log.

    Every file but the few-line OPM snapshot is written piece by piece, never
    held whole as one string.
    Re-emitting the same result produces byte-identical files.
    """
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ExperimentError(f"cannot create output directory {out}: {exc}") from exc

    written: list[Path] = []
    report_path = out / "report.json"
    with report_path.open("w", encoding="utf-8") as fh:
        # json.dump writes the encoder's chunks as they come, never joining them.
        json.dump(result.report.to_dict(), fh, sort_keys=True, indent=2)
        fh.write("\n")
    written.append(report_path)

    for name, pm in sorted(result.report.policies.items()):
        if not pm.trajectory:
            continue
        path = out / f"trajectory_{name}.csv"
        rows = (f"{k},{raw:.6f},{ma:.6f}" for k, raw, ma in pm.trajectory)
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
