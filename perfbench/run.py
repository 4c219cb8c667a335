"""edgesched benchmark: runs one workload and prints its metrics.

    python3 perfbench/run.py --workload presets --seed 1 --seconds 30 --trace 0

Runs the named workload (see ``inputs.py``) from the checkout's ``src/``
tree: experiments back to back in one single-threaded process (a closed
loop), each one ``run_experiment`` over all four policies with its report
written through ``emit_report``.  Inside an experiment the simulated arrival
stream is an open loop at a fixed rate.  Every experiment is checked (see
``checks.py``) and repeated rounds must reproduce ``report.json`` and
``audit.log`` byte for byte.

With ``--trace 0`` the last stdout line carries the end-to-end metrics.
With ``--trace 1`` rounds alternate between untraced and traced (layer
boundaries wrapped, see ``layers.py``) and the last line carries the
per-layer metrics, including the tracing overhead.  Details (machine,
artifact sha256s, check failures, oracle-not-lowest counts) go to
``perfbench/out/`` and to the line before the last.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

import checks
import inputs
import layers
from hostspeed import HostScale
from spans import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# Set-up is repeated this many times per run and reported as the median.
SETUP_REPEATS = 20
# Measured time never exceeds this, so a run ends well inside 180 s.
MAX_SECONDS = 120.0


class _SetupDone(Exception):
    """Raised from the first ``Engine.run`` to end a set-up measurement."""


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _fresh_import():
    """Import ``edgesched`` from this checkout, dropping any earlier import."""
    for name in [m for m in sys.modules if m == "edgesched" or m.startswith("edgesched.")]:
        del sys.modules[name]
    package = importlib.import_module("edgesched")
    if Path(package.__file__).resolve().parent != (SRC / "edgesched").resolve():
        raise RuntimeError(f"edgesched imported from {package.__file__}, not from {SRC}")
    return package


def _configs(workload: str, seed: int, out_dir: Path) -> list:
    """ExperimentConfig objects of one round, built from the current import."""
    from edgesched.harness import ExperimentConfig
    from edgesched.profiles import default_profiles_path, load_profiles, priors_from_records
    from edgesched.sim import plan_from_dicts

    plan = None
    if workload == "event_dense":
        records = load_profiles(default_profiles_path())
        rows = inputs.dense_plan_rows(seed, priors_from_records(records), [r.model_id for r in records])
        plan = plan_from_dicts(rows)
    return [
        ExperimentConfig(**spec, plan=plan, out_dir=out_dir / f"exp{i}")
        for i, spec in enumerate(inputs.experiment_specs(workload))
    ]


def measure_setup(workload: str, seed: int, out_dir: Path, host: HostScale) -> tuple[list[float], list[float], list]:
    """CPU time of import plus every experiment of a round up to its first Engine.run.

    That covers loading and converting the profiles, building the plan and
    generating the workload.  Returns the raw and host-scaled per-repeat
    times and the configs built by the last repeat, whose import the run
    then uses.
    """
    times = []
    scaled: list[float] = []
    configs = []
    for _ in range(SETUP_REPEATS):
        gc.collect()
        start = time.process_time()
        _fresh_import()
        from edgesched import harness
        from edgesched.sim.engine import Engine

        configs = _configs(workload, seed, out_dir)
        original = Engine.run

        def stop(self):
            raise _SetupDone

        Engine.run = stop
        try:
            for config in configs:
                try:
                    harness.run_experiment(config)
                except _SetupDone:
                    pass
        finally:
            Engine.run = original
        times.append(time.process_time() - start)
        host.add(scaled, times[-1])
        host.tick()
    host.tick(force=True)
    return times, scaled, configs


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _pct(values, p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * p // 100))
    return float(ordered[int(rank) - 1])


def _machine() -> dict:
    cpu_model = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model or platform.processor(),
    }


OUTCOME_UNITS = {
    "e3_latency_ms_p50": "sim_ms",
    "e3_latency_ms_p99": "sim_ms",
    "e3_over_oracle_ratio": "ratio",
    "e3_stutter_free_rate": "ratio",
    "e3_meta_invocations": "count",
    "e3_tool_calls": "count",
    "oracle_latency_ms_mean": "sim_ms",
}


class Outcomes:
    """Simulated outcomes of one round, pooled over its experiments."""

    def __init__(self) -> None:
        self.e3_latency: list[float] = []
        self.e3_sum = 0.0
        self.oracle_sum = 0.0
        self.e3_stutter = 0
        self.invocations = 0
        self.tool_calls = 0

    def add(self, result) -> None:
        e3 = result.runs["e3"].records
        self.e3_latency.extend(r.latency_ms for r in e3)
        self.e3_sum += sum(r.latency_ms for r in e3)
        self.oracle_sum += sum(r.latency_ms for r in result.runs["oracle"].records)
        self.e3_stutter += sum(r.stutter for r in e3)
        self.invocations += result.report.policies["e3"].llm_calls
        self.tool_calls += result.report.policies["e3"].tool_calls

    def metrics(self) -> dict[str, tuple[float, str]]:
        n = len(self.e3_latency)
        if not n or not self.oracle_sum:
            return {name: (0.0, unit) for name, unit in OUTCOME_UNITS.items()}
        return {
            "e3_latency_ms_p50": (_pct(self.e3_latency, 50), "sim_ms"),
            "e3_latency_ms_p99": (_pct(self.e3_latency, 99), "sim_ms"),
            "e3_over_oracle_ratio": (self.e3_sum / self.oracle_sum, "ratio"),
            "e3_stutter_free_rate": (1.0 - self.e3_stutter / n, "ratio"),
            "e3_meta_invocations": (float(self.invocations), "count"),
            "e3_tool_calls": (float(self.tool_calls), "count"),
            "oracle_latency_ms_mean": (self.oracle_sum / n, "sim_ms"),
        }


def run(args) -> tuple[dict, dict, bool, int, int]:
    run_dir = OUT / f"run-{os.getpid()}"
    host = HostScale()
    setup_raw, setup_times, configs = measure_setup(args.workload, args.seed, run_dir, host)
    from edgesched import harness

    tracer = Tracer() if args.trace else None
    outcomes = Outcomes()
    digests: dict[int, dict[str, str]] = {}
    failures: list[str] = []
    oracle_not_lowest = 0
    attempted = failed = 0
    times = {False: [], True: []}  # host-scaled CPU seconds per experiment
    cpu_times = {False: [], True: []}
    wall_times = []
    completions = {False: 0, True: 0}
    traced_experiments = 0
    limit = min(args.seconds, MAX_SECONDS)
    start = time.perf_counter()
    round_no = 0
    try:
        while round_no < 2 or time.perf_counter() - start < limit:
            traced = bool(args.trace) and round_no % 2 == 1
            if traced:
                layers.install(tracer)
            try:
                for i, config in enumerate(configs):
                    attempted += 1
                    if tracer is not None:
                        tracer.request[:] = [args.workload, attempted, "", -1]
                    gc.collect()
                    try:
                        wall0, cpu0 = time.perf_counter(), time.process_time()
                        result = harness.run_experiment(config)
                        cpu = time.process_time() - cpu0
                        wall = time.perf_counter() - wall0
                    except Exception:
                        failed += 1
                        failures.append(f"round {round_no} exp {i}: {traceback.format_exc(limit=3)}")
                        continue
                    problems = checks.check_runs(result, config.horizon)
                    out = Path(config.out_dir)
                    got = {"report.json": _sha256(out / "report.json"), "audit.log": _sha256(out / "audit.log")}
                    first = digests.setdefault(i, got)
                    if got != first:
                        problems.append("repeated experiment changed report.json or audit.log")
                    beaten = checks.oracle_beaten_by(result)
                    if round_no == 0:
                        outcomes.add(result)
                        oracle_not_lowest += bool(beaten)
                        if beaten and args.workload == "presets":
                            problems.append(f"oracle mean latency is above {beaten}")
                    if problems:
                        failed += 1
                        failures.extend(f"round {round_no} exp {i}: {p}" for p in problems)
                    host.add(times[traced], cpu)
                    cpu_times[traced].append(cpu)
                    wall_times.append(wall)
                    completions[traced] += sum(len(r.records) for r in result.runs.values())
                    if traced:
                        traced_experiments += 1
                        emitted = sum(p.stat().st_size for p in out.iterdir())
                        layers.after_experiment(tracer, result, emitted)
                    del result
                    host.tick()
            finally:
                if traced:
                    tracer.restore()
            round_no += 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    host.tick(force=True)

    all_times = times[False]
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": _machine(),
        "rounds": round_no,
        "experiments": attempted,
        "failed": failed,
        "failures": failures[:20],
        "setup_s_samples": setup_times,
        "setup_cpu_s": setup_raw,
        "reference_cpu_s": host.references,
        "experiment_s_samples": len(all_times),
        "experiment_s": times[False],
        "experiment_cpu_s": cpu_times[False],
        "traced_experiment_cpu_s": cpu_times[True],
        "experiment_wall_s": wall_times,
        "experiment_wall_s_p50": statistics.median(wall_times) if wall_times else 0.0,
        "oracle_not_lowest": oracle_not_lowest,
        "artifact_sha256": {f"exp{i}": d for i, d in sorted(digests.items())},
    }
    if len(all_times) >= 100:
        detail["experiment_s_p90"] = _pct(all_times, 90)
    if args.workload == "event_dense":
        detail["plan_events"] = len(configs[0].plan.events)

    def rate(traced):
        return completions[traced] / sum(times[traced]) if times[traced] else 0.0

    if args.trace:
        overhead = (rate(False) / rate(True) - 1.0) * 100.0 if rate(True) else 0.0
        metrics = layers.per_layer_metrics(tracer, traced_experiments, overhead)
        OUT.mkdir(exist_ok=True)
        spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracer.write_spans(spans_path)
        detail["spans"] = {"file": str(spans_path.relative_to(ROOT)), "kept": len(tracer.spans), "dropped": tracer.dropped}
        detail["traced_experiments"] = traced_experiments
    else:
        metrics = {
            "setup_s": (statistics.median(setup_times), "s"),
            "task_runs_per_s": (rate(False), "1/s"),
            "experiment_s_p50": (statistics.median(all_times) if all_times else 0.0, "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            "experiments_ok_ratio": ((attempted - failed) / attempted, "ratio"),
        }
        metrics.update(outcomes.metrics())
    return metrics, detail, failed == 0, attempted, failed


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (SRC / "edgesched" / "__init__.py").is_file():
        print(f"perfbench: {SRC}/edgesched not found; run from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    metrics, detail, correct, attempted, failed = run(args)
    OUT.mkdir(exist_ok=True)
    detail_path = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    detail_path.write_text(json.dumps(detail, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value:>18.6f} {unit}")
    print(json.dumps(detail, sort_keys=True))
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
