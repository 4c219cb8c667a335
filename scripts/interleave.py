"""Paired in-process CPU comparison of two checkouts on one perfbench workload.

Host speed on a shared machine drifts by a factor of two within seconds, so
two benchmark processes run minutes apart can disagree by more than a change
moves.  This script loads both checkouts' ``src/edgesched`` into one process,
under the distinct package names ``edgesched_parent`` and
``edgesched_change``, and alternates whole rounds between them (parent
first in even rounds, change first in odd ones), so each pair of rounds
sees nearly the same host.  A round is every experiment of the workload,
built from ``perfbench/inputs.py`` as ``perfbench/run.py`` builds it, with
each report written through ``emit_report`` to a temporary directory.

``--horizon N`` and ``--lam X`` override every experiment's horizon and
arrival rate (``event_dense`` builds its plan for that horizon), so one
workload can be swept over H without changing ``perfbench/``.

``--trace-decisions`` sets ``trace_decisions`` on every experiment of both
sides, so each also writes ``decisions.log`` (every fast-path decision's
scores and choice) and the file check covers the scores as well.  The
workloads write no decision trace by default.

``--setup`` times set-up instead, as ``perfbench/run.py`` measures
``setup_s``: a round is a fresh import of the side's package, its configs,
and every experiment up to its first ``Engine.run``.  Set-up writes no
files, so none are compared.

It prints each round's raw CPU seconds per side and their ratio, then the
median of the paired ratios (change over parent; below 1 means the change
is faster) and how many rounds the change won, and a last line of JSON with
the same figures.  It also checks that both sides wrote the same files with
the same bytes: every file ``emit_report`` writes (``report.json``,
``audit.log``, ``events.log``, the trajectory CSVs and
``opm_snapshot.txt``, and ``decisions.log`` under ``--trace-decisions``),
and names the first that differs.  Standard library only::

    python scripts/interleave.py --parent ../parent --change . --workload event_dense --seed 1 --rounds 16
    python scripts/interleave.py --parent ../parent --change . --workload overload --horizon 24000 --lam 2.0 --rounds 4
    python scripts/interleave.py --parent ../parent --change . --workload overload --trace-decisions --rounds 2
    python scripts/interleave.py --parent ../parent --change . --workload presets --setup --rounds 40
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import importlib.util
import json
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

import inputs  # noqa: E402

SIDES = ("parent", "change")


def load_package(checkout: Path, name: str):
    """Import ``checkout/src/edgesched`` as the package ``name``."""
    package_dir = checkout / "src" / "edgesched"
    spec = importlib.util.spec_from_file_location(
        name, package_dir / "__init__.py", submodule_search_locations=[str(package_dir)]
    )
    if spec is None:
        raise SystemExit(f"no edgesched package under {checkout / 'src'}")
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def build_configs(
    package,
    workload: str,
    seed: int,
    out_dir: Path,
    horizon: int | None = None,
    lam: float | None = None,
    trace_decisions: bool = False,
) -> list:
    """One round's ExperimentConfigs, built from ``package``'s own types.

    ``horizon`` and ``lam``, when given, replace every experiment's own;
    ``trace_decisions`` makes every experiment write its decision trace.
    """
    specs = inputs.experiment_specs(workload)
    for spec in specs:
        if horizon is not None:
            spec["horizon"] = horizon
        if lam is not None:
            spec["lam"] = lam
        if trace_decisions:
            spec["trace_decisions"] = True
    profiles = importlib.import_module(f"{package.__name__}.profiles")
    sim = importlib.import_module(f"{package.__name__}.sim")
    # default_profiles_path looks the package up as "edgesched", so each side names its own file.
    profiles_path = Path(package.__file__).parent / "data" / "device_profiles.jsonl"
    plan = None
    if workload == "event_dense":
        records = profiles.load_profiles(profiles_path)
        rows = inputs.dense_plan_rows(
            seed, profiles.priors_from_records(records), [r.model_id for r in records], specs[0]["horizon"]
        )
        plan = sim.plan_from_dicts(rows)
    return [
        package.ExperimentConfig(**spec, plan=plan, profiles_path=profiles_path, out_dir=out_dir / f"exp{i}")
        for i, spec in enumerate(specs)
    ]


def run_round(package, configs: list) -> float:
    """CPU seconds of one round's experiments, each after a full collection."""
    total = 0.0
    for config in configs:
        gc.collect()
        start = time.process_time()
        package.run_experiment(config)
        total += time.process_time() - start
    return total


class _SetupDone(Exception):
    """Raised from the first ``Engine.run`` to end a set-up round."""


def setup_round(checkout: Path, name: str, build) -> float:
    """CPU seconds of a fresh import of ``checkout``'s package as ``name``, the
    configs ``build(package)`` makes, and each experiment up to its first
    ``Engine.run``, after a full collection."""
    gc.collect()
    start = time.process_time()
    for module in [m for m in sys.modules if m == name or m.startswith(f"{name}.")]:
        del sys.modules[module]
    package = load_package(checkout, name)
    configs = build(package)
    engine = importlib.import_module(f"{name}.sim.engine").Engine
    original = engine.run

    def stop(self):
        raise _SetupDone

    engine.run = stop
    try:
        for config in configs:
            try:
                package.run_experiment(config)
            except _SetupDone:
                pass
    finally:
        engine.run = original
    return time.process_time() - start


def written_files(out_dir: Path) -> dict[str, str]:
    """The sha256 of every file under ``out_dir``, keyed by its relative path."""
    return {
        path.relative_to(out_dir).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(out_dir.rglob("*"))
        if path.is_file()
    }


def first_difference(parent: dict[str, str], change: dict[str, str]) -> str | None:
    """The first file, in path order, that one side lacks or wrote other bytes to."""
    for name in sorted(parent.keys() | change.keys()):
        if parent.get(name) != change.get(name):
            return name
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True, help="checkout to compare against")
    parser.add_argument("--change", type=Path, required=True, help="checkout under test")
    parser.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--rounds", type=int, default=16, help="rounds per side, at least 1")
    parser.add_argument("--horizon", type=int, help="every experiment's horizon, instead of the workload's")
    parser.add_argument("--lam", type=float, help="every experiment's arrival rate, instead of the workload's")
    parser.add_argument("--trace-decisions", action="store_true",
                        help="write and compare every experiment's decisions.log as well")
    parser.add_argument("--setup", action="store_true", help="time import and set-up, not the experiments")
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error(f"--rounds must be >= 1, got {args.rounds}")

    with tempfile.TemporaryDirectory() as tmp:
        checkouts = {side: getattr(args, side).resolve() for side in SIDES}

        def build(package, side):
            return build_configs(
                package, args.workload, args.seed, Path(tmp) / side, args.horizon, args.lam, args.trace_decisions
            )

        packages, configs = {}, {}
        if not args.setup:
            for side in SIDES:
                packages[side] = load_package(checkouts[side], f"edgesched_{side}")
                configs[side] = build(packages[side], side)
        cpu: dict[str, list[float]] = {side: [] for side in SIDES}
        for r in range(args.rounds):
            order = SIDES if r % 2 == 0 else SIDES[::-1]
            for side in order:
                if args.setup:
                    cpu[side].append(setup_round(checkouts[side], f"edgesched_{side}", lambda p: build(p, side)))
                else:
                    cpu[side].append(run_round(packages[side], configs[side]))
            ratio = cpu["change"][-1] / cpu["parent"][-1]
            print(
                f"round {r:3d} first={order[0]:6s} parent {cpu['parent'][-1]:.4f} s"
                f"  change {cpu['change'][-1]:.4f} s  ratio {ratio:.4f}"
            )
        files = {side: written_files(Path(tmp) / side) for side in SIDES}
    differs = first_difference(files["parent"], files["change"])
    identical = None if args.setup else differs is None

    ratios = [c / p for p, c in zip(cpu["parent"], cpu["change"])]
    wins = sum(ratio < 1.0 for ratio in ratios)
    median = statistics.median(ratios)
    print(f"median paired ratio {median:.4f}; change faster in {wins} of {len(ratios)} rounds")
    if args.setup:
        print("set-up writes no files")
    elif identical:
        print(f"all {len(files['change'])} written files identical")
    else:
        print(f"written files differ, first: {differs}")
    print(
        json.dumps(
            {
                "workload": args.workload,
                "seed": args.seed,
                "horizon": args.horizon,
                "lam": args.lam,
                "trace_decisions": args.trace_decisions,
                "setup": args.setup,
                "rounds": args.rounds,
                "parent_cpu_s": cpu["parent"],
                "change_cpu_s": cpu["change"],
                "median_ratio": median,
                "change_faster_rounds": wins,
                "artifacts_identical": identical,
                "compared_files": sorted(files["change"]),
                "first_difference": differs,
            }
        )
    )
    return 1 if identical is False else 0


if __name__ == "__main__":
    sys.exit(main())
