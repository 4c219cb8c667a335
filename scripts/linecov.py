"""Dead-line check: every ``src/`` statement runs under tier-1 or a CLI run.

A stdlib line tracer (``sys.settrace``; no package, no network).  It runs
tier-1 in-process, then the six presets through ``edgesched.cli.main``, each
at the default settings and again at ``--horizon 600 --lambda 2.0
--trace-decisions``, with artifacts written to a temporary directory.  It
prints the ``src/**/*.py`` line count, the ``src/edgesched`` statements that
none of these runs executes, then those that only tier-1 executes, counted
by class (a raise's own, or its scope's in :data:`SCOPES`), and exits nonzero
when tier-1 fails, a never-run statement is not on :data:`ALLOWLIST`, a
tier-1-only statement has no class, or an entry of either table matches no
statement.

A statement is counted once, at its first line, and runs when any line of it
(for a compound statement, of its header) does.  Lines in a subprocess that a
test starts are not seen.  The trace makes tier-1 about five times slower, so
it stays out of tier-1::

    python scripts/linecov.py
"""

from __future__ import annotations

import ast
import os
import sys
import tempfile
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
PACKAGE = SRC / "edgesched"

# (file under src/, enclosing scope, first line of the statement) -> why no
# run can reach it.  Only a statement that no call can reach belongs here: an
# error that a caller can provoke, even by calling a class directly, gets a
# test instead.
ALLOWLIST: dict[tuple[str, str, str], str] = {
    ("edgesched/router.py", "", "from .metacontrol import MetaController"):
        "annotation-only import under TYPE_CHECKING: metacontrol imports router at run time",
    ("edgesched/cli.py", "", "sys.exit(main())"):
        "runs only as `python -m edgesched.cli`, which "
        "tests/test_harness.py::test_cli_module_runs_as_a_program starts in a subprocess "
        "that the trace does not see",
    ("edgesched/sim/engine.py", "Engine._complete",
     'raise EngineError(f"completion event for idle device {device}")'):
        "the heap holds one completion per started task, and only _complete clears in_flight",
}

CONTRACT = "contract rejection"
INVARIANT = "engine invariant error"
ADAPTER = "external adapter"
REFERENCE = "test reference"
OTHER = "other"
CLASSES = (CONTRACT, INVARIANT, ADAPTER, REFERENCE, OTHER)

# A raise of one of these is an engine invariant error: an engine fault or a
# policy or controller never attached to a run (the two helpers build an
# EngineError).  Any other raise rejects an input.
INVARIANT_ERRORS = frozenset({"EngineError", "RuntimeError", "_stale_view", "_misrouted"})

# (file under src/, enclosing scope) -> (class, why only tier-1 runs it), for
# the tier-1-only statements that are no raise and in no block that ends in
# one.  An "other" entry says why a shipped run needs the scope's
# tier-1-only lines even though the preset runs do not reach them.
SCOPES: dict[tuple[str, str], tuple[str, str]] = {
    ("edgesched/metacontrol.py", "MetaController._check"): (CONTRACT, "the message of a rejected tool call"),
    ("edgesched/metacontrol.py", "MetaController._reject"): (CONTRACT, "audits and answers a rejected tool call"),
    ("edgesched/metacontrol.py", "MetaController.execute_tool"): (CONTRACT, "hands a rejected call to _reject"),
    ("edgesched/opm.py", "UnknownDeviceError.__init__"): (CONTRACT, "the message of an unknown device or kind"),
    ("edgesched/profiles.py", "is_finite_number"): (CONTRACT, "a rule's answer for a bool or a non-number"),
    ("edgesched/profiles.py", "model_kind"): (CONTRACT, "an unknown model name, which each caller rejects"),
    ("edgesched/cli.py", "main"): (CONTRACT, "the one `error:` line and exit status 1 of a rejected input"),
    ("edgesched/sim/engine.py", "_stale_view"): (INVARIANT, "builds the error of a view read after its decision"),
    ("edgesched/sim/engine.py", "Engine._misrouted"): (INVARIANT, "builds the error of a choice no device can take"),
    ("edgesched/metacontrol.py", "llm_adapter_invoke"): (ADAPTER, "the adapter's request loop"),
    ("edgesched/metacontrol.py", "_default_transport"): (ADAPTER, "the adapter's HTTP request"),
    ("edgesched/metacontrol.py", "_parse_tool_calls"): (ADAPTER, "reads the adapter's reply"),
    ("edgesched/metacontrol.py", "_tool_catalog"): (ADAPTER, "the tool list each adapter request carries"),
    ("edgesched/metacontrol.py", "AdapterConfig.__init__"): (ADAPTER, "an adapter's endpoint"),
    ("edgesched/harness.py", "_build_policy"): (ADAPTER, "binds an adapter's endpoint and transport into a controller"),
    ("edgesched/metacontrol.py", "MetaController._tool_pull_observations"): (ADAPTER, "a tool only an adapter calls"),
    ("edgesched/metacontrol.py", "MetaController._tool_update_calibration"): (ADAPTER, "a tool only an adapter calls"),
    ("edgesched/metacontrol.py", "MetaController._tool_set_router_params"): (ADAPTER, "a tool only an adapter calls"),
    ("edgesched/sim/engine.py", "Telemetry.observations"): (ADAPTER, "pull_observations' rows"),
    ("edgesched/sim/engine.py", "ExecutionRecord.service_ms"): (ADAPTER, "a key of pull_observations' rows"),
    ("edgesched/opm.py", "Opm.apply_calibration"): (ADAPTER, "update_calibration's model change"),
    ("edgesched/router.py", "RouterConfig.to_dict"): (ADAPTER, "set_router_params' answer"),
    ("edgesched/opm.py", "replay_oplog"): (REFERENCE, "the bit-exact replay tests compare the model with"),
    ("edgesched/opm.py", "Opm.snapshot_table"): (REFERENCE, "the table a replay is compared by"),
    ("edgesched/router.py", "RiskOverrideTable.is_risky"): (REFERENCE, "read by tests and perfbench's risk-gate hook"),
    ("edgesched/sim/engine.py", "ObservableState.queue_tail"):
        (REFERENCE, "a view built by hand (tests, demo 03); a run hands policies a DecisionView"),
    ("edgesched/sim/engine.py", "ObservableState.available_devices"):
        (REFERENCE, "a view built by hand (tests, demo 03); a run hands policies a DecisionView"),
    ("edgesched/cli.py", "_load_config_file"): (OTHER, "the --config path: reads a config file"),
    ("edgesched/cli.py", "_check_keys"): (OTHER, "the --config path: a config file's keys"),
    ("edgesched/cli.py", "_merge"):
        (OTHER, "a config file's fields, --policies and the adapter flags"),
    ("edgesched/cli.py", "_parse_prior_error"): (OTHER, "a config file's prior_error"),
    ("edgesched/harness.py", "ExperimentConfig.__init__"):
        (OTHER, "a prior_error or service_jitter set by the caller (a config file, --jitter)"),
    ("edgesched/harness.py", "run_experiment"):
        (OTHER, "a config file's plan, horizon == 0 (the report alone), a policy list without the oracle"),
    ("edgesched/harness.py", "emit_report"): (OTHER, "a policy with an empty trajectory: no task past the prefix"),
    ("edgesched/metacontrol.py", "evaluate_triggers"):
        (OTHER, "cooldown suppression: the same signature again within ANOMALY_COOLDOWN tasks"),
    ("edgesched/opm.py", "solve_token_coefficients"):
        (OTHER, "the ridge fallback's second step, for a design still singular after damping"),
    ("edgesched/opm.py", "Opm.drift_ratio"):
        (OTHER, "windows only compute_drift can ask for: none at all, zero predictions"),
    ("edgesched/profiles.py", "load_profiles"):
        (OTHER, "profile files with blank lines or non-SingleStream rows, which are skipped"),
    ("edgesched/router.py", "select_e3"): (OTHER, "no available device of the task's kind"),
    ("edgesched/router.py", "select_oracle"): (OTHER, "no available device of the task's kind"),
    ("edgesched/router.py", "RoundRobinPolicy.choose"): (OTHER, "no available device of the task's kind"),
    ("edgesched/sim/engine.py", "DecisionView.devices"):
        (OTHER, "a policy's whole-pool read (README, What a policy sees); the shipped policies read tails"),
    ("edgesched/sim/engine.py", "Engine._snapshot"):
        (OTHER, "builds the snapshots of a whole-pool read (DecisionView.devices); the shipped policies read tails"),
    ("edgesched/sim/engine.py", "Engine._flush_pending"):
        (OTHER, "the pending buffer: tasks wait while no device of their kind is available"),
    ("edgesched/sim/engine.py", "Engine._route"):
        (OTHER, "the pending buffer: tasks wait while no device of their kind is available"),
    ("edgesched/sim/engine.py", "Engine.run"): (OTHER, "plan events after the last arrival, while the queues drain"),
    ("edgesched/sim/truth.py", "plan_from_dicts"): (OTHER, "a plan given as rows (a config file, perfbench)"),
}

PRESETS = (
    ["--scenario", "warmup", "--warmup", "0"],
    ["--scenario", "warmup", "--warmup", "30"],
    ["--scenario", "warmup", "--warmup", "100"],
    ["--scenario", "semantic"],
    ["--scenario", "churn"],
    ["--scenario", "drift"],
)
LOADED = ["--horizon", "600", "--lambda", "2.0", "--trace-decisions"]


def _rel(path: str) -> str:
    return Path(path).relative_to(SRC).as_posix()


def _bytecode_lines(code) -> set[int]:
    lines = {line for _start, _end, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= _bytecode_lines(const)
    return lines


def _header_end(node: ast.stmt) -> int:
    """Last line of a statement's own code: for a compound one, its header."""
    bodies = [
        getattr(node, name)
        for name in ("body", "orelse", "handlers", "finalbody", "cases")
        if getattr(node, name, None)
    ]
    if not bodies:
        return node.end_lineno
    return min(child.lineno for body in bodies for child in body) - 1


_SIMPLE = (ast.Assign, ast.AnnAssign, ast.AugAssign, ast.Expr)


def _raise_class(node: ast.Raise) -> str:
    """Whether a raise is an engine invariant error or a contract rejection."""
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    name = getattr(exc, "id", None) or getattr(exc, "attr", None)
    return INVARIANT if name in INVARIANT_ERRORS else CONTRACT


def statements(path: Path) -> dict[int, tuple[int, str, str | None]]:
    """Map each line of a statement that compiles to bytecode to the
    statement's first line, the qualified name of the scope it is in, and
    its class when it raises or is a simple statement in a block that ends
    in a raise (it builds that error), else None."""
    text = path.read_text(encoding="utf-8")
    compiled = _bytecode_lines(compile(text, str(path), "exec"))
    owner: dict[int, tuple[int, str, str | None]] = {}

    def visit(body: list, scope: str) -> None:
        block = _raise_class(body[-1]) if body and isinstance(body[-1], ast.Raise) else None
        for index, node in enumerate(body):
            is_docstring = (
                index == 0
                and isinstance(node, ast.Expr)
                and isinstance(node.value, ast.Constant)
                and isinstance(node.value.value, str)
            )
            if isinstance(node, ast.stmt) and not is_docstring:
                decorators = getattr(node, "decorator_list", ())
                first = min([node.lineno] + [d.lineno for d in decorators])
                span = range(first, max(_header_end(node), first) + 1)
                if compiled.intersection(span):
                    if isinstance(node, ast.Raise):
                        cls = _raise_class(node)
                    else:  # a simple statement before the raise builds its error
                        cls = block if isinstance(node, _SIMPLE) else None
                    for line in span:
                        owner[line] = (first, scope, cls)
            inner = scope
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = f"{scope}.{node.name}" if scope else node.name
            for name in ("body", "orelse", "finalbody"):
                visit(getattr(node, name, None) or [], inner)
            for handler in getattr(node, "handlers", ()):
                visit(handler.body, inner)
            for case in getattr(node, "cases", ()):
                visit(case.body, inner)

    visit(ast.parse(text).body, "")
    return owner


class LineTracer:
    """Collects (file, line) pairs executed under ``PACKAGE`` into ``hits``."""

    def __init__(self) -> None:
        self.prefix = str(PACKAGE) + os.sep
        self.hits: set[tuple[str, int]] = set()

    def _local(self, frame, event, _arg):
        if event == "line":
            self.hits.add((frame.f_code.co_filename, frame.f_lineno))
        return self._local

    def _global(self, frame, _event, _arg):
        if frame.f_code.co_filename.startswith(self.prefix):
            self.hits.add((frame.f_code.co_filename, frame.f_lineno))
            return self._local
        return None

    def start(self) -> None:
        threading.settrace(self._global)
        sys.settrace(self._global)

    def stop(self) -> None:
        sys.settrace(None)
        threading.settrace(None)


def run_tier1(tracer: LineTracer) -> int:
    import pytest

    tracer.start()
    try:
        return int(pytest.main(["-q", "--continue-on-collection-errors", str(ROOT)]))
    finally:
        tracer.stop()


def run_cli(tracer: LineTracer) -> None:
    """Import the package afresh under the trace and run the twelve presets."""
    for name in [m for m in sys.modules if m == "edgesched" or m.startswith("edgesched.")]:
        del sys.modules[name]
    with tempfile.TemporaryDirectory() as out:
        tracer.start()
        try:
            from edgesched.cli import main

            for i, preset in enumerate(PRESETS):
                for j, extra in enumerate(([], LOADED)):
                    argv = ["run", *preset, *extra, "--out", f"{out}/{i}-{j}"]
                    if main(argv) != 0:
                        raise SystemExit(f"edgesched {' '.join(argv)} failed")
        finally:
            tracer.stop()


def _executed(
    hits: set[tuple[str, int]], owners: dict[str, dict[int, tuple[int, str, str | None]]]
) -> set[tuple[str, int]]:
    """The (file, first line) of every statement that a hit line belongs to."""
    done = set()
    for filename, line in hits:
        rel = _rel(filename)
        owner = owners.get(rel, {}).get(line)
        if owner is not None:
            done.add((rel, owner[0]))
    return done


def report(status: int, test_hits: set[tuple[str, int]], cli_hits: set[tuple[str, int]]) -> int:
    """Print the counts, the never-run statements and the tier-1-only ones by
    class; return the exit status."""
    owners, keys, hints, total_lines = {}, {}, {}, 0
    for path in sorted(PACKAGE.rglob("*.py")):
        rel = _rel(str(path))
        owners[rel] = statements(path)
        text = path.read_text(encoding="utf-8")
        total_lines += text.count("\n")  # as `wc -l` counts them
        source = text.splitlines()
        for first, scope, hint in owners[rel].values():
            keys[(rel, first)] = (rel, scope, source[first - 1].strip())
            hints[(rel, first)] = hint
    by_tests, by_cli = _executed(test_hits, owners), _executed(cli_hits, owners)
    never = sorted(set(keys) - by_tests - by_cli)
    only_tests = sorted(by_tests - by_cli)

    print(f"\n{len(keys)} statements in src/edgesched ({total_lines} lines of src/**/*.py): "
          f"{len(never)} never run, {len(only_tests)} run only under tier-1")
    print("\nNever run:")
    matched = [keys[stmt] for stmt in never]
    failures = 0
    for stmt, key in zip(never, matched):
        reason = ALLOWLIST.get(key)
        if matched.count(key) > 1:
            reason = None  # one entry may not excuse two statements
        print(f"  src/{stmt[0]}:{stmt[1]} ({key[1]}): {key[2]}")
        print(f"      allowed: {reason}" if reason else "      NOT ON THE ALLOWLIST")
        failures += reason is None
    for rel, scope, text in sorted(set(ALLOWLIST) - set(matched)):
        print(f"  stale allowlist entry: src/{rel} ({scope}): {text}")
        failures += 1

    # A raise, or a simple statement in a block that ends in one, takes the
    # raise's class; any other statement its scope's entry in SCOPES.
    # class -> (file, scope, reason) -> first lines
    groups: dict[str, dict[tuple[str, str, str], list[int]]] = {}
    used = set()
    for stmt in only_tests:
        key = keys[stmt]
        if hints[stmt] is not None:
            cls, reason = hints[stmt], ""
        elif (stmt[0], key[1]) in SCOPES:
            used.add((stmt[0], key[1]))
            cls, reason = SCOPES[(stmt[0], key[1])]
        else:
            print(f"  NO CLASS: src/{stmt[0]}:{stmt[1]} ({key[1]}): {key[2]}")
            failures += 1
            continue
        where = (stmt[0], key[1], reason) if cls == OTHER else (stmt[0], "", "")
        groups.setdefault(cls, {}).setdefault(where, []).append(stmt[1])
    for rel, scope in sorted(set(SCOPES) - used):
        print(f"  stale scope entry: src/{rel} ({scope})")
        failures += 1
    print("\nRun only under tier-1, by class:")
    for cls in CLASSES:
        places = groups.get(cls, {})
        print(f"  {cls} ({sum(map(len, places.values()))}):")
        for (rel, scope, reason), lines in sorted(places.items()):
            named = f" ({scope})" if scope else ""
            print(f"    src/{rel}{named} ({len(lines)}): {', '.join(map(str, lines))}")
            if reason:
                print(f"        {reason}")
    if status != 0:
        print(f"\ntier-1 failed (pytest exit status {status})")
    return 1 if status or failures else 0


def main() -> int:
    sys.path.insert(0, str(SRC))
    os.chdir(ROOT)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p
    )
    tests, cli = LineTracer(), LineTracer()
    status = run_tier1(tests)
    run_cli(cli)
    return report(status, tests.hits, cli.hits)


if __name__ == "__main__":
    sys.exit(main())
