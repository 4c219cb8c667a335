"""Dead-line check: every ``src/`` statement runs under tier-1 or a CLI run.

A stdlib line tracer (``sys.settrace``; no package, no network).  It runs
tier-1 in-process, then the six presets through ``edgesched.cli.main``, each
at the default settings and again at ``--horizon 600 --lambda 2.0
--trace-decisions``, with artifacts written to a temporary directory.  It
prints the ``src/**/*.py`` line count, the ``src/edgesched`` statements that
none of these runs executes, then those that only tier-1 executes, and exits
nonzero when tier-1 fails, a never-run statement is not on
:data:`ALLOWLIST`, or an allowlist entry names no never-run statement.

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


def statements(path: Path) -> dict[int, tuple[int, str]]:
    """Map each line of a statement that compiles to bytecode to the
    statement's first line and the qualified name of the scope it is in."""
    text = path.read_text(encoding="utf-8")
    compiled = _bytecode_lines(compile(text, str(path), "exec"))
    owner: dict[int, tuple[int, str]] = {}

    def visit(body: list, scope: str) -> None:
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
                    for line in span:
                        owner[line] = (first, scope)
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
    hits: set[tuple[str, int]], owners: dict[str, dict[int, tuple[int, str]]]
) -> set[tuple[str, int]]:
    """The (file, first line) of every statement that a hit line belongs to."""
    done = set()
    for filename, line in hits:
        rel = _rel(filename)
        owner = owners.get(rel, {}).get(line)
        if owner is not None:
            done.add((rel, owner[0]))
    return done


def main() -> int:
    sys.path.insert(0, str(SRC))
    os.chdir(ROOT)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p
    )
    tests, cli = LineTracer(), LineTracer()
    status = run_tier1(tests)
    run_cli(cli)

    owners, keys, total_lines = {}, {}, 0
    for path in sorted(PACKAGE.rglob("*.py")):
        rel = _rel(str(path))
        owners[rel] = statements(path)
        text = path.read_text(encoding="utf-8")
        total_lines += text.count("\n")  # as `wc -l` counts them
        source = text.splitlines()
        for first, scope in owners[rel].values():
            keys[(rel, first)] = (rel, scope, source[first - 1].strip())
    by_tests, by_cli = _executed(tests.hits, owners), _executed(cli.hits, owners)
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
    print("\nRun only under tier-1:")
    for rel in sorted({rel for rel, _line in only_tests}):
        lines = [line for r, line in only_tests if r == rel]
        print(f"  src/{rel} ({len(lines)}): {', '.join(map(str, lines))}")
    if status != 0:
        print(f"\ntier-1 failed (pytest exit status {status})")
    return 1 if status or failures else 0


if __name__ == "__main__":
    sys.exit(main())
