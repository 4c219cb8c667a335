"""The README's command-line and config-file reference matches the CLI."""

import re
from pathlib import Path

from edgesched.cli import _FILE_KEYS, _build_parser

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def _run_options() -> set[str]:
    [subparsers] = [a for a in _build_parser()._actions if a.choices and "run" in a.choices]
    return {s for action in subparsers.choices["run"]._actions for s in action.option_strings}


def test_every_run_flag_in_the_readme_exists():
    # pip's flags share the README; only lines that do not invoke pip are checked.
    lines = [line for line in README.splitlines() if "pip " not in line]
    named = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", "\n".join(lines)))
    assert "--trace-decisions" in named
    assert sorted(named - _run_options()) == []


def test_readme_lists_exactly_the_config_file_keys():
    sentence = re.search(r"accepts only these top-level keys:(.*?)\.\s", README, re.S)
    assert sentence is not None
    assert re.findall(r"`(\w+)`", sentence.group(1)) == list(_FILE_KEYS)
