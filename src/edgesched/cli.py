"""Command-line front end for the experiment harness.

    edgesched run --scenario semantic --policies e3,oracle --out results/

Flags override a JSON config file field-by-field.  Exit code 0 on success,
nonzero with a one-line reason otherwise.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from collections.abc import Collection
from pathlib import Path

from .harness import (
    POLICY_NAMES,
    SCENARIOS,
    ExperimentConfig,
    ExperimentError,
    run_experiment,
)
from .metacontrol import AdapterConfig
from .profiles import ProfileError, check
from .sim.truth import PlanError, plan_from_dicts


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="edgesched")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run one experiment preset")
    run.add_argument("--config", type=Path, help="JSON config file; flags override it")
    run.add_argument("--scenario", choices=SCENARIOS)
    run.add_argument("--warmup", type=int, help="warmup budget W (warmup scenario)")
    run.add_argument(
        "--policies", help=f"comma-separated subset of {','.join(POLICY_NAMES)}"
    )
    # Paths stay strings, so ExperimentConfig sees an empty one (Path("") is ".").
    run.add_argument("--profiles", help="device profile JSONL path")
    run.add_argument("--out", help="output directory for report artifacts")
    run.add_argument("--horizon", type=int)
    run.add_argument("--lambda", dest="lam", type=float, help="arrival rate, tasks/s")
    run.add_argument("--jitter", type=float, help="service jitter amplitude override")
    run.add_argument("--trace-decisions", action="store_true", default=None)
    run.add_argument("--adapter-url", help="external controller endpoint URL")
    run.add_argument("--adapter-model", help="external controller model name")
    run.add_argument(
        "--adapter-key-env", help="environment variable holding the adapter API key"
    )
    run.add_argument("--adapter-timeout", type=float)
    run.add_argument("-v", "--verbose", action="store_true")
    return parser


def _load_config_file(path: Path) -> dict:
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise ExperimentError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(payload, dict):
        raise ExperimentError(f"config {path} must hold a JSON object")
    return payload


# Every key a config file may hold -> (the ExperimentConfig field it sets, the
# flag (argparse dest) that overrides it, or None when only a file sets it).
# "adapter" holds AdapterConfig's fields, each overridden by its flag in
# _ADAPTER_FLAGS.
_FILE_KEYS = {
    "adapter": ("adapter", None),
    "horizon": ("horizon", "horizon"),
    "lambda": ("lam", "lam"),
    "out": ("out_dir", "out"),
    "plan": ("plan", None),
    "policies": ("policies", "policies"),
    "prior_error": ("prior_error", None),
    "profiles": ("profiles_path", "profiles"),
    "scenario": ("scenario", "scenario"),
    "service_jitter": ("service_jitter", "jitter"),
    "trace_decisions": ("trace_decisions", "trace_decisions"),
    "warmup": ("warmup_budget", "warmup"),
}
_ADAPTER_FLAGS = {
    "url": "adapter_url",
    "model": "adapter_model",
    "api_key_env": "adapter_key_env",
    "timeout_s": "adapter_timeout",
}


def _check_keys(cfg: dict, accepted: Collection[str], where: str) -> None:
    for key in cfg:
        if key not in accepted:
            raise ExperimentError(
                f"unknown {where} key {key!r}; accepted keys: {', '.join(accepted)}"
            )


def _merge(args: argparse.Namespace) -> ExperimentConfig:
    file_cfg = _load_config_file(args.config) if args.config else {}
    _check_keys(file_cfg, _FILE_KEYS, "config")
    # ExperimentConfig checks every other value as written; the adapter object is unpacked below.
    check("adapter", file_cfg.get("adapter"), ("an object", lambda v: v is None or isinstance(v, dict)),
          ExperimentError)

    # Only what a flag or the file sets is passed on; ExperimentConfig holds the defaults.
    given = {}
    for key, (name, flag) in _FILE_KEYS.items():
        flag_value = None if flag is None else getattr(args, flag)
        if flag_value is not None:
            given[name] = flag_value
        elif key in file_cfg:
            given[name] = file_cfg[key]
    if given.get("scenario") is None:
        raise ExperimentError("a scenario is required (--scenario or config file)")

    if "policies" in given:
        policies = given["policies"]
        if isinstance(policies, str):
            given["policies"] = tuple(p.strip() for p in policies.split(",") if p.strip())
        elif isinstance(policies, list):
            given["policies"] = tuple(policies)
        else:
            raise ExperimentError(f"policies must be a comma-separated string or list, got {policies!r}")
    if "plan" in given:
        given["plan"] = plan_from_dicts(given["plan"])
    if "prior_error" in given:
        given["prior_error"] = _parse_prior_error(given["prior_error"])

    adapter_cfg = dict(given.pop("adapter", None) or {})
    _check_keys(adapter_cfg, _ADAPTER_FLAGS, "adapter")
    for key, flag in _ADAPTER_FLAGS.items():
        if getattr(args, flag) is not None:
            adapter_cfg[key] = getattr(args, flag)
    # Any adapter setting asks for an adapter, so one without a url fails its check.
    if adapter_cfg:
        given["adapter"] = AdapterConfig(**adapter_cfg)
    return ExperimentConfig(**given)


def _parse_prior_error(raw: object) -> object:
    """``{"<device>": factor or [alpha factor, beta factor]}`` as ``{device: factor or
    (alpha factor, beta factor)}``; ExperimentConfig checks the result."""
    if not isinstance(raw, dict):
        return raw
    return {
        int(key) if key.isdecimal() else key: tuple(value) if isinstance(value, list) else value
        for key, value in raw.items()
    }


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        config = _merge(args)
        result = run_experiment(config)
    except (ExperimentError, ProfileError, PlanError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for name, pm in sorted(result.report.policies.items()):
        print(
            f"{name:16s} avg_latency={pm.avg_latency_ms:10.2f} ms  "
            f"vs_oracle={pm.vs_oracle_pct:+8.2f}%  stutter={pm.stutter_rate:6.2%}  "
            f"llm_calls={pm.llm_calls:3d}  tool_calls={pm.tool_calls:3d}"
        )
    if config.out_dir is not None:
        print(f"artifacts written to {config.out_dir}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
