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
from dataclasses import fields
from pathlib import Path

from .harness import (
    POLICY_NAMES,
    SCENARIOS,
    ExperimentConfig,
    ExperimentError,
    run_experiment,
)
from .metacontrol import AdapterConfig
from .profiles import ProfileError, is_finite_number
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
    run.add_argument("--profiles", type=Path, help="device profile JSONL path")
    run.add_argument("--out", type=Path, help="output directory for report artifacts")
    run.add_argument("--horizon", type=int)
    run.add_argument("--lambda", dest="lam", type=float, help="arrival rate, tasks/s")
    run.add_argument("--jitter", type=float, help="service jitter amplitude override")
    run.add_argument(
        "--explore-weight", type=float, help="initial exploration bonus weight, ms"
    )
    run.add_argument("--trace-decisions", action="store_true", default=None)
    run.add_argument("--adapter-url", help="external controller endpoint URL")
    run.add_argument("--adapter-model", help="external controller model name")
    run.add_argument(
        "--adapter-key-env",
        default=None,
        help="environment variable holding the adapter API key",
    )
    run.add_argument("--adapter-timeout", type=float, default=None)
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


# Config-file fields passed on unconverted; ExperimentConfig checks the rest.
_FILE_TYPES = (
    ("profiles", str, "a path string"),
    ("out", str, "a path string"),
    ("adapter", dict, "an object"),
)
# Every key a config file may hold, with the flag (argparse dest) that
# overrides it; None marks a key only a config file sets.  "adapter" holds
# AdapterConfig's fields.
_FILE_KEYS = {
    "adapter": None,
    "explore_weight_ms": "explore_weight",
    "horizon": "horizon",
    "lambda": "lam",
    "out": "out",
    "plan": None,
    "policies": "policies",
    "prior_error": None,
    "profiles": "profiles",
    "scenario": "scenario",
    "service_jitter": "jitter",
    "trace_decisions": "trace_decisions",
    "warmup": "warmup",
}
_ADAPTER_KEYS = tuple(f.name for f in fields(AdapterConfig))


def _check_keys(cfg: dict, accepted: Collection[str], where: str) -> None:
    for key in cfg:
        if key not in accepted:
            raise ExperimentError(
                f"unknown {where} key {key!r}; accepted keys: {', '.join(accepted)}"
            )


def _merge(args: argparse.Namespace) -> ExperimentConfig:
    file_cfg = _load_config_file(args.config) if args.config else {}
    _check_keys(file_cfg, _FILE_KEYS, "config")
    for key, kind, contract in _FILE_TYPES:
        if file_cfg.get(key) is not None and not isinstance(file_cfg[key], kind):
            raise ExperimentError(f"{key} must be {contract}, got {file_cfg[key]!r}")

    def pick(key, default=None):
        """The flag's value if given, else the config file's, else ``default``."""
        flag = _FILE_KEYS[key]
        flag_value = None if flag is None else getattr(args, flag)
        if flag_value is not None:
            return flag_value
        return file_cfg.get(key, default)

    scenario = pick("scenario")
    if scenario is None:
        raise ExperimentError("a scenario is required (--scenario or config file)")

    policies = pick("policies", ",".join(POLICY_NAMES))
    if isinstance(policies, str):
        policies = tuple(p.strip() for p in policies.split(",") if p.strip())
    elif isinstance(policies, list):
        policies = tuple(policies)
    else:
        raise ExperimentError(f"policies must be a comma-separated string or list, got {policies!r}")

    plan = None
    if "plan" in file_cfg:
        plan = plan_from_dicts(pick("plan"))

    adapter = None
    adapter_cfg = pick("adapter") or {}
    _check_keys(adapter_cfg, _ADAPTER_KEYS, "adapter")
    url = args.adapter_url or adapter_cfg.get("url")
    if url:
        timeout_s = args.adapter_timeout
        adapter = AdapterConfig(
            # --adapter-url turns the adapter on whatever the file says.
            enabled=True if args.adapter_url else adapter_cfg.get("enabled", True),
            url=url,
            model=args.adapter_model or adapter_cfg.get("model", ""),
            api_key_env=args.adapter_key_env
            or adapter_cfg.get("api_key_env", AdapterConfig.api_key_env),
            timeout_s=adapter_cfg.get("timeout_s", 10.0) if timeout_s is None else timeout_s,
        )

    return ExperimentConfig(
        scenario=scenario,
        warmup_budget=pick("warmup", 0),
        horizon=pick("horizon", 300),
        lam=pick("lambda", 0.5),
        policies=policies,
        profiles_path=pick("profiles"),
        out_dir=pick("out"),
        prior_error=_parse_prior_error(pick("prior_error")),
        service_jitter=pick("service_jitter"),
        plan=plan,
        adapter=adapter,
        explore_weight_ms=pick("explore_weight_ms"),
        trace_decisions=pick("trace_decisions", False),
    )


def _parse_prior_error(raw: object) -> dict | None:
    """``{"<device>": factor or [alpha factor, beta factor]}``; factors are finite and > 0."""
    if raw is None:
        return None
    contract = "prior_error must map device ids to a finite number > 0 or a pair of them"
    if not isinstance(raw, dict):
        raise ExperimentError(f"{contract}, got {raw!r}")
    parsed = {}
    for key, value in raw.items():
        factors = value if isinstance(value, list) and len(value) == 2 else [value]
        if not key.isdigit() or not all(is_finite_number(f) and f > 0 for f in factors):
            raise ExperimentError(f"{contract}, got {key!r}: {value!r}")
        parsed[int(key)] = tuple(value) if isinstance(value, list) else value
    return parsed


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
