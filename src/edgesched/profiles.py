"""Device profile ingestion: benchmark-derived JSONL records to routing priors.

Profiles are measured p99 latencies for two generative workloads (a llama-class
LLM and SDXL image generation) in SingleStream mode.  LLM measurements are
converted to per-token coefficients; diffusion measurements become a flat
per-image cost.  The resulting priors seed the online performance model and
are deliberately treated as imperfect.
"""

from __future__ import annotations

import json
import logging
import math
import os
from collections.abc import Container
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import NamedTuple

logger = logging.getLogger(__name__)

LLM = "LLM"
SDXL = "SDXL"

# Tokens assumed for the p99 TTFT measurement when deriving the per-input-token
# coefficient (matches the 1024x1024 / SingleStream profiling configuration).
TTFT_REFERENCE_TOKENS = 1024
SD_IMAGE_SIZE = 1024
SD_STEPS = 20

_LLM_MODEL_HINTS = ("llama", "llm")
_SD_MODEL_HINTS = ("diffusion", "sdxl", "sd-")


class ProfileError(ValueError):
    """Raised for unreadable, malformed, or invariant-violating profile data."""


class RawProfileRecord(NamedTuple):
    """One benchmark measurement row as read from the JSONL profile file."""

    device_name: str
    model_id: str
    scenario: str
    precision: str = ""
    ttft_ms_p99: float | None = None
    tpot_ms_p99: float | None = None
    latency_ms_p99: float | None = None
    image_size: int | None = None
    steps: int | None = None

    @property
    def kind(self) -> str:
        if self.ttft_ms_p99 is not None and self.tpot_ms_p99 is not None:
            return LLM
        return SDXL

    def validate(self) -> None:
        for name in ("device_name", "model_id", "scenario"):
            check(name, getattr(self, name), STRING, ProfileError)
        has_llm = self.ttft_ms_p99 is not None or self.tpot_ms_p99 is not None
        has_sd = self.latency_ms_p99 is not None
        if has_llm and has_sd:
            raise ProfileError(
                f"record for {self.device_name!r} mixes LLM and diffusion fields"
            )
        if not (has_llm or has_sd):
            raise ProfileError(
                f"record for {self.device_name!r} carries no latency measurement"
            )
        if has_llm and (self.ttft_ms_p99 is None or self.tpot_ms_p99 is None):
            raise ProfileError(
                f"record for {self.device_name!r} needs both ttft_ms_p99 and tpot_ms_p99"
            )
        if model_kind(self.model_id) != (LLM if has_llm else SDXL):
            fields_name = "LLM" if has_llm else "diffusion"
            raise ProfileError(
                f"model_id {self.model_id!r} does not match {fields_name} latency fields"
            )
        for name in ("ttft_ms_p99", "tpot_ms_p99", "latency_ms_p99", "image_size", "steps"):
            value = getattr(self, name)
            if value is not None:
                check(f"field {name}", value, POSITIVE, ProfileError)


# kind -> the prior coefficients a device of that kind uses
_COEFFICIENTS = {LLM: ("alpha0", "beta0"), SDXL: ("gamma0",)}


@dataclass(frozen=True)
class DevicePrior:
    """Offline prior for one device: exactly the coefficients its kind uses.

    LLM devices carry (alpha0, beta0) in ms/token; diffusion devices carry
    gamma0 in ms/image.  Values are non-negative by construction.  The one
    dataclass in the package: callers may ``dataclasses.replace`` a prior.
    """

    device_id: int
    kind: str
    alpha0: float | None = None
    beta0: float | None = None
    gamma0: float | None = None

    def __post_init__(self) -> None:
        check("device_id", self.device_id, INT, ProfileError)
        if not isinstance(self.kind, str) or self.kind not in _COEFFICIENTS:
            raise ProfileError(f"kind must be one of {tuple(_COEFFICIENTS)}, got {self.kind!r}")
        uses = _COEFFICIENTS[self.kind]
        if any(getattr(self, name) is None for name in uses):
            raise ProfileError(f"{self.kind} prior requires {' and '.join(uses)}")
        for name in ("alpha0", "beta0", "gamma0"):
            value = getattr(self, name)
            if value is not None and name not in uses:
                raise ProfileError(f"{self.kind} prior takes no {name}, got {value!r}")
            if value is not None:
                check(name, value, NON_NEGATIVE, ProfileError)


def is_int(value: object) -> bool:
    """True for an int; bools are rejected."""
    return isinstance(value, int) and not isinstance(value, bool)


def is_finite_number(value: object) -> bool:
    """True for a finite int or float; bools, non-numbers and ints too large
    for a float are rejected."""
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


# A rule is a (contract, check) pair; :func:`check` words a rejection as
# "<name> must be <contract>, got <value!r>".
INT = ("an int", is_int)
INDEX = ("an int >= 0", lambda v: is_int(v) and v >= 0)
COUNT = ("an int >= 1, not a bool", lambda v: is_int(v) and v >= 1)
POSITIVE = ("a finite number > 0", lambda v: is_finite_number(v) and v > 0)
NON_NEGATIVE = ("a finite number >= 0", lambda v: is_finite_number(v) and v >= 0)
STRING = ("a string", lambda v: isinstance(v, str))
NAME = ("a non-empty string", lambda v: isinstance(v, str) and v != "")
# Path("") is the current directory, so an empty path is rejected.
PATH = ("a non-empty str or an os.PathLike",
        lambda v: isinstance(v, os.PathLike) or (isinstance(v, str) and v != ""))


def optional(rule: tuple) -> tuple:
    """``rule`` widened to accept None."""
    contract, test = rule
    return f"None or {contract}", lambda v: v is None or test(v)


def check(name: str, value: object, rule: tuple, error: type[Exception] = ValueError) -> None:
    """Raise ``error`` unless ``value`` passes ``rule``; a tool-argument kind
    is a rule with a JSON schema after it."""
    if not rule[1](value):
        raise error(f"{name} must be {rule[0]}, got {value!r}")


def check_new_device(device_id: int, seen: Container[int]) -> None:
    """Raise ValueError if ``device_id`` is in ``seen``: a device has one prior, of one kind."""
    if device_id in seen:
        raise ValueError(f"duplicate prior for device {device_id}: a device id names one device of one kind")


def _looks_like(model_id: str, hints: tuple[str, ...]) -> bool:
    lowered = model_id.lower()
    return any(h in lowered for h in hints)


def model_kind(model: str) -> str | None:
    """The device kind a model name runs on, by the profile loader's hints
    (LLM first); None when the name matches neither list."""
    if _looks_like(model, _LLM_MODEL_HINTS):
        return LLM
    if _looks_like(model, _SD_MODEL_HINTS):
        return SDXL
    return None


def check_sd_config(record: RawProfileRecord) -> None:
    """Raise unless a diffusion record matches the profiling configuration (1024px, 20 steps)."""
    if record.image_size != SD_IMAGE_SIZE:
        raise ProfileError(f"image_size must be {SD_IMAGE_SIZE}, got {record.image_size!r}")
    if record.steps != SD_STEPS:
        raise ProfileError(f"steps must be {SD_STEPS}, got {record.steps!r}")


def load_profiles(path: str | Path) -> list[RawProfileRecord]:
    """Read profile records from a JSONL file, in file order.

    Unknown fields are ignored.  Records whose scenario is not SingleStream
    are skipped with a warning (one log line per skip).  Malformed lines,
    invariant violations and kept diffusion rows outside the profiling
    configuration raise :class:`ProfileError` naming the line.
    """
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ProfileError(f"cannot read profile file {path}: {exc}") from exc

    records: list[RawProfileRecord] = []
    skipped = 0
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            payload = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ProfileError(f"{path}:{lineno}: malformed JSON: {exc}") from exc
        if not isinstance(payload, dict):
            raise ProfileError(f"{path}:{lineno}: expected a JSON object")
        known = {k: v for k, v in payload.items() if k in RawProfileRecord._fields}
        try:
            record = RawProfileRecord(**known)
            record.validate()
            if record.scenario == "SingleStream" and record.kind == SDXL:
                check_sd_config(record)
        except ProfileError as exc:
            raise ProfileError(f"{path}:{lineno}: {exc}") from exc
        except TypeError as exc:
            raise ProfileError(f"{path}:{lineno}: missing required field: {exc}") from exc
        if record.scenario != "SingleStream":
            skipped += 1
            logger.warning(
                "%s:%d: skipping non-SingleStream record (scenario=%r)",
                path,
                lineno,
                record.scenario,
            )
            continue
        records.append(record)
    if skipped:
        logger.warning("%s: skipped %d non-SingleStream record(s)", path, skipped)
    return records


def priors_from_records(records: list[RawProfileRecord]) -> list[DevicePrior]:
    """Build one prior per record, assigning device ids in file order.

    An LLM record gives per-token coefficients, alpha0 = ttft_ms_p99 /
    TTFT_REFERENCE_TOKENS and beta0 = tpot_ms_p99.  A diffusion record must
    match the profiling configuration (:func:`check_sd_config`) and gives its
    flat per-image cost, gamma0 = latency_ms_p99.
    """
    priors = []
    for device_id, record in enumerate(records):
        if record.kind == LLM:
            alpha0 = record.ttft_ms_p99 / TTFT_REFERENCE_TOKENS
            priors.append(DevicePrior(device_id, LLM, alpha0=alpha0, beta0=record.tpot_ms_p99))
        else:
            check_sd_config(record)
            priors.append(DevicePrior(device_id, SDXL, gamma0=record.latency_ms_p99))
    return priors


def default_profiles_path() -> Path:
    """Path of the deterministic 4-device fixture shipped with the package."""
    return Path(resources.files("edgesched").joinpath("data/device_profiles.jsonl"))
