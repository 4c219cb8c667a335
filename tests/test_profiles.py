"""Profile ingestion and prior conversion."""

import json
import logging
import re

import pytest

from edgesched.cli import main as cli_main
from edgesched.profiles import (
    LLM,
    SDXL,
    DevicePrior,
    ProfileError,
    RawProfileRecord,
    default_profiles_path,
    load_profiles,
    priors_from_records,
)

LLM_LINE = {
    "device_name": "dev-a",
    "model_id": "llama3.1-8b-edge",
    "scenario": "SingleStream",
    "ttft_ms_p99": 1024,
    "tpot_ms_p99": 50,
}


def write_jsonl(path, rows):
    path.write_text("\n".join(json.dumps(r) for r in rows) + "\n", encoding="utf-8")
    return path


def test_load_single_llm_record(tmp_path):
    path = write_jsonl(tmp_path / "p.jsonl", [LLM_LINE])
    records = load_profiles(path)
    assert len(records) == 1
    rec = records[0]
    assert rec.kind == LLM
    assert rec.device_name == "dev-a"
    assert rec.ttft_ms_p99 == 1024
    assert rec.tpot_ms_p99 == 50


def test_empty_file_empty_list_no_warnings(tmp_path, caplog):
    path = tmp_path / "empty.jsonl"
    path.write_text("", encoding="utf-8")
    with caplog.at_level(logging.WARNING):
        assert load_profiles(path) == []
    assert len(caplog.records) == 0


def test_non_singlestream_skipped_with_one_warning(tmp_path, caplog):
    offline = dict(LLM_LINE, scenario="Offline")
    path = write_jsonl(tmp_path / "p.jsonl", [offline, LLM_LINE])
    with caplog.at_level(logging.WARNING):
        records = load_profiles(path)
    assert len(records) == 1
    assert sum("skipping" in r.message for r in caplog.records) == 1


def test_unknown_extra_fields_ignored(tmp_path):
    line = dict(LLM_LINE, submitter="someone", power_w=12.5)
    path = write_jsonl(tmp_path / "p.jsonl", [line])
    assert len(load_profiles(path)) == 1


def test_malformed_line_names_line_number(tmp_path):
    path = tmp_path / "p.jsonl"
    path.write_text(json.dumps(LLM_LINE) + "\n{not json\n", encoding="utf-8")
    with pytest.raises(ProfileError, match=":2"):
        load_profiles(path)


def test_repeated_key_names_line_and_key(tmp_path):
    # json keeps the last of two equal keys; a profile row may not hold two.
    path = tmp_path / "p.jsonl"
    row = json.dumps(LLM_LINE)
    path.write_text(f"{row}\n{row[:-1]}, \"tpot_ms_p99\": 1.0}}\n", encoding="utf-8")
    with pytest.raises(ProfileError) as info:
        load_profiles(path)
    assert str(info.value) == f"{path}:2: malformed JSON: repeated key 'tpot_ms_p99'"


def test_invariant_violation_names_field(tmp_path):
    bad = dict(LLM_LINE, tpot_ms_p99=-3)
    path = write_jsonl(tmp_path / "p.jsonl", [bad])
    with pytest.raises(ProfileError, match="tpot_ms_p99"):
        load_profiles(path)


def test_mixed_kind_fields_rejected(tmp_path):
    bad = dict(LLM_LINE, latency_ms_p99=5000)
    path = write_jsonl(tmp_path / "p.jsonl", [bad])
    with pytest.raises(ProfileError):
        load_profiles(path)


def test_unreadable_file_fatal(tmp_path):
    with pytest.raises(ProfileError, match="cannot read"):
        load_profiles(tmp_path / "missing.jsonl")


@pytest.mark.parametrize(
    "ttft,tpot,alpha,beta",
    [(1024, 50, 1.0, 50.0), (2048, 80, 2.0, 80.0), (512, 25, 0.5, 25.0)],
)
def test_prior_from_llm_conversion(ttft, tpot, alpha, beta):
    rec = RawProfileRecord("d", "llama3.1-8b-edge", "SingleStream", ttft_ms_p99=ttft, tpot_ms_p99=tpot)
    [prior] = priors_from_records([rec])
    assert prior == DevicePrior(0, LLM, alpha0=alpha, beta0=beta)


@pytest.mark.parametrize("latency", [4000, 7000])
def test_prior_from_sd_identity(latency):
    rec = RawProfileRecord(
        "d", "stable-diffusion-xl", "SingleStream", latency_ms_p99=latency, image_size=1024, steps=20
    )
    assert priors_from_records([rec]) == [DevicePrior(0, SDXL, gamma0=latency)]


def test_prior_from_sd_rejects_wrong_config():
    rec = RawProfileRecord(
        "d", "stable-diffusion-xl", "SingleStream", latency_ms_p99=4000, image_size=512, steps=20
    )
    with pytest.raises(ProfileError, match="image_size must be 1024, got 512"):
        priors_from_records([rec])


def test_alpha_times_reference_recovers_ttft_exactly():
    # Power-of-two ttft values divide exactly in binary floating point.
    for ttft in (256, 512, 1024, 2048, 4096):
        rec = RawProfileRecord(
            "d", "llama3.1-8b-edge", "SingleStream", ttft_ms_p99=ttft, tpot_ms_p99=10
        )
        assert priors_from_records([rec])[0].alpha0 * 1024 == ttft
    for ttft in (1000, 1234.5, 777):
        rec = RawProfileRecord(
            "d", "llama3.1-8b-edge", "SingleStream", ttft_ms_p99=ttft, tpot_ms_p99=10
        )
        assert abs(priors_from_records([rec])[0].alpha0 * 1024 - ttft) <= 1e-12 * ttft


def test_load_profiles_order_preserving_and_idempotent(tmp_path):
    rows = [
        dict(LLM_LINE, device_name="a"),
        dict(LLM_LINE, device_name="b", ttft_ms_p99=2048),
        {
            "device_name": "c",
            "model_id": "stable-diffusion-xl",
            "scenario": "SingleStream",
            "latency_ms_p99": 4000,
            "image_size": 1024,
            "steps": 20,
        },
    ]
    path = write_jsonl(tmp_path / "p.jsonl", rows)
    first = load_profiles(path)
    second = load_profiles(path)
    assert [r.device_name for r in first] == ["a", "b", "c"]
    assert first == second


@pytest.mark.parametrize(
    "row,field,value",
    [
        (0, "ttft_ms_p99", float("nan")),
        (0, "tpot_ms_p99", float("inf")),
        (1, "latency_ms_p99", float("nan")),
        (1, "steps", True),
    ],
)
def test_non_finite_or_bool_profile_value_is_rejected(tmp_path, row, field, value):
    rows = [
        dict(LLM_LINE),
        {
            "device_name": "sd",
            "model_id": "stable-diffusion-xl",
            "scenario": "SingleStream",
            "latency_ms_p99": 4000,
            "image_size": 1024,
            "steps": 20,
        },
    ]
    rows[row][field] = value
    path = write_jsonl(tmp_path / "p.jsonl", rows)
    with pytest.raises(ProfileError, match=rf"p.jsonl:{row + 1}: field {field} must be a finite number > 0"):
        load_profiles(path)


@pytest.mark.parametrize("value", [float("nan"), float("inf"), True])
def test_device_prior_rejects_non_finite_or_bool_coefficients(value):
    with pytest.raises(ProfileError, match="alpha0 must be a finite number >= 0"):
        DevicePrior(0, LLM, alpha0=value, beta0=50.0)
    with pytest.raises(ProfileError, match="gamma0 must be a finite number >= 0"):
        DevicePrior(2, SDXL, gamma0=value)


def test_default_fixture_loads_as_expected_pool():
    records = load_profiles(default_profiles_path())
    priors = priors_from_records(records)
    assert [p.kind for p in priors] == [LLM, LLM, SDXL, SDXL]
    assert priors[0].alpha0 == 1.0 and priors[0].beta0 == 50.0
    assert priors[1].alpha0 == 2.0 and priors[1].beta0 == 80.0
    assert priors[2].gamma0 == 4000.0
    assert priors[3].gamma0 == 7000.0


SD_LINE = {
    "device_name": "sd",
    "model_id": "stable-diffusion-xl",
    "scenario": "SingleStream",
    "latency_ms_p99": 4000,
    "image_size": 1024,
    "steps": 20,
}


@pytest.mark.parametrize(
    "row, message",
    [
        (dict(LLM_LINE, model_id=5), "model_id must be a string, got 5"),
        (dict(LLM_LINE, model_id=None), "model_id must be a string, got None"),
        (dict(LLM_LINE, model_id=["llama"]), "model_id must be a string, got ['llama']"),
        (dict(SD_LINE, model_id=5), "model_id must be a string, got 5"),
        (dict(LLM_LINE, device_name=7), "device_name must be a string, got 7"),
        (dict(LLM_LINE, scenario=None), "scenario must be a string, got None"),
        # Names matching both hint lists are LLM models, so diffusion fields do not fit.
        (dict(SD_LINE, model_id="llama-sd-turbo"), "model_id 'llama-sd-turbo' does not match diffusion latency fields"),
        (dict(SD_LINE, model_id="sdxl-llm-distilled"), "model_id 'sdxl-llm-distilled' does not match diffusion latency fields"),
        (dict(SD_LINE, model_id="resnet50"), "model_id 'resnet50' does not match diffusion latency fields"),
        (dict(LLM_LINE, model_id="sdxl-base"), "model_id 'sdxl-base' does not match LLM latency fields"),
        # A kept diffusion row must match the profiling configuration.
        (dict(SD_LINE, steps=30), "steps must be 20, got 30"),
        (dict(SD_LINE, image_size=512), "image_size must be 1024, got 512"),
        ({k: v for k, v in SD_LINE.items() if k != "image_size"}, "image_size must be 1024, got None"),
        ({k: v for k, v in LLM_LINE.items() if k != "tpot_ms_p99"},
         "record for 'dev-a' needs both ttft_ms_p99 and tpot_ms_p99"),
        ({k: v for k, v in LLM_LINE.items() if k not in ("ttft_ms_p99", "tpot_ms_p99")},
         "record for 'dev-a' carries no latency measurement"),
        (5, "expected a JSON object"),
        ([LLM_LINE], "expected a JSON object"),
    ],
    ids=["model_int", "model_null", "model_list", "sd_model_int", "device_int", "scenario_null",
         "llm_name_sd_fields", "both_hints_sd_fields", "unknown_sd_model", "sd_name_llm_fields",
         "sd_steps", "sd_image_size", "sd_no_image_size", "ttft_without_tpot", "no_latency",
         "line_int", "line_list"],
)
def test_profile_row_outside_the_contract_is_one_cli_error(tmp_path, capsys, row, message):
    path = write_jsonl(tmp_path / "p.jsonl", [SD_LINE, row])
    with pytest.raises(ProfileError) as info:
        load_profiles(path)
    assert str(info.value) == f"{path}:2: {message}"
    assert cli_main(["run", "--scenario", "warmup", "--horizon", "10", "--profiles", str(path)]) == 1
    assert capsys.readouterr().err == f"error: {path}:2: {message}\n"


def test_skipped_diffusion_row_outside_the_profiling_configuration_stays_skipped(tmp_path):
    offline = dict(SD_LINE, scenario="Offline", steps=30, image_size=512)
    records = load_profiles(write_jsonl(tmp_path / "p.jsonl", [offline, SD_LINE]))
    assert [(r.scenario, r.steps) for r in records] == [("SingleStream", 20)]


def test_rows_matching_one_hint_list_still_load(tmp_path):
    rows = [
        dict(LLM_LINE, model_id="tiny-llm-q4"),
        dict(LLM_LINE, model_id="llama-sd-turbo"),
        dict(SD_LINE, model_id="sdxl-base-1.0"),
        dict(SD_LINE, model_id="sd-1.5"),
    ]
    records = load_profiles(write_jsonl(tmp_path / "p.jsonl", rows))
    assert [r.kind for r in records] == [LLM, LLM, SDXL, SDXL]


def test_row_missing_a_required_field_names_its_line(tmp_path):
    row = {k: v for k, v in LLM_LINE.items() if k != "device_name"}
    path = write_jsonl(tmp_path / "p.jsonl", [LLM_LINE, row])
    with pytest.raises(ProfileError, match=f"{path}:2: missing required field: .*'device_name'"):
        load_profiles(path)


def test_blank_lines_are_skipped(tmp_path):
    path = tmp_path / "p.jsonl"
    path.write_text(f"\n{json.dumps(LLM_LINE)}\n   \n{json.dumps(SD_LINE)}\n", encoding="utf-8")
    assert [r.kind for r in load_profiles(path)] == [LLM, SDXL]


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"kind": LLM, "beta0": 50.0}, "LLM prior requires alpha0 and beta0"),
        ({"kind": LLM, "alpha0": 1.0}, "LLM prior requires alpha0 and beta0"),
        ({"kind": SDXL, "alpha0": 1.0, "beta0": 50.0}, "SDXL prior requires gamma0"),
    ],
    ids=["llm_no_alpha", "llm_no_beta", "sdxl_no_gamma"],
)
def test_device_prior_needs_the_coefficients_of_its_kind(kwargs, message):
    with pytest.raises(ProfileError, match=message):
        DevicePrior(0, **kwargs)


@pytest.mark.parametrize("device_id", [True, False, 0.0, "0", None])
def test_device_prior_rejects_a_device_id_that_is_not_an_int(device_id):
    # GroundTruthState once accepted a prior for device True.
    message = f"device_id must be an int, got {device_id!r}"
    with pytest.raises(ProfileError, match=f"^{re.escape(message)}$"):
        DevicePrior(device_id, LLM, 1.0, 1.0)


@pytest.mark.parametrize("kind", ["foo", "llm", None, ["LLM"]])
def test_device_prior_rejects_an_unknown_kind(kind):
    # DevicePrior(0, "foo") once seeded an Opm estimate with gamma_hat=None.
    with pytest.raises(ProfileError, match=r"kind must be one of \('LLM', 'SDXL'\), got "):
        DevicePrior(0, kind)


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"kind": LLM, "alpha0": 1.0, "beta0": 1.0, "gamma0": 5.0}, "LLM prior takes no gamma0, got 5.0"),
        ({"kind": SDXL, "alpha0": 1.0, "gamma0": 5.0}, "SDXL prior takes no alpha0, got 1.0"),
        ({"kind": SDXL, "beta0": 2.0, "gamma0": 5.0}, "SDXL prior takes no beta0, got 2.0"),
    ],
    ids=["llm_gamma", "sdxl_alpha", "sdxl_beta"],
)
def test_device_prior_rejects_a_coefficient_of_the_other_kind(kwargs, message):
    with pytest.raises(ProfileError, match=message):
        DevicePrior(0, **kwargs)
