"""Deterministic workload generation."""

import hashlib
import sys

import pytest

from edgesched.harness import _workload_sha
from edgesched.profiles import LLM, SDXL
from edgesched.sim.workload import INPUT_BINS, OUTPUT_BINS, TOKEN_BIN_CYCLE, TaskSpec, generate_workload


def test_default_stream_arrivals_and_kinds():
    tasks = generate_workload(4, lam=0.5)
    assert [t.arrival_time for t in tasks] == [0, 2000, 4000, 6000]
    assert [t.kind for t in tasks] == [LLM, SDXL, LLM, SDXL]


def test_zero_horizon_empty_stream():
    assert generate_workload(0, lam=0.5) == []


def test_first_two_llm_tasks_follow_row_major_cycle():
    tasks = generate_workload(4, lam=0.5)
    llm = [t for t in tasks if t.kind == LLM]
    assert (llm[0].n_in, llm[0].n_out) == (256, 32)
    assert (llm[1].n_in, llm[1].n_out) == (256, 64)


def test_bin_cycle_is_row_major_and_repeats():
    assert TOKEN_BIN_CYCLE[:4] == ((256, 32), (256, 64), (256, 128), (512, 32))
    tasks = generate_workload(40, lam=0.5)
    llm = [t for t in tasks if t.kind == LLM]
    for i, task in enumerate(llm):
        assert (task.n_in, task.n_out) == TOKEN_BIN_CYCLE[i % 9]


def test_sdxl_tasks_carry_no_token_lengths():
    tasks = generate_workload(4, lam=0.5)
    sd = [t for t in tasks if t.kind == SDXL]
    assert all(t.n_in is None and t.n_out is None for t in sd)


def test_arrival_spacing_follows_rate():
    tasks = generate_workload(3, lam=2.0)
    assert [t.arrival_time for t in tasks] == [0, 500, 1000]


def test_token_bins_match_declared_grid():
    tasks = generate_workload(60, lam=0.5)
    llm = [t for t in tasks if t.kind == LLM]
    assert {t.n_in for t in llm} == set(INPUT_BINS)
    assert {t.n_out for t in llm} == set(OUTPUT_BINS)


def test_invalid_parameters_rejected():
    with pytest.raises(ValueError):
        generate_workload(-1, lam=0.5)
    with pytest.raises(ValueError):
        generate_workload(4, lam=0.0)


@pytest.mark.parametrize(
    ("horizon", "lam"),
    [
        (20, 1e-306),  # 1000/lambda overflows: the first arrival is 0 * inf = nan
        (1, 1e-306),
        (0, 1e-306),
        (20, 1e-303),  # finite, but far past where a float resolves a millisecond
        (3, 1000.0 / 2.0**52),  # the last arrival is exactly 2**53 ms
    ],
)
def test_a_rate_whose_last_arrival_a_float_cannot_resolve_is_rejected(horizon, lam):
    with pytest.raises(ValueError, match=r"lambda must put the last arrival, \(horizon - 1\) \* 1000/lambda ms, below 2\*\*53 ms"):
        generate_workload(horizon, lam)


def test_a_last_arrival_just_below_2_53_ms_is_accepted():
    assert generate_workload(2, 1000.0 / 2.0**52)[-1].arrival_time == 2.0**52


@pytest.mark.parametrize(
    "horizon", [10**400, 2**1024, int(sys.float_info.max) + 2], ids=["10**400", "2**1024", "float_max+2"]
)
def test_a_horizon_past_the_largest_float_is_rejected(horizon):
    # The last-arrival product once raised a bare OverflowError for these, and
    # then a message that blamed lambda, though no rate could help.
    with pytest.raises(ValueError, match=r"^horizon must be at most MAX_HORIZON = 10\*\*7 tasks, got about 10\*\*\d+$"):
        generate_workload(horizon)


@pytest.mark.parametrize("horizon", [True, 3.0, "3", None])
def test_horizon_must_be_an_int(horizon):
    # A bool is an int to range(), and a float used to fail there with a bare TypeError.
    with pytest.raises(ValueError, match=f"horizon must be an int >= 0, got {horizon!r}"):
        generate_workload(horizon)


def class_call_workload(horizon, lam):
    """The stream built by calling the TaskSpec class for each task."""
    tasks, llm_ordinal = [], 0
    for k in range(horizon):
        if k % 2 == 0:
            n_in, n_out = TOKEN_BIN_CYCLE[llm_ordinal % len(TOKEN_BIN_CYCLE)]
            llm_ordinal += 1
            tasks.append(TaskSpec(k, LLM, k * (1000.0 / lam), n_in, n_out))
        else:
            tasks.append(TaskSpec(k, SDXL, k * (1000.0 / lam)))
    return tasks


def f_string_sha(workload):
    """The workload hash as an f-string per task wrote it."""
    text = ";".join(f"{t.task_id},{t.kind},{t.arrival_time},{t.n_in},{t.n_out}" for t in workload)
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("horizon", [0, 1, 2, 301])
@pytest.mark.parametrize("lam", [0.25, 0.5, 2.0, 3.0])
def test_generated_tasks_equal_class_calls_and_hash_as_before(horizon, lam):
    tasks = generate_workload(horizon, lam)
    reference = class_call_workload(horizon, lam)
    assert all(type(t) is TaskSpec for t in tasks)
    assert tasks == reference
    assert [list(map(type, t)) for t in tasks] == [list(map(type, t)) for t in reference]
    assert _workload_sha(tasks) == f_string_sha(reference)


def test_a_hand_built_workload_hashes_as_before():
    workload = [
        TaskSpec(0, LLM, 1 / 3, None, None),
        TaskSpec(1, SDXL, 1e-07, 5, None),
        TaskSpec(2, LLM, 1e22, None, 7),
        TaskSpec(3, SDXL, -0.0),
        TaskSpec(4, "a,b;c%s", 2.5, 2**70, 0),
    ]
    assert _workload_sha(workload) == f_string_sha(workload)
