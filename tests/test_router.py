"""Fast-path routing: scoring, risk gating, baselines, reference policy."""

from types import SimpleNamespace

import pytest

from conftest import make_truth
from edgesched.harness import DYNAMIC_PREFIX_TASKS, PRESETS, build_agent
from edgesched.metacontrol import Invocation, MetaController, ToolCall
from edgesched.opm import Opm
from edgesched.profiles import (
    LLM,
    SDXL,
    DevicePrior,
    default_profiles_path,
    load_profiles,
    priors_from_records,
)
from edgesched.router import (
    AdaptiveAgentPolicy,
    FastPath,
    FixedHeuristicPolicy,
    OraclePolicy,
    RiskOverrideTable,
    RoundRobinPolicy,
    RouterConfig,
    backlog_ms,
    scores,
    select_e3,
    select_oracle,
)
from edgesched.sim.engine import (
    DeviceSnapshot,
    Engine,
    InFlightView,
    ObservableState,
)
from edgesched.sim.truth import (
    GroundTruthState,
    ScenarioPlan,
    SemanticOffset,
    SemanticOnset,
    plan_from_dicts,
)
from edgesched.sim.workload import TaskSpec, generate_workload


def obs_with(devices, now=0.0):
    return ObservableState(now, tuple(devices), ())


def llm_snapshot(device_id, queued=(), in_flight=None, available=True):
    return DeviceSnapshot(device_id, LLM, available, tuple(queued), in_flight, 0)


def bound(opm, devices, config=None, overrides=None, now=0.0, trace=None):
    """A fast path on ``opm`` bound to a hand-built view of ``devices``."""
    state = FastPath(opm, overrides or RiskOverrideTable(), config or RouterConfig(), trace)
    state.obs = obs_with(devices, now)
    return state


def explore_config():
    """A router config in explore mode, as the ``switch_router`` tool leaves it."""
    config = RouterConfig()
    config.policy = "explore_risk"
    return config


def seeded_state(priors, config=None, overrides=None, devices=None, now=0.0, trace=None):
    opm = Opm()
    opm.seed(priors)
    devices = devices or [llm_snapshot(p.device_id) for p in priors]
    return bound(opm, devices, config, overrides, now, trace)


# --- scoring -------------------------------------------------------------------


def score_fixture(config=None, overrides=None):
    # alpha=10, beta=0: a queued (100, 0) task prices the backlog at 1000 ms
    # and the incoming (200, 0) task predicts 2000 ms.
    priors = [DevicePrior(0, LLM, alpha0=10.0, beta0=0.0)]
    queued = [TaskSpec(7, LLM, 0.0, 100, 0)]
    state = seeded_state(
        priors,
        config=config,
        overrides=overrides,
        devices=[llm_snapshot(0, queued=queued)],
    )
    task = TaskSpec(8, LLM, 0.0, 200, 0)
    return state, task


def test_score_plain_mode_sums_backlog_and_prediction():
    state, task = score_fixture(config=RouterConfig())
    assert scores(task, (0,), state)[0][0] == pytest.approx(3000.0)


def test_score_ignores_the_risk_flag():
    # The gate in select_e3 handles risk; a flagged device scores as a safe one.
    overrides = RiskOverrideTable()
    overrides.set(0, ttl=10)
    state, task = score_fixture(config=RouterConfig(), overrides=overrides)
    assert scores(task, (0,), state)[0][0] == pytest.approx(3000.0)


def test_score_explore_mode_subtracts_uncertainty_bonus():
    state, task = score_fixture(config=explore_config())
    # Cold start: n = 0 so the uncertainty is 1 and the full bonus applies.
    assert scores(task, (0,), state)[0][0] == pytest.approx(1000.0)


def test_scores_may_go_negative():
    priors = [DevicePrior(0, LLM, alpha0=0.001, beta0=0.0)]
    state = seeded_state(priors, config=explore_config())
    task = TaskSpec(0, LLM, 0.0, 256, 32)
    assert scores(task, (0,), state)[0][0] < 0


# --- adaptive selection ------------------------------------------------------------


def two_device_state(config=None, overrides=None, alpha0=10.0, alpha1=10.0, q0=(), q1=(), trace=None):
    priors = [
        DevicePrior(0, LLM, alpha0=alpha0, beta0=0.0),
        DevicePrior(1, LLM, alpha0=alpha1, beta0=0.0),
    ]
    devices = [llm_snapshot(0, queued=q0), llm_snapshot(1, queued=q1)]
    return seeded_state(priors, config=config, overrides=overrides, devices=devices, trace=trace)


def test_select_e3_takes_argmin():
    # Scores: device 0 -> 3000, device 1 -> 3500.
    state = two_device_state(
        q0=[TaskSpec(1, LLM, 0.0, 100, 0)], q1=[TaskSpec(2, LLM, 0.0, 150, 0)]
    )
    assert select_e3(TaskSpec(3, LLM, 0.0, 200, 0), state) == 0


def test_select_e3_hard_avoidance_beats_scores():
    overrides = RiskOverrideTable()
    overrides.set(0, ttl=10)
    # Device 0 would win on score, but it is risky and 1 is safe.
    state = two_device_state(overrides=overrides, alpha0=1.0, alpha1=50.0)
    assert select_e3(TaskSpec(0, LLM, 0.0, 100, 0), state) == 1


def test_select_e3_route_anyway_when_all_risky():
    overrides = RiskOverrideTable()
    overrides.set(0, ttl=10)
    overrides.set(1, ttl=10)
    state = two_device_state(overrides=overrides, alpha0=30.0, alpha1=40.0)
    assert select_e3(TaskSpec(0, LLM, 0.0, 100, 0), state) == 0


def test_select_e3_empty_candidates_signals_no_feasible_device():
    state = seeded_state(
        [DevicePrior(0, LLM, alpha0=1.0, beta0=1.0)],
        devices=[llm_snapshot(0, available=False)],
    )
    assert select_e3(TaskSpec(0, LLM, 0.0, 100, 0), state) is None


def test_select_e3_tie_breaks_to_lowest_device_id():
    state = two_device_state()
    assert select_e3(TaskSpec(0, LLM, 0.0, 100, 0), state) == 0


def test_scale_argmin_invariance():
    # With empty queues and plain mode, scaling every prediction by a common
    # positive constant must not change the winner.
    for scale in (0.25, 1.0, 7.0):
        state = two_device_state(alpha0=3.0 * scale, alpha1=5.0 * scale)
        assert select_e3(TaskSpec(0, LLM, 0.0, 100, 0), state) == 0


def test_select_e3_scores_each_candidate_once():
    calls = []

    class CountingOpm(Opm):
        def predict(self, device, task):
            calls.append(device)
            return super().predict(device, task)

    opm = CountingOpm()
    opm.seed(
        [DevicePrior(0, LLM, alpha0=1.0, beta0=1.0), DevicePrior(1, LLM, alpha0=2.0, beta0=2.0)]
    )
    state = bound(opm, [llm_snapshot(0), llm_snapshot(1)])
    select_e3(TaskSpec(0, LLM, 0.0, 100, 10), state)
    # Empty queues: exactly one prediction per candidate.
    assert sorted(calls) == [0, 1]


def test_trace_records_scores_and_choice():
    trace = []
    state = two_device_state(trace=trace)
    select_e3(TaskSpec(4, LLM, 0.0, 100, 0), state)
    assert trace[0]["task_id"] == 4
    assert trace[0]["chosen"] == 0
    assert len(trace[0]["scores"]) == 2


def per_candidate_scores(task, obs, policy):
    """Each pool device's score by the per-candidate formula: the risk-gated
    pool, a backlog priced afresh, the prediction and the exploration bonus."""
    candidates = obs.available_devices(task.kind)
    pool = [d for d in candidates if not policy.overrides.is_risky(d)] or candidates
    config, opm = policy.config, policy.opm
    rows = []
    for device in pool:
        value = backlog_ms(obs, device, opm.predict, obs.now, {}) + opm.predict(device, task)
        if config.policy == "explore_risk":
            value -= config.explore_weight_ms * opm.uncertainty(device, task.kind)
        rows.append([device, value])
    return rows


# A semantic window that outlives the risk flag's 50-task TTL, so the flag expires.
LONG_SEMANTIC_WINDOW = [
    {"at_task": 60, "type": "semantic_onset", "device": 0, "label": "game", "factor": 3.0},
    {"at_task": 200, "type": "semantic_offset", "device": 0, "label": "game"},
]


@pytest.mark.parametrize("policy_name", ["e3", "fixed_heuristic"])
@pytest.mark.parametrize(
    ("scenario", "plan_rows", "warmup"),
    [("semantic", None, 0), ("semantic", LONG_SEMANTIC_WINDOW, 0), ("warmup", None, 30), ("churn", None, 0)],
    ids=["semantic", "semantic-long-window", "warmup-W30", "churn"],
)
def test_one_scoring_pass_equals_the_per_candidate_formula(scenario, plan_rows, warmup, policy_name):
    """At every decision of an overloaded run, the scores and the choice
    select_e3 traced equal (==) the per-candidate formula's: with risk flags
    set, cleared and expiring (semantic), in explore mode (between the two
    warmup points of every e3 run) and for handed-back tasks (churn)."""
    priors = priors_from_records(load_profiles(default_profiles_path()))
    truth = GroundTruthState(
        priors, prior_error=PRESETS[scenario]["prior_error"], service_jitter=PRESETS[scenario]["service_jitter"]
    )
    if policy_name == "e3":
        policy = build_agent(priors, PRESETS[scenario]["prefix"] or warmup, trace=[])
    else:
        policy = FixedHeuristicPolicy(priors)
        policy.trace = []
    seen = {"flagged": 0, "expired": 0, "explore": 0, "handback": 0}
    decided: set[int] = set()
    choose, decrement = policy.choose, policy.overrides.decrement

    def counting_decrement():
        before = set(policy.overrides.devices())
        decrement()
        seen["expired"] += len(before - set(policy.overrides.devices()))

    def checked_choose(task, obs):
        seen["flagged"] += bool(policy.overrides.devices())
        seen["explore"] += policy.config.policy == "explore_risk"
        seen["handback"] += task.task_id in decided
        decided.add(task.task_id)
        device = choose(task, obs)
        traced = policy.trace[-1]
        expected = per_candidate_scores(task, obs, policy)
        assert traced["task_id"] == task.task_id
        assert traced["scores"] == expected, task.task_id
        assert traced["chosen"] == device == min((s, d) for d, s in expected)[1]
        return device

    policy.choose = checked_choose
    policy.overrides.decrement = counting_decrement
    workload = generate_workload(600, 2.0)
    plan = PRESETS[scenario]["plan"] if plan_rows is None else plan_from_dicts(plan_rows)
    result = Engine(truth, plan, workload, policy).run()
    assert len(result.records) == len(policy.trace) - seen["handback"] == 600
    if policy_name == "e3":
        assert bool(seen["flagged"]) == (scenario == "semantic")
        assert bool(seen["expired"]) == (plan_rows is not None)
        assert seen["explore"]
    if scenario == "churn":
        assert seen["handback"]


def test_backlog_counts_queued_and_clipped_in_flight():
    priors = [DevicePrior(0, LLM, alpha0=10.0, beta0=0.0)]
    opm = Opm()
    opm.seed(priors)
    in_flight = InFlightView(TaskSpec(0, LLM, 0.0, 100, 0), start_time=0.0)
    snap = llm_snapshot(0, queued=[TaskSpec(1, LLM, 0.0, 50, 0)], in_flight=in_flight)
    # At now=400 the in-flight prediction (1000) has 600 remaining.
    assert backlog_ms(ObservableState(400.0, (snap,), ()), 0, opm.predict, 400.0, {}) == pytest.approx(500.0 + 600.0)
    # Past its predicted end the remainder clips to zero.
    assert backlog_ms(ObservableState(5000.0, (snap,), ()), 0, opm.predict, 5000.0, {}) == pytest.approx(500.0)


# --- baselines ------------------------------------------------------------------------


def test_round_robin_cycles_per_kind():
    policy = RoundRobinPolicy()
    obs = obs_with([llm_snapshot(0), llm_snapshot(1)])
    picks = [policy.choose(TaskSpec(i, LLM, 0.0, 256, 32), obs) for i in range(3)]
    assert picks == [0, 1, 0]


def test_round_robin_kind_cursors_are_independent():
    policy = RoundRobinPolicy()
    devices = [
        llm_snapshot(0),
        llm_snapshot(1),
        DeviceSnapshot(2, SDXL, True, (), None, 0),
        DeviceSnapshot(3, SDXL, True, (), None, 0),
    ]
    obs = obs_with(devices)
    assert policy.choose(TaskSpec(0, LLM, 0.0, 256, 32), obs) == 0
    assert policy.choose(TaskSpec(1, SDXL, 0.0), obs) == 2
    assert policy.choose(TaskSpec(2, LLM, 0.0, 256, 32), obs) == 1
    assert policy.choose(TaskSpec(3, SDXL, 0.0), obs) == 3


def test_round_robin_skips_unavailable():
    policy = RoundRobinPolicy()
    obs = obs_with([llm_snapshot(0), llm_snapshot(1, available=False)])
    picks = [policy.choose(TaskSpec(i, LLM, 0.0, 256, 32), obs) for i in range(2)]
    assert picks == [0, 0]


def test_fixed_heuristic_prefers_smaller_prior_prediction():
    policy = FixedHeuristicPolicy(
        [DevicePrior(0, LLM, alpha0=2.0, beta0=80.0), DevicePrior(1, LLM, alpha0=1.0, beta0=50.0)]
    )
    obs = obs_with([llm_snapshot(0), llm_snapshot(1)])
    task = TaskSpec(0, LLM, 0.0, 512, 64)
    assert policy.choose(task, obs) == 1


def test_fixed_heuristic_is_static_under_identical_observables():
    # The mapping never changes with hidden drift: same queues, same choice.
    policy = FixedHeuristicPolicy(
        [DevicePrior(0, LLM, alpha0=1.0, beta0=50.0), DevicePrior(1, LLM, alpha0=2.0, beta0=80.0)]
    )
    obs = obs_with([llm_snapshot(0), llm_snapshot(1)])
    task = TaskSpec(0, LLM, 0.0, 512, 64)
    first = policy.choose(task, obs)
    second = policy.choose(task, obs)
    assert first == second == 0


def test_baselines_have_no_learned_or_risk_inputs():
    priors = priors_from_records(load_profiles(default_profiles_path()))
    truth = GroundTruthState(priors, prior_error=PRESETS["drift"]["prior_error"], service_jitter=0.15)
    fh = FixedHeuristicPolicy(priors)
    result = Engine(truth, PRESETS["drift"]["plan"], generate_workload(300, 0.5), fh).run()
    assert len(result.records) == 300 and result.event_log  # the drift step and its restore fired
    # A drift run leaves the static baseline's surface as it was seeded.
    assert [op[0] for op in fh.opm.oplog] == ["seed"] and fh.opm.version == 1
    assert fh.overrides.devices() == []
    assert fh.config.to_dict() == RouterConfig().to_dict()
    rr = RoundRobinPolicy()
    assert not hasattr(rr, "opm")
    assert not hasattr(rr, "overrides")
    for policy in (fh, rr):
        # Without engine callbacks nothing can feed a baseline's state.
        for hook in ("on_task_arrival", "on_first_dispatch", "on_completion", "on_annotation"):
            assert not hasattr(policy, hook), (policy.name, hook)


# --- full-information reference -----------------------------------------------------


def oracle_engine(fixture_priors, plan=ScenarioPlan(()), prior_error=None):
    truth = make_truth(fixture_priors, prior_error=prior_error)
    policy = OraclePolicy()
    tasks = [TaskSpec(0, LLM, 0.0, 512, 64)]
    engine = Engine(truth, plan, tasks, policy)
    return engine, policy


def test_oracle_picks_true_fastest(fixture_priors):
    engine, policy = oracle_engine(fixture_priors)
    obs = engine.observable_state()
    # True times: device 0 -> 3712, device 1 -> 9984 on empty queues.
    assert select_oracle(TaskSpec(0, LLM, 0.0, 512, 64), policy._access, obs) == 0


def test_oracle_avoids_degraded_when_stable_exists(fixture_priors):
    engine, policy = oracle_engine(
        fixture_priors, plan=ScenarioPlan((SemanticOnset(0, 0, "game", 3.0), SemanticOffset(9, 0, "game")))
    )
    engine.truth.apply_event(SemanticOnset(0, 0, "game", 3.0))
    obs = engine.observable_state()
    assert select_oracle(TaskSpec(0, LLM, 0.0, 512, 64), policy._access, obs) == 1


def test_oracle_forced_onto_sole_degraded_device():
    priors = [DevicePrior(0, LLM, alpha0=1.0, beta0=50.0)]
    truth = make_truth(priors)
    policy = OraclePolicy()
    engine = Engine(truth, ScenarioPlan(()), [], policy)
    truth.apply_event(SemanticOnset(0, 0, "game", 3.0))
    obs = engine.observable_state()
    assert select_oracle(TaskSpec(0, LLM, 0.0, 512, 64), policy._access, obs) == 0


# --- risk override TTL ------------------------------------------------------------------


def test_ttl_expires_after_global_dispatches():
    table = RiskOverrideTable()
    table.set(0, ttl=3)
    for _ in range(2):
        table.decrement()
        assert table.is_risky(0)
    table.decrement()
    assert not table.is_risky(0)


def test_clear_is_immediate_and_set_requires_positive_ttl():
    table = RiskOverrideTable()
    table.set(0, ttl=50)
    assert table.clear(0)
    assert not table.is_risky(0)
    assert not table.clear(0)
    with pytest.raises(ValueError):
        table.set(0, ttl=0)


@pytest.mark.parametrize("ttl", [True, float("nan"), float("inf"), 2.0, "3"])
def test_set_rejects_a_ttl_that_is_not_an_int(ttl):
    table = RiskOverrideTable()
    with pytest.raises(ValueError, match="ttl must be an int >= 1, not a bool, got "):
        table.set(0, ttl)
    assert table.devices() == []


def churn_agent():
    """The agent and ground truth of an overloaded churn run, whose departures
    hand queued tasks back for redispatch."""
    priors = priors_from_records(load_profiles(default_profiles_path()))
    truth = GroundTruthState(
        priors, prior_error=PRESETS["churn"]["prior_error"], service_jitter=0.15
    )
    return build_agent(priors, warmup_budget=DYNAMIC_PREFIX_TASKS), truth


def test_agent_decrements_ttl_once_per_unique_task():
    """On a churn run the engine calls ``on_first_dispatch`` once per task id,
    redispatches included, so a risk flag set with ttl k expires at the k-th
    distinct task."""
    agent, truth = churn_agent()
    ttl = 300
    firsts: list[int] = []
    risky_after: list[bool] = []  # after each first dispatch's decrement
    on_first_dispatch = agent.on_first_dispatch

    def counting_first_dispatch(task):
        if not firsts:
            agent.overrides.set(0, ttl)
        firsts.append(task.task_id)
        on_first_dispatch(task)
        risky_after.append(agent.overrides.is_risky(0))

    agent.on_first_dispatch = counting_first_dispatch
    workload = generate_workload(600, 2.0)
    engine = Engine(truth, PRESETS["churn"]["plan"], workload, agent)
    seen: set[int] = set()
    redispatched_at: list[int] = []  # first dispatches so far at each redispatch
    dispatch = engine._dispatch

    def counting_dispatch(task, device):
        if task.task_id in seen:
            redispatched_at.append(len(firsts))
        seen.add(task.task_id)
        dispatch(task, device)

    engine._dispatch = counting_dispatch
    engine.run()
    assert sorted(firsts) == [task.task_id for task in workload]
    assert redispatched_at and min(redispatched_at) < ttl  # some while the flag is up
    assert risky_after == [n < ttl for n in range(1, len(workload) + 1)]


def test_dispatched_ids_are_only_the_queued_and_in_flight_tasks():
    """On a churn run, after every completion the tasks that had their first
    dispatch and have not completed are all queued, in flight or waiting for
    a device."""
    agent, truth = churn_agent()
    outstanding: set[int] = set()
    largest = 0
    on_first_dispatch = agent.on_first_dispatch

    def tracking_first_dispatch(task):
        assert task.task_id not in outstanding
        outstanding.add(task.task_id)
        on_first_dispatch(task)

    agent.on_first_dispatch = tracking_first_dispatch
    on_completion = agent.on_completion

    def checked_completion(record, now_task):
        nonlocal largest
        outstanding.remove(record.task_id)
        on_completion(record, now_task)
        devices = engine.devices.values()
        live = {t.task_id for dev in devices for t in dev.queue}
        live |= {dev.in_flight.task.task_id for dev in devices if dev.in_flight}
        live |= {t.task_id for t in engine._pending}
        assert outstanding <= live, record.task_id
        largest = max(largest, len(outstanding))

    agent.on_completion = checked_completion
    workload = generate_workload(600, 2.0)
    engine = Engine(truth, PRESETS["churn"]["plan"], workload, agent)
    result = engine.run()
    assert len(result.records) == len(workload)
    assert 0 < largest < len(workload)
    assert outstanding == set()


def router_tool(tool, arguments):
    """Run one router tool, the only way to change a RouterConfig; return the
    result and whether the config is as it was before the call."""
    meta = MetaController([DevicePrior(0, LLM, alpha0=1.0, beta0=1.0)])
    meta.attach_telemetry(SimpleNamespace(now=lambda: 0.0))
    meta.invocations.append(Invocation("warmup_point", 0, label="last"))  # the one served
    before = meta.config.to_dict()
    result = meta.execute_tool(ToolCall(tool, arguments))
    return result, meta.config.to_dict() == before


def test_router_config_validation():
    for tool, arguments in (
        ("switch_router", {"router": "bogus"}),
        ("set_router_params", {"explore_weight_ms": -1}),
    ):
        result, unchanged = router_tool(tool, arguments)
        assert not result.ok and unchanged, (tool, arguments)


@pytest.mark.parametrize("field", ["explore_weight_ms"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), True, "5"])
def test_router_config_rejects_non_finite_bool_and_text(field, value):
    result, unchanged = router_tool("set_router_params", {field: value})
    assert not result.ok and unchanged
    assert result.error.startswith(f"{field} must be ")


def test_oracle_choose_before_any_engine_attached_it_is_an_error():
    task = TaskSpec(0, LLM, 0.0, 256, 32)
    with pytest.raises(RuntimeError, match="oracle policy was never attached to a run"):
        OraclePolicy().choose(task, ObservableState(0.0, (), ()))
