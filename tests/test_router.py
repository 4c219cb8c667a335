"""Fast-path routing: scoring, risk gating, baselines, reference policy."""

import pytest

from conftest import make_truth
from edgesched.harness import DYNAMIC_PREFIX_TASKS, PRESETS, build_agent
from edgesched.metacontrol import MetaController
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
    FixedHeuristicPolicy,
    OraclePolicy,
    PolicyVisibleState,
    RiskOverrideTable,
    RoundRobinPolicy,
    RouterConfig,
    backlog_ms,
    score,
    select_e3,
    select_oracle,
)
from edgesched.sim.engine import (
    DeviceSnapshot,
    Engine,
    InFlightView,
    ObservableState,
    assert_no_ground_truth,
)
from edgesched.sim.truth import (
    GroundTruthState,
    ScenarioPlan,
    SemanticOffset,
    SemanticOnset,
    builtin_plans,
)
from edgesched.sim.workload import TaskSpec, generate_workload


def obs_with(devices, now=0.0):
    return ObservableState(now, tuple(devices), ())


def llm_snapshot(device_id, queued=(), in_flight=None, available=True):
    return DeviceSnapshot(device_id, LLM, available, tuple(queued), in_flight)


def seeded_state(priors, config=None, overrides=None, devices=None, now=0.0):
    opm = Opm()
    opm.seed(priors)
    devices = devices or [llm_snapshot(p.device_id) for p in priors]
    obs = obs_with(devices, now)
    return PolicyVisibleState(obs, opm, overrides or RiskOverrideTable(), config or RouterConfig())


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
    state, task = score_fixture(config=RouterConfig(policy="sect"))
    assert score(0, task, state) == pytest.approx(3000.0)


def test_score_ignores_the_risk_flag():
    # The gate in select_e3 handles risk; a flagged device scores as a safe one.
    overrides = RiskOverrideTable()
    overrides.set(0, ttl=10)
    state, task = score_fixture(config=RouterConfig(policy="sect"), overrides=overrides)
    assert score(0, task, state) == pytest.approx(3000.0)


def test_score_explore_mode_subtracts_uncertainty_bonus():
    state, task = score_fixture(config=RouterConfig(policy="explore_risk"))
    # Cold start: n = 0 so the uncertainty is 1 and the full bonus applies.
    assert score(0, task, state) == pytest.approx(1000.0)


def test_scores_may_go_negative():
    priors = [DevicePrior(0, LLM, alpha0=0.001, beta0=0.0)]
    state = seeded_state(priors, config=RouterConfig(policy="explore_risk"))
    task = TaskSpec(0, LLM, 0.0, 256, 32)
    assert score(0, task, state) < 0


# --- adaptive selection ------------------------------------------------------------


def two_device_state(config=None, overrides=None, alpha0=10.0, alpha1=10.0, q0=(), q1=()):
    priors = [
        DevicePrior(0, LLM, alpha0=alpha0, beta0=0.0),
        DevicePrior(1, LLM, alpha0=alpha1, beta0=0.0),
    ]
    devices = [llm_snapshot(0, queued=q0), llm_snapshot(1, queued=q1)]
    return seeded_state(priors, config=config, overrides=overrides, devices=devices)


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
    obs = obs_with([llm_snapshot(0), llm_snapshot(1)])
    state = PolicyVisibleState(obs, opm, RiskOverrideTable(), RouterConfig())
    select_e3(TaskSpec(0, LLM, 0.0, 100, 10), state)
    # Empty queues: exactly one prediction per candidate.
    assert sorted(calls) == [0, 1]


def test_trace_records_scores_and_choice():
    trace = []
    state = two_device_state()
    select_e3(TaskSpec(4, LLM, 0.0, 100, 0), state, trace)
    assert trace[0]["task_id"] == 4
    assert trace[0]["chosen"] == 0
    assert len(trace[0]["scores"]) == 2


def test_backlog_counts_queued_and_clipped_in_flight():
    priors = [DevicePrior(0, LLM, alpha0=10.0, beta0=0.0)]
    opm = Opm()
    opm.seed(priors)
    in_flight = InFlightView(TaskSpec(0, LLM, 0.0, 100, 0), start_time=0.0)
    snap = llm_snapshot(0, queued=[TaskSpec(1, LLM, 0.0, 50, 0)], in_flight=in_flight)
    # At now=400 the in-flight prediction (1000) has 600 remaining.
    assert backlog_ms(snap, opm.predict, 400.0) == pytest.approx(500.0 + 600.0)
    # Past its predicted end the remainder clips to zero.
    assert backlog_ms(snap, opm.predict, 5000.0) == pytest.approx(500.0)


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
        DeviceSnapshot(2, SDXL, True, (), None),
        DeviceSnapshot(3, SDXL, True, (), None),
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
    fh = FixedHeuristicPolicy([DevicePrior(0, LLM, alpha0=1.0, beta0=1.0)])
    rr = RoundRobinPolicy()
    for policy in (fh, rr):
        assert not hasattr(policy, "opm")
        assert not hasattr(policy, "overrides")
        # Without engine callbacks nothing can feed a baseline's state.
        for hook in ("on_task_arrival", "on_dispatch", "on_completion", "on_annotation"):
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


def test_agent_decrements_ttl_once_per_unique_task():
    opm = Opm()
    opm.seed([DevicePrior(0, LLM, alpha0=1.0, beta0=1.0)])
    agent = AdaptiveAgentPolicy(MetaController(opm, RouterConfig(), RiskOverrideTable()))
    agent.overrides.set(0, ttl=2)
    task = TaskSpec(0, LLM, 0.0, 256, 32)
    agent.on_dispatch(task, 0, 0.0)
    agent.on_dispatch(task, 0, 100.0)  # re-dispatch of the same task
    assert agent.overrides.is_risky(0)
    agent.on_dispatch(TaskSpec(1, LLM, 2000.0, 256, 32), 0, 2000.0)
    assert not agent.overrides.is_risky(0)


def test_dispatched_ids_are_only_the_queued_and_in_flight_tasks():
    """On an overloaded churn run, departures redispatch queued tasks; after
    every completion the agent's dispatched-id set holds only tasks that are
    queued, in flight or waiting for a device."""
    priors = priors_from_records(load_profiles(default_profiles_path()))
    truth = GroundTruthState(
        priors, prior_error=PRESETS["churn"]["prior_error"], service_jitter=0.15
    )
    agent = build_agent(priors, warmup_budget=DYNAMIC_PREFIX_TASKS)
    seen: set[int] = set()
    redispatches = 0
    largest = 0
    on_dispatch = agent.on_dispatch

    def counting_dispatch(task, device, now):
        nonlocal redispatches
        redispatches += task.task_id in seen
        seen.add(task.task_id)
        on_dispatch(task, device, now)

    agent.on_dispatch = counting_dispatch

    class Check:
        def on_record(self, record, now):
            nonlocal largest
            devices = engine.devices.values()
            live = {t.task_id for dev in devices for t in dev.tasks}
            live |= {dev.in_flight.entry.task.task_id for dev in devices if dev.in_flight}
            live |= {t.task_id for t in engine._pending}
            assert agent._dispatched <= live, record.task_id
            largest = max(largest, len(agent._dispatched))

    workload = generate_workload(600, 2.0)
    engine = Engine(truth, builtin_plans("churn"), workload, agent, hooks=Check())
    engine.run()
    assert redispatches > 0
    assert 0 < largest < len(workload)
    assert agent._dispatched == set()


def test_policy_visible_state_serializes_without_ground_truth():
    state = two_device_state()
    assert_no_ground_truth(state.to_dict())


def test_router_config_validation():
    with pytest.raises(ValueError):
        RouterConfig(policy="bogus")
    with pytest.raises(ValueError):
        RouterConfig(explore_weight_ms=-1)


@pytest.mark.parametrize("field", ["explore_weight_ms"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), True, "5"])
def test_router_config_rejects_non_finite_bool_and_text(field, value):
    with pytest.raises(ValueError, match=field):
        RouterConfig(**{field: value})
