"""Which public functions of each edgesched layer the traced run wraps.

Each function is patched in the namespace that calls it: ``harness`` imports
``generate_workload``, ``emit_report``, ``build_agent``, ``compute_metrics``
and ``load_profiles`` by name; ``router.select_e3`` and ``router.backlog_ms``,
and ``metacontrol.evaluate_triggers`` and ``metacontrol.scripted_policy``, are
looked up as module globals; methods are patched on their classes.  Private
internals (``_jitter_unit``, ``Engine._route``, ``MetaController._invoke``)
are not wrapped, so their time shows in the self time of the nearest
wrapped caller.
"""

from __future__ import annotations

from spans import Tracer

POLICIES = ("e3", "fixed_heuristic", "round_robin", "oracle")
REASONS = ("semantic_onset", "semantic_offset", "residual_alarm", "warmup_point", "churn_event")


def _task_id(index: int):
    return lambda args: args[index].task_id


def install(tracer: Tracer) -> None:
    """Wrap the layer boundaries of the imported edgesched package."""
    from edgesched import harness, metacontrol, opm, router
    from edgesched.sim import engine, truth

    req = tracer.request
    in_e3 = [0]

    # -- edgesched.sim
    def on_run(args):
        req[2] = args[0].policy.name
        req[3] = -1

    def on_observable(args, obs):
        tracer.count("sim.observable_state.items", sum(len(s.queued) for s in obs.devices) + len(obs.annotations))

    tracer.patch(engine.Engine, "run", "sim.run", before=on_run)
    tracer.patch(engine.Engine, "observable_state", "sim.observable_state", sample=True, after=on_observable)
    tracer.patch(engine.Engine, "true_backlog_ms", "sim.true_backlog_ms")
    tracer.patch(truth.GroundTruthState, "true_service_time", "sim.true_service_time", task_of=_task_id(2))
    tracer.patch(harness, "generate_workload", "sim.generate_workload")

    # -- edgesched.router
    def enter_e3(args):
        in_e3[0] += 1
        tracer.count("router.e3_decisions")

    def leave_e3(args, out):
        in_e3[0] -= 1

    def gate(args):
        task, state = args[0], args[1]
        candidates = state.candidates(task.kind)
        risky = sum(1 for d in candidates if state.overrides.is_risky(d))
        if risky and risky == len(candidates):
            tracer.count("router.risk_gate.route_anyway")
        else:
            tracer.count("router.risk_gate.excluded", risky)

    policy_classes = {
        "e3": router.AdaptiveAgentPolicy,
        "fixed_heuristic": router.FixedHeuristicPolicy,
        "round_robin": router.RoundRobinPolicy,
        "oracle": router.OraclePolicy,
    }
    for name, cls in policy_classes.items():
        hooks = {"before": enter_e3, "after": leave_e3} if name == "e3" else {}
        tracer.patch(cls, "choose", f"router.choose.{name}", sample=True, task_of=_task_id(1), **hooks)
    tracer.patch(router, "select_e3", "router.select_e3", before=gate)
    tracer.patch(router, "backlog_ms", "router.backlog_ms")

    # -- edgesched.opm
    raw_predict = opm.Opm.predict

    def on_ingest(args):
        model, record = args[0], args[1]
        if record.service_ms > 0:
            predicted = raw_predict(model, record.device_id, record)
            tracer.value("opm.rel_error", abs(predicted - record.service_ms) / record.service_ms)

    def on_predict(args):
        if in_e3[0]:
            tracer.count("router.e3_predicts")

    def on_refit(args, out):
        if out == "updated":
            tracer.count("opm.refit.updated")

    tracer.patch(opm.Opm, "ingest_feedback", "opm.ingest_feedback", task_of=_task_id(1), before=on_ingest)
    tracer.patch(opm.Opm, "predict", "opm.predict", task_of=_task_id(2), before=on_predict)
    tracer.patch(opm.Opm, "drift_ratio", "opm.drift_ratio", sample=True)
    tracer.patch(opm.Opm, "refit", "opm.refit", after=on_refit)
    tracer.patch(opm.Opm, "apply_calibration", "opm.apply_calibration")

    # -- edgesched.metacontrol
    def on_trigger(args, out):
        tracer.count("meta.triggers.evaluated")
        if out is not None:
            tracer.count("meta.triggers.fired")

    tracer.patch(metacontrol, "evaluate_triggers", "meta.evaluate_triggers", after=on_trigger)
    tracer.patch(metacontrol, "scripted_policy", "meta.invoke", sample=True)
    tracer.patch(metacontrol.MetaController, "on_feedback", "meta.on_feedback", task_of=_task_id(1))

    # -- edgesched.harness / edgesched.profiles
    tracer.patch(harness, "run_experiment", "harness.run_experiment")
    tracer.patch(harness, "build_agent", "harness.build_agent")
    tracer.patch(harness, "compute_metrics", "harness.compute_metrics")
    tracer.patch(harness, "emit_report", "harness.emit_report")
    tracer.patch(harness, "load_profiles", "profiles.load_profiles")


def after_experiment(tracer: Tracer, result, emitted_bytes: int) -> None:
    """Add the facts an experiment's result holds to the tracer's counters."""
    for name, run in result.runs.items():
        for r in run.records:
            tracer.value(f"sim.queue_wait_ms.{name}", r.start_time - r.dispatch_time)
        tracer.count("sim.completions", len(run.records))
    tracer.count("harness.emit_report.bytes", emitted_bytes)
    agent = result.agent
    if agent is not None:
        tracer.count("opm.oplog_len", len(agent.opm.oplog))
        for inv in agent.meta.invocations:
            tracer.count(f"meta.invocations.{inv.reason}")
        tracer.count("meta.tool_calls", agent.meta.tool_calls)
    if result.audit is not None:
        entries = result.audit.entries
        tracer.count("meta.audit_entries", len(entries))
        rejects = sum(1 for e in entries if isinstance(e.result, str) and e.result.startswith("rejected"))
        tracer.count("meta.tool_rejects", rejects)


def _pct(values, p: float) -> float:
    """Nearest-rank percentile; 0.0 for an empty sample."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * p // 100))
    return float(ordered[int(rank) - 1])


def per_layer_metrics(tracer: Tracer, experiments: int, overhead_pct: float) -> dict[str, tuple[float, str]]:
    """Per-layer figures; counts and times are per traced experiment."""
    n = max(experiments, 1)
    st = tracer.stats
    c = tracer.counters.get

    def calls(name):
        return st[name][0] / n

    def secs(name):
        return st[name][1] / 1e9 / n

    def self_s(name):
        return st[name][2] / 1e9 / n

    def us(name, p):
        return _pct(tracer.samples[name], p) / 1e3

    def ratio(a, b):
        return a / b if b else 0.0

    route_calls = sum(st[f"router.choose.{p}"][0] for p in POLICIES)
    harness_ns = sum(
        st[k][2] if k == "harness.run_experiment" else st[k][1]
        for k in ("harness.run_experiment", "harness.build_agent", "harness.compute_metrics",
                  "harness.emit_report", "profiles.load_profiles")
    )
    m: dict[str, tuple[float, str]] = {
        "sim.route_calls": (route_calls / n, "count"),
        "sim.tasks_per_route": (ratio(c("sim.completions", 0), route_calls), "ratio"),
        "sim.run.self_s": (self_s("sim.run"), "s"),
        "sim.observable_state.s": (secs("sim.observable_state"), "s"),
        "sim.observable_state.us_p99": (us("sim.observable_state", 99), "us"),
        "sim.observable_state.items": (c("sim.observable_state.items", 0) / n, "count"),
        "sim.true_service_time.calls": (calls("sim.true_service_time"), "count"),
        "sim.true_service_time.s": (secs("sim.true_service_time"), "s"),
        "sim.true_backlog_ms.calls": (calls("sim.true_backlog_ms"), "count"),
        "sim.true_backlog_ms.s": (secs("sim.true_backlog_ms"), "s"),
    }
    for p in POLICIES:
        waits = tracer.values.get(f"sim.queue_wait_ms.{p}", [])
        m[f"sim.queue_wait_ms_p50.{p}"] = (_pct(waits, 50), "sim_ms")
        m[f"sim.queue_wait_ms_p99.{p}"] = (_pct(waits, 99), "sim_ms")
    m["sim.generate_workload.s"] = (secs("sim.generate_workload"), "s")
    for p in POLICIES:
        m[f"router.choose.{p}.us_p50"] = (us(f"router.choose.{p}", 50), "us")
        m[f"router.choose.{p}.us_p99"] = (us(f"router.choose.{p}", 99), "us")
    m.update(
        {
            "router.backlog_ms.calls": (calls("router.backlog_ms"), "count"),
            "router.backlog_ms.s": (secs("router.backlog_ms"), "s"),
            "router.predict_per_decision": (ratio(c("router.e3_predicts", 0), c("router.e3_decisions", 0)), "ratio"),
            "router.risk_gate.excluded": (c("router.risk_gate.excluded", 0) / n, "count"),
            "router.risk_gate.route_anyway": (c("router.risk_gate.route_anyway", 0) / n, "count"),
            "opm.ingest_feedback.calls": (calls("opm.ingest_feedback"), "count"),
            "opm.ingest_feedback.s": (secs("opm.ingest_feedback"), "s"),
            "opm.predict.calls": (calls("opm.predict"), "count"),
            "opm.predict.s": (secs("opm.predict"), "s"),
            "opm.drift_ratio.calls": (calls("opm.drift_ratio"), "count"),
            "opm.drift_ratio.s": (secs("opm.drift_ratio"), "s"),
            "opm.drift_ratio.us_p99": (us("opm.drift_ratio", 99), "us"),
            "opm.refit.calls": (calls("opm.refit"), "count"),
            "opm.refit.s": (secs("opm.refit"), "s"),
            "opm.refit.updated_ratio": (ratio(c("opm.refit.updated", 0), st["opm.refit"][0]), "ratio"),
            "opm.apply_calibration.calls": (calls("opm.apply_calibration"), "count"),
            "opm.oplog_len": (c("opm.oplog_len", 0) / n, "count"),
            "opm.rel_error_p50": (_pct(tracer.values.get("opm.rel_error", []), 50), "ratio"),
            "opm.rel_error_p90": (_pct(tracer.values.get("opm.rel_error", []), 90), "ratio"),
            "meta.triggers.evaluated": (c("meta.triggers.evaluated", 0) / n, "count"),
            "meta.triggers.fired_ratio": (
                ratio(c("meta.triggers.fired", 0), c("meta.triggers.evaluated", 0)), "ratio"),
        }
    )
    for reason in REASONS:
        m[f"meta.invocations.{reason}"] = (c(f"meta.invocations.{reason}", 0) / n, "count")
    m.update(
        {
            "meta.invoke.us_p50": (us("meta.invoke", 50), "us"),
            "meta.invoke.us_p99": (us("meta.invoke", 99), "us"),
            "meta.on_feedback.self_s": (self_s("meta.on_feedback"), "s"),
            "meta.tool_calls": (c("meta.tool_calls", 0) / n, "count"),
            "meta.tool_rejects": (c("meta.tool_rejects", 0) / n, "count"),
            "meta.audit_entries": (c("meta.audit_entries", 0) / n, "count"),
            "harness.run_experiment.self_s": (self_s("harness.run_experiment"), "s"),
            "harness.build_agent.s": (secs("harness.build_agent"), "s"),
            "harness.compute_metrics.s": (secs("harness.compute_metrics"), "s"),
            "harness.emit_report.s": (secs("harness.emit_report"), "s"),
            "harness.emit_report.bytes": (c("harness.emit_report.bytes", 0) / n, "bytes"),
            "harness.share_pct": (100.0 * ratio(harness_ns, st["harness.run_experiment"][1]), "%"),
            "profiles.load_profiles.s": (secs("profiles.load_profiles"), "s"),
            "trace.overhead_pct": (overhead_pct, "%"),
        }
    )
    return m
