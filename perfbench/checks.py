"""Correctness checks on one experiment's result.

Each check returns failure messages; an empty list means the experiment is
correct.  The oracle-lowest rule is a gate only on the shipped presets,
where the acceptance suite holds it; elsewhere the benchmark counts the cases.
"""

from __future__ import annotations


def check_runs(result, horizon: int) -> list[str]:
    """Every policy completes each task exactly once, and every device keeps
    arrival <= dispatch <= start with no two service intervals overlapping."""
    failures = []
    for name, run in result.runs.items():
        ids = sorted(r.task_id for r in run.records)
        if ids != list(range(horizon)):
            failures.append(f"{name}: {len(ids)} completions, {len(set(ids))} distinct, want each of {horizon} once")
        by_device: dict[int, list] = {}
        for r in run.records:
            by_device.setdefault(r.device_id, []).append(r)
        for device, records in by_device.items():
            records.sort(key=lambda r: (r.start_time, r.completion_time))
            previous_end = float("-inf")
            for r in records:
                if not (r.arrival_time <= r.dispatch_time <= r.start_time <= r.completion_time):
                    failures.append(f"{name}: task {r.task_id} on device {device} breaks arrival <= dispatch <= start")
                    break
                if r.start_time < previous_end:
                    failures.append(f"{name}: task {r.task_id} starts on device {device} before the previous one ends")
                    break
                previous_end = r.completion_time
    return failures


def oracle_beaten_by(result) -> list[str]:
    """Policies whose mean latency is below the oracle's."""
    policies = result.report.policies
    if "oracle" not in policies:
        return []
    floor = policies["oracle"].avg_latency_ms
    return sorted(n for n, m in policies.items() if n != "oracle" and m.avg_latency_ms < floor)
