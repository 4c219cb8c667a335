"""In-memory span tracer that wraps public functions from outside the program.

``Tracer.patch`` swaps a function or method on its owner (a module or a
class) for a wrapper that records one span per call; ``Tracer.restore`` puts
every original back.  A span has a name, start and end (``perf_counter_ns``),
its parent span and the request it served: (workload, experiment, policy,
task_id).  Self time is a span's duration minus the time its child spans
cover; it is computed as spans close, so it is exact for every call even
after the kept-span cap is reached.
"""

from __future__ import annotations

import json
from time import perf_counter_ns


class Tracer:
    """Aggregates every wrapped call and keeps the first ``span_cap`` spans."""

    def __init__(self, span_cap: int = 100_000) -> None:
        self.span_cap = span_cap
        # name -> [calls, total_ns, self_ns]
        self.stats: dict[str, list[int]] = {}
        # name -> per-call durations in ns, for names that report percentiles
        self.samples: dict[str, list[int]] = {}
        self.counters: dict[str, int] = {}
        self.values: dict[str, list[float]] = {}
        self.spans: list[tuple] = []
        self.dropped = 0
        self.request = ["", -1, "", -1]  # workload, experiment, policy, task_id
        self._stack: list[list[int]] = []  # [span_id, child_ns, task_id]
        self._next_id = 0
        self._patches: list[tuple[object, str, object]] = []

    def count(self, name: str, n: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + n

    def value(self, name: str, x: float) -> None:
        self.values.setdefault(name, []).append(x)

    def patch(self, owner, attr: str, name: str, *, sample=False, task_of=None, before=None, after=None):
        """Wrap ``owner.attr`` so each call records a span called ``name``.

        ``task_of(args)`` gives the task id of the call's request (otherwise
        the parent's is used); ``before(args)`` and ``after(args, out)`` run
        outside the span, so their cost lands in the parent's self time.
        """
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        stats = self.stats.setdefault(name, [0, 0, 0])
        durations = self.samples.setdefault(name, []) if sample else None
        stack = self._stack
        spans = self.spans
        request = self.request
        tracer = self

        def wrapper(*args, **kwargs):
            if before is not None:
                before(args)
            span_id = tracer._next_id
            tracer._next_id = span_id + 1
            task = task_of(args) if task_of is not None else (stack[-1][2] if stack else -1)
            frame = [span_id, 0, task]
            stack.append(frame)
            start = perf_counter_ns()
            try:
                out = original(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                elapsed = end - start
                if stack:
                    stack[-1][1] += elapsed
                stats[0] += 1
                stats[1] += elapsed
                stats[2] += elapsed - frame[1]
                if durations is not None:
                    durations.append(elapsed)
                if len(spans) < tracer.span_cap:
                    parent = stack[-1][0] if stack else -1
                    spans.append((span_id, parent, name, start, end, request[0], request[1], request[2], task))
                else:
                    tracer.dropped += 1
            if after is not None:
                after(args, out)
            return out

        wrapper.__wrapped__ = original
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def restore(self) -> None:
        """Put back every original, last patch first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, name, start, end, workload, exp, policy, task in self.spans:
                fh.write(
                    json.dumps(
                        {
                            "id": sid,
                            "parent": parent,
                            "name": name,
                            "start_ns": start,
                            "end_ns": end,
                            "request": [workload, exp, policy, task],
                        }
                    )
                    + "\n"
                )
