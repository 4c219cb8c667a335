"""Host-speed reference: scales CPU-time samples to a fixed host speed.

On a shared VM the host's speed changes under other tenants' load: the same
deterministic experiment took 1.6 s or 3.4 s of CPU time, and a fixed loop
switched between about 0.04 s and 0.08 s, holding each state for several
seconds.  The benchmark therefore times a fixed piece of stdlib-only
interpreter work (no edgesched code, so no change to the program can move it)
about every second, and scales each sample taken between two such
measurements by ``REFERENCE_S`` over their mean.  A sample then reads as the
CPU seconds it would have taken while the reference work took
``REFERENCE_S``; a faster or slower program still moves it in full.
"""

from __future__ import annotations

import hashlib
import heapq
import time

# CPU seconds reference_work took on the 2-core Intel Xeon VM the bounds were
# tuned on (Python 3.11.7).  It only sets the unit; it cancels in every ratio.
REFERENCE_S = 0.040
# Seconds between two reference measurements.
EVERY_S = 1.0


def reference_work() -> float:
    """Fixed mix of dict, tuple, heap, float and md5 work, like the simulator's."""
    heap: list[tuple[int, int]] = []
    table: dict[tuple[int, int], float] = {}
    acc = 0.0
    for i in range(40_000):
        key = (i % 97, i % 89)
        table[key] = table.get(key, 0.0) + i * 0.5
        heapq.heappush(heap, (i * 7919 % 10007, i))
        if len(heap) > 64:
            heapq.heappop(heap)
        acc += (i % 13) * 1.5
    for i in range(2_000):
        acc += hashlib.md5(str(i).encode()).digest()[0]
    return acc


def reference_s() -> float:
    start = time.process_time()
    reference_work()
    return time.process_time() - start


class HostScale:
    """Holds CPU-time samples until the next reference, then scales them."""

    def __init__(self) -> None:
        self.references = [reference_s()]
        self._held: list[tuple[list, float]] = []
        self._since = time.perf_counter()

    def add(self, into: list, cpu_s: float) -> None:
        """Queue ``cpu_s``; its scaled value is appended to ``into`` later."""
        self._held.append((into, cpu_s))

    def tick(self, force: bool = False) -> None:
        """Measure the reference once ``EVERY_S`` has passed (or if ``force``)
        and release the held samples, scaled."""
        if not self._held or (not force and time.perf_counter() - self._since < EVERY_S):
            return
        ref = reference_s()
        scale = 2.0 * REFERENCE_S / (self.references[-1] + ref)
        for into, cpu_s in self._held:
            into.append(cpu_s * scale)
        self._held.clear()
        self.references.append(ref)
        self._since = time.perf_counter()
