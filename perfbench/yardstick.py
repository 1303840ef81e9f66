"""A fixed pure-Python yardstick for how fast the host runs right now.

The benchmark's host, a shared 2-vCPU VM, drifts by up to 1.4x within a
few minutes, while its fastest moments stay where they were: the drift
is contention, not a slower machine. A host-time metric then moves as
much with the neighbours' load as with the code. So each worker runs
this yardstick between repetitions (and the cold workload inside its
one long repetition), and ``run.py`` converts host seconds into
*reference seconds*: a host second is worth
``REFERENCE_UNIT_S / unit_s`` reference seconds, where ``unit_s`` is the
yardstick's mean time in the same process. On a host as busy as the one
the constant was taken on, the two are equal.

The work is the same kind the simulator does (small slotted objects,
dict reads and writes, float arithmetic, a bounded heap) so that
contention slows both alike. It never changes: a change to this file
changes every time metric, and makes results before and after it
incomparable.
"""

from __future__ import annotations

import gc
import heapq
import time

#: Seconds one :func:`unit` took on the reference host (a 2.1 GHz Intel
#: Xeon vCPU, Python 3.11.7) at a quiet time.
REFERENCE_UNIT_S = 0.065

_N = 50_000


class _Item:
    __slots__ = ("key", "size", "cost")

    def __init__(self, key: int, size: int) -> None:
        self.key = key
        self.size = size
        self.cost = 0.0


def _work() -> float:
    table = {}
    heap = []
    acc = 0.0
    for i in range(_N):
        item = _Item(i % 4099, (i * 7919) % 97 + 1)
        item.cost = table.get(item.key, 0.0) * 0.5 + item.size * 1.25
        table[item.key] = item.cost
        heapq.heappush(heap, (item.cost, i))
        if len(heap) > 64:
            acc += heapq.heappop(heap)[0]
    return acc


def unit() -> float:
    """Host seconds one fixed unit of work takes now.

    The garbage collector is off for the unit: a collection would scan
    the calling process's heap, and tie the unit's time to what the
    workload keeps alive instead of to the host. The unit makes no
    reference cycles, so nothing is left for the collector afterwards.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        _work()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()
