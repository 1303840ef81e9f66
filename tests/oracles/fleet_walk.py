"""Per-iteration fleet drain: the event calendar's equivalence oracle.

:meth:`repro.fleet.FleetSimulator.run` drains its shards off a cached
next-event calendar (``repro.fleet.simulator._DrainCalendar``): it pops
the globally next-acting shard and advances it in one coalesced pass up
to the runner-up's key, or runs an open-loop fleet's shards dry at once.
This module keeps the walk the calendar replaced, as a drop-in for that
class: every pop rescans every shard, picks the busy one whose next
iteration starts first (lowest shard id on ties, like ``min()``) and
reports a horizon equal to its own key, so the fleet loop's tie branch
runs exactly one :meth:`~repro.serving.ContinuousBatchingScheduler.advance_one`
on it. Open-loop drains are stepped one iteration at a time too.

Tests and benchmarks assert that the calendar and this walk agree bit
for bit; nothing under ``src/`` imports it. Import it as
``from oracles.fleet_walk import run_reference`` with the ``tests``
directory on ``sys.path`` (pytest puts it there through
``tests/conftest.py``).
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

from repro.fleet import FleetReport, FleetSimulator
from repro.fleet import simulator as fleet_simulator
from repro.serving import ContinuousBatchingScheduler, RequestSource

__all__ = ["WalkingDrain", "run_reference"]


class WalkingDrain:
    """``_DrainCalendar`` stand-in that rescans every shard per pop.

    It caches nothing, so the calendar's invalidation calls are no-ops,
    and it ignores ``open_loop``.
    """

    def __init__(
        self, shards: Sequence[ContinuousBatchingScheduler], open_loop: bool
    ) -> None:
        self._shards = shards

    def invalidate_all(self) -> None:
        pass

    def reschedule(self, shard_id: int) -> None:
        pass

    def pop(self) -> Optional[Tuple[float, int, float]]:
        """The minimal busy shard as ``(key, shard_id, key)``, or None."""
        keys = [
            (shard.next_event_s(), i)
            for i, shard in enumerate(self._shards)
            if not shard.idle
        ]
        if not keys:
            return None
        key, i = min(keys)
        return key, i, key


def run_reference(fleet: FleetSimulator, source: RequestSource) -> FleetReport:
    """``fleet.run(source)``, drained by :class:`WalkingDrain`."""
    calendar = fleet_simulator._DrainCalendar
    fleet_simulator._DrainCalendar = WalkingDrain
    try:
        return fleet.run(source)
    finally:
        fleet_simulator._DrainCalendar = calendar
