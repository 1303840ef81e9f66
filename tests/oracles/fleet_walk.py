"""Per-iteration fleet drain: the event calendar's equivalence oracle.

:meth:`repro.fleet.FleetSimulator.run` drains its shards off a
next-event calendar (``repro.fleet.simulator._DrainCalendar``): it pops
the globally next-acting shard and advances it in one coalesced pass up
to a horizon taken from the runner-up's key, or runs an open-loop
fleet's shards dry at once. This module keeps the walk the calendar
replaced, as a drop-in for that class: every pop rescans every shard,
picks the busy one whose next iteration starts first (lowest shard id on
ties, like ``min()``) and reports the first float past its own key as
the horizon, so the fleet loop runs exactly one iteration on it.
Open-loop drains are stepped one iteration at a time too. The drain
also binds ``oracles.token_walk.decode_step`` on every shard, so the
shards decode one token per iteration and the walk never runs the
coalesced decode run it checks.

Tests and benchmarks assert that the calendar and this walk agree bit
for bit; nothing under ``src/`` imports it. Import it as
``from oracles.fleet_walk import run_reference`` with the ``tests``
directory on ``sys.path`` (pytest puts it there through
``tests/conftest.py``).
"""

from __future__ import annotations

import math
from typing import Optional, Sequence, Tuple

from oracles.token_walk import bind_decode_step
from repro.fleet import FleetReport, FleetSimulator
from repro.fleet import simulator as fleet_simulator
from repro.serving import ContinuousBatchingScheduler, RequestSource

__all__ = ["WalkingDrain", "run_reference"]


class WalkingDrain:
    """``_DrainCalendar`` stand-in that rescans every shard per pop.

    It ignores ``open_loop``. Constructing it makes every shard step one
    token at a time.
    """

    def __init__(
        self, shards: Sequence[ContinuousBatchingScheduler], open_loop: bool
    ) -> None:
        self._shards = shards
        for shard in shards:
            bind_decode_step(shard)

    def pop(self) -> Optional[Tuple[int, float]]:
        """The minimal busy shard as ``(shard_id, nextafter(key))``, or None."""
        keys = [
            (shard.next_event_s(), i)
            for i, shard in enumerate(self._shards)
            if not shard.idle
        ]
        if not keys:
            return None
        key, i = min(keys)
        return i, math.nextafter(key, math.inf)


def run_reference(fleet: FleetSimulator, source: RequestSource) -> FleetReport:
    """``fleet.run(source)``, drained by :class:`WalkingDrain`."""
    calendar = fleet_simulator._DrainCalendar
    fleet_simulator._DrainCalendar = WalkingDrain
    try:
        return fleet.run(source)
    finally:
        fleet_simulator._DrainCalendar = calendar
