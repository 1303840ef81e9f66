"""Single-scheduler source loop: the one-shard fleet's equivalence oracle.

:meth:`repro.serving.ServingSimulator.run` serves a scenario on a
one-shard :class:`repro.fleet.FleetSimulator`, which routes every
arrival and every closed-loop follow-up through its global loop. This
module keeps the loop the scheduler used to run on its own: submit the
source's initial requests, hand each completion's follow-up straight
back to the same scheduler (submitted if it could ever be admitted,
otherwise counted as rejected), advance once to ``inf`` and label the
result with the source's name and the rejections.

Tests assert that a one-shard fleet and this loop agree field for
field; nothing under ``src/`` imports it. Import it as
``from oracles.source_loop import run_source`` with the ``tests``
directory on ``sys.path`` (pytest puts it there through
``tests/conftest.py``).
"""

from __future__ import annotations

import math
from dataclasses import replace

from repro.errors import ConfigError
from repro.serving import ContinuousBatchingScheduler, RequestSource, ServingResult

__all__ = ["SourceLoop", "run_source"]


class SourceLoop:
    """One source feeding one fresh scheduler.

    Construction submits the source's initial requests and installs the
    follow-up hook in place of the scheduler's completion hook; the
    caller advances the scheduler, then reads :meth:`result`.
    """

    def __init__(
        self, scheduler: ContinuousBatchingScheduler, source: RequestSource
    ) -> None:
        self.scheduler = scheduler
        self.source = source
        self.n_rejected = 0
        scheduler._on_complete = self._follow_up
        initial = source.initial()
        for request in initial:
            scheduler.submit(request)
        if not initial:
            raise ConfigError(f"source {source.name!r} produced no requests")

    def _follow_up(self, request, finish_s: float) -> None:
        follow_up = self.source.on_complete(request, finish_s)
        if follow_up is None:
            return
        # A follow-up drawn mid-run must not abort the simulation: one
        # that could never fit is rejected and counted.
        if self.scheduler.can_ever_admit(follow_up):
            self.scheduler.submit(follow_up)
        else:
            self.n_rejected += 1

    def result(self) -> ServingResult:
        """The scheduler's result, labelled with the source and rejections."""
        return replace(
            self.scheduler.result(),
            source_name=self.source.name,
            n_rejected_followups=self.n_rejected,
        )


def run_source(
    scheduler: ContinuousBatchingScheduler, source: RequestSource
) -> ServingResult:
    """Serve ``source`` on a fresh ``scheduler`` to completion."""
    loop = SourceLoop(scheduler, source)
    scheduler.advance_until(math.inf)
    return loop.result()
