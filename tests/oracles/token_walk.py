"""Per-token scheduler walk: the serving hot loop's equivalence oracle.

:meth:`repro.serving.ContinuousBatchingScheduler.advance_until` advances
stable decode runs in one coalesced pass. This module keeps the walk it
replaced: submit every request of the scheduler's source, then step
:meth:`~repro.serving.ContinuousBatchingScheduler.advance_one` — one
prefill or one batched decode iteration at a time — until it reports
nothing left to do, and package the result.

Tests and benchmarks assert that a scheduler's ``run()`` and this walk
agree field for field; nothing under ``src/`` imports it. Import it as
``from oracles.token_walk import walk_tokens`` with the ``tests``
directory on ``sys.path`` (pytest puts it there through
``tests/conftest.py``).
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.serving import ContinuousBatchingScheduler, ServingResult

__all__ = ["walk_tokens"]


def walk_tokens(
    scheduler: ContinuousBatchingScheduler,
    on_step: Optional[Callable[[ContinuousBatchingScheduler], None]] = None,
) -> ServingResult:
    """Run a fresh scheduler's source to completion, one step at a time.

    ``on_step`` is called after every iteration, so property tests can
    check invariants at each boundary.
    """
    for request in scheduler.source.initial():
        scheduler.submit(request)
    while scheduler.advance_one():
        if on_step is not None:
            on_step(scheduler)
    return scheduler.result()
