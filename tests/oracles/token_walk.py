"""Per-token scheduler walk: the serving hot loop's equivalence oracle.

:meth:`repro.serving.ContinuousBatchingScheduler.advance_until` advances
stable decode runs in one coalesced pass (``_decode_run``). This module
keeps the walk it replaced: :func:`decode_step` runs exactly one batched
decode iteration, and binding it on a scheduler in place of
``_decode_run`` makes every advance of that scheduler step one token at
a time — so the oracle never runs the coalesced code it checks.
:func:`walk_tokens` binds it, submits every request of the scheduler's
source, steps :meth:`~repro.serving.ContinuousBatchingScheduler.advance_one`
until it reports nothing left to do, and packages the result;
``oracles.fleet_walk.WalkingDrain`` binds it on every fleet shard.

Tests and benchmarks assert that a scheduler's ``run()`` and this walk
agree field for field; nothing under ``src/`` imports it. Import it as
``from oracles.token_walk import walk_tokens`` with the ``tests``
directory on ``sys.path`` (pytest puts it there through
``tests/conftest.py``).
"""

from __future__ import annotations

from types import MethodType
from typing import Callable, Optional

from repro.serving import ContinuousBatchingScheduler, ServingResult
from repro.utils import ceil_div

__all__ = ["decode_step", "bind_decode_step", "walk_tokens"]


def decode_step(scheduler: ContinuousBatchingScheduler, t_s: float) -> None:
    """One batched decode iteration (the per-token walk's step).

    Has ``_decode_run``'s signature so it can stand in for it; ``t_s``
    is unused, since the scheduler only starts a step before its
    horizon and one step is all this ever runs.
    """
    s = scheduler
    d_ctx, d_left = s._d_ctx, s._d_left
    d_last, d_tbt = s._d_last, s._d_tbt
    n = len(s._d_req)  # admission keeps n <= max_batch
    # The batch decodes at the deepest member's context, rounded up to
    # the cache bucket within the model's limit; a conservative
    # (upper-bound) latency for the shallower members.
    raw_ctx = max(d_ctx) + 1
    bucketed = min(
        ceil_div(raw_ctx, s.ctx_bucket) * s.ctx_bucket,
        s.engine.model.max_seq_len,
    )
    point = s.engine.surface.decode(bucketed, batch=n)
    t0 = s._clock
    s._clock += point.latency_s * s.latency_scale
    s._energy_uj += point.energy_uj
    c = s._clock
    for i in range(n):
        d_ctx[i] += 1
        d_left[i] -= 1
        # Wall-clock gap since the previous token: includes any prefill
        # iterations that stalled this request's stream, not just this
        # decode step's latency.
        d_tbt[i].append(c - d_last[i])
        d_last[i] = c
    if min(d_left) <= 0:
        s._retire_finished()
    s._log_step(t0, 1, n)


def bind_decode_step(scheduler: ContinuousBatchingScheduler) -> None:
    """Make ``scheduler`` run :func:`decode_step` in place of ``_decode_run``."""
    scheduler._decode_run = MethodType(decode_step, scheduler)


def walk_tokens(
    scheduler: ContinuousBatchingScheduler,
    on_step: Optional[Callable[[ContinuousBatchingScheduler], None]] = None,
) -> ServingResult:
    """Run a fresh scheduler's source to completion, one step at a time.

    ``on_step`` is called after every iteration, so property tests can
    check invariants at each boundary.
    """
    bind_decode_step(scheduler)
    for request in scheduler.source.initial():
        scheduler.submit(request)
    while scheduler.advance_one():
        if on_step is not None:
            on_step(scheduler)
    return scheduler.result()
