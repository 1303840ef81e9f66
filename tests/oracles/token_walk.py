"""Per-token scheduler walk: the serving hot loop's equivalence oracle.

:meth:`repro.serving.ContinuousBatchingScheduler.advance_until` advances
stable decode runs in one coalesced pass (``_decode_run``). This module
keeps the walk it replaced: :meth:`TokenWalk.decode_step` runs exactly
one batched decode iteration, and binding it on a scheduler in place of
``_decode_run`` makes every advance of that scheduler step one token at
a time — so the oracle never runs the coalesced code it checks.

The step also keeps its own account of every slot: it builds each
slot's gaps token by token, from the slot's previous token instant, and
derives each slot's context and tokens owed from its request and those
gaps, never from the slot columns the scheduler's decode run reduces.
It extends the scheduler's token clock by one iteration per step (the
scheduler's retirement slices each record's gaps from it), and asserts
at every retirement that the record's ``tbt_s`` equals the gaps it
built. :func:`walk_tokens` binds it, feeds the scheduler a source
through ``oracles.source_loop.SourceLoop``, steps
:meth:`~repro.serving.ContinuousBatchingScheduler.advance_one` until it
reports nothing left to do, asserts that every record's ``tbt_s``
equals the walk's gaps, and packages the result;
``oracles.fleet_walk.WalkingDrain`` binds it on every fleet shard.

Tests and benchmarks assert that the coalesced scheduler and this walk
agree field for field; nothing under ``src/`` imports it. Import it as
``from oracles.token_walk import walk_tokens`` with the ``tests``
directory on ``sys.path`` (pytest puts it there through
``tests/conftest.py``).
"""

from __future__ import annotations

from array import array
from typing import Callable, Dict, List, Optional, Tuple

from oracles.source_loop import SourceLoop
from repro.serving import ContinuousBatchingScheduler, RequestSource, ServingResult
from repro.utils import ceil_div

__all__ = ["TokenWalk", "bind_decode_step", "walk_tokens"]


class TokenWalk:
    """The per-token decode step of one scheduler, and the gaps it built.

    :attr:`gaps` maps each request id whose slot completed to the gaps
    the step built for it; requests that complete at prefill have none.
    """

    def __init__(self, scheduler: ContinuousBatchingScheduler) -> None:
        self.scheduler = scheduler
        # (request id, first-token instant) -> [previous token instant,
        # gaps so far]; the instant tells a retried request's new slot
        # from the one a crash evicted.
        self._live: Dict[Tuple[int, float], List] = {}
        self.gaps: Dict[int, array] = {}

    def decode_step(self, t_s: float) -> None:
        """One batched decode iteration (the per-token walk's step).

        Has ``_decode_run``'s signature so it can stand in for it;
        ``t_s`` is unused, since the scheduler only starts a step before
        its horizon and one step is all this ever runs.
        """
        s = self.scheduler
        slots = []
        for req, _, _, first, _ in s._d_slot:
            key = (req.request_id, first)
            if key not in self._live:
                self._live[key] = [first, array("d")]
            slots.append((req, self._live[key]))
        n = len(slots)  # admission keeps n <= max_batch
        # The batch decodes at the deepest member's context, rounded up
        # to the cache bucket within the model's limit; a conservative
        # (upper-bound) latency for the shallower members.
        raw_ctx = max(req.prompt_tokens + len(gaps) for req, (_, gaps) in slots) + 1
        bucketed = min(
            ceil_div(raw_ctx, s.ctx_bucket) * s.ctx_bucket,
            s.engine.model.max_seq_len,
        )
        point = s.engine.surface.decode(bucketed, batch=n)
        t0 = s._clock
        s._clock += point.latency_s * s.latency_scale
        s._energy_uj += point.energy_uj
        c = s._clock
        s._tok_gap.append(c - (s._tok_s[-1] if s._tok_s else t0))
        s._tok_s.append(c)
        done = []
        for req, entry in slots:
            # Wall-clock gap since the previous token: includes any
            # prefill iterations that stalled this request's stream, not
            # just this decode step's latency.
            entry[1].append(c - entry[0])
            entry[0] = c
            if len(entry[1]) == req.output_tokens - 1:
                done.append(req)
        if done:
            s._retire_finished()
            for req in done:
                first = s._records[req.request_id].first_token_s
                gaps = self._live.pop((req.request_id, first))[1]
                assert s._records[req.request_id].tbt_s == gaps, req.request_id
                self.gaps[req.request_id] = gaps
        s._log_step(t0, 1, n)


def bind_decode_step(scheduler: ContinuousBatchingScheduler) -> TokenWalk:
    """Make ``scheduler`` run a :class:`TokenWalk`'s step in place of
    ``_decode_run``; returns the walk."""
    walk = TokenWalk(scheduler)
    scheduler._decode_run = walk.decode_step
    return walk


def walk_tokens(
    scheduler: ContinuousBatchingScheduler,
    source: RequestSource,
    on_step: Optional[Callable[[ContinuousBatchingScheduler], None]] = None,
) -> ServingResult:
    """Serve ``source`` on a fresh scheduler, one step at a time.

    ``on_step`` is called after every iteration, so property tests can
    check invariants at each boundary.
    """
    walk = bind_decode_step(scheduler)
    loop = SourceLoop(scheduler, source)
    while scheduler.advance_one():
        if on_step is not None:
            on_step(scheduler)
    result = loop.result()
    for record in result.records:
        rid = record.request.request_id
        assert record.tbt_s == walk.gaps.get(rid, array("d")), rid
    return result
