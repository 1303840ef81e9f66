"""Withdraw/crash edge cases: the failover-facing scheduler contract.

Work stealing only ever withdrew from busy donors; failover also
withdraws the *sole* waiting request, withdraws around completions,
and harvests whole shards. These are the regression tests for those
edges, plus the typed exception (`UnknownRequestError`) the fleet
layer dispatches on.

The tests feed requests through ``submit()``, the only way into a
scheduler, as the fleet does.
"""

from __future__ import annotations

import math
from dataclasses import replace

import pytest

from repro.errors import UnknownRequestError
from repro.serving import EventKind, Request


def _requests(n, arrival_s=0.0, prompt=32, output=8):
    return [
        Request(
            request_id=i, arrival_s=arrival_s, prompt_tokens=prompt,
            output_tokens=output,
        )
        for i in range(n)
    ]


def _sched(make_scenario, requests=(), **kw):
    sched, _ = make_scenario(**kw)
    for req in requests:
        sched.submit(req)
    return sched


class TestWithdrawEdges:
    def test_sole_waiting_withdrawal_leaves_consistent_clock(
        self, make_scenario
    ):
        """Withdrawing the only submitted request must leave the shard
        idle with an infinite next event it can act on — the exact
        state a crash-harvest of a just-routed request produces."""
        sched = _sched(make_scenario, _requests(1))
        req = sched.withdraw(0)
        assert req.request_id == 0
        assert sched.idle
        assert sched.next_event_s() == math.inf
        # The shard remains usable: a new request runs to completion.
        sched.submit(Request(1, sched.clock_s, 16, 4))
        sched.advance_until(math.inf)
        assert sched.record_for(1) is not None

    def test_pending_withdrawal_releases_waiting_accounting(
        self, make_scenario
    ):
        """Withdraw from the KV-blocked pending queue: the waiting
        aggregates shrink, a WITHDRAW event is logged, and the rest of
        the queue still drains to completion."""
        sched = _sched(make_scenario, _requests(3), budget_requests=1.0)
        sched.advance_one()  # prefill request 0; 1 and 2 blocked on KV
        snap = sched.snapshot()
        assert snap.n_decoding >= 1 and snap.n_waiting >= 1
        sched.withdraw(2)
        sched.advance_until(math.inf)
        assert any(
            e.kind is EventKind.WITHDRAW and e.request_id == 2
            for e in sched.result().events
        )
        assert sched.record_for(0) is not None
        assert sched.record_for(1) is not None
        assert sched.record_for(2) is None

    def test_withdraw_completed_request_raises(self, make_scenario):
        sched = _sched(make_scenario, _requests(1))
        sched.advance_until(math.inf)
        assert sched.record_for(0) is not None
        with pytest.raises(UnknownRequestError, match="completed"):
            sched.withdraw(0)

    def test_withdraw_unknown_request_raises(self, make_scenario):
        sched = _sched(make_scenario, _requests(1))
        with pytest.raises(UnknownRequestError, match="not waiting"):
            sched.withdraw(99)

    def test_withdrawn_id_can_be_resubmitted(self, make_scenario):
        """Failover round-trip: withdraw here, serve elsewhere, or —
        after a recovery — resubmit the *same id* right back."""
        sched = _sched(make_scenario, _requests(1))
        req = sched.withdraw(0)
        sched.submit(
            Request(
                req.request_id, sched.clock_s, req.prompt_tokens,
                req.output_tokens,
            )
        )
        sched.advance_until(math.inf)
        assert sched.record_for(0) is not None


class TestTypedExceptions:
    def test_duplicate_submit_raises(self, make_scenario):
        sched = _sched(make_scenario, _requests(1))
        with pytest.raises(UnknownRequestError, match="already"):
            sched.submit(Request(0, 0.0, 16, 4))


class TestCrashHarvest:
    def test_harvest_returns_waiting_and_inflight(self, make_scenario):
        sched = _sched(
            make_scenario, _requests(6), budget_requests=2.0, max_batch=2
        )
        # Step until decodes are in flight but work still waits.
        while True:
            snap = sched.snapshot()
            if snap.n_decoding > 0 and snap.n_waiting > 0:
                break
            assert sched.advance_one(), "drained before reaching the state"
        waiting, inflight = sched.crash_harvest()
        assert waiting and inflight
        assert sched.idle
        # Generated-token counts are the lost work the fleet charges.
        for req, generated in inflight:
            assert 0 <= generated <= req.output_tokens
        # No overlap, no duplication across the two harvests.
        ids = [r.request_id for r in waiting] + [
            r.request_id for r, _ in inflight
        ]
        assert len(ids) == len(set(ids))
        # KV fully released: nothing reserved on the dead shard.
        assert sched.snapshot().kv_reserved_bytes == 0

    @pytest.mark.parametrize("before, after", [(1, 1), (3, 2), (6, 6), (12, 3)])
    def test_equals_withdraw_per_candidate(
        self, make_scenario, before, after
    ):
        """The harvest writes the rows, leaves the aggregates and
        returns the requests that withdrawing each steal candidate in
        FCFS order would (the rows a faster harvest must keep), on an
        overloaded shard holding requests not yet arrived, pending and
        admitted (the (1, 1) draw holds all three), and a failover
        resubmission that arrived in the shard's past."""

        def overloaded():
            sched = _sched(make_scenario, budget_requests=3.0, max_batch=4)
            for i in range(24):
                sched.submit(
                    Request(
                        i, 1e-4 * i if i < 20 else 1e3, 8 + (7 * i) % 50,
                        4 + (3 * i) % 20,
                    )
                )
            for _ in range(before):
                sched.advance_one()
            sched.submit(Request(99, 0.0, 16, 4))
            for _ in range(after):
                sched.advance_one()
            return sched

        harvested, twin = overloaded(), overloaded()
        if (before, after) == (1, 1):
            assert twin._future and twin._pending and twin._prefill_queue
        withdrawn = [
            twin.withdraw(req.request_id) for req in twin.steal_candidates()
        ]
        rest, twin_inflight = twin.crash_harvest()
        assert rest == []
        waiting, inflight = harvested.crash_harvest()
        assert waiting == withdrawn
        assert inflight == twin_inflight
        assert harvested.result().events == twin.result().events
        for name in (
            "n_waiting", "n_decoding", "waiting_prompt_hist",
            "kv_reserved_bytes", "waiting_kv_bytes", "queued_prefill_s",
            "idle", "clock_s",
        ):
            assert getattr(harvested, name) == getattr(twin, name), name
        # Every harvested id is forgotten: failover may resubmit it here.
        for sched in (harvested, twin):
            for req in waiting + [req for req, _ in inflight]:
                sched.submit(replace(req, arrival_s=sched.clock_s))
            sched.advance_until(math.inf)
        assert harvested.result() == twin.result()

    def test_harvest_idle_shard_is_empty(self, make_scenario):
        sched = _sched(make_scenario, _requests(1))
        sched.advance_until(math.inf)
        waiting, inflight = sched.crash_harvest()
        assert waiting == [] and inflight == []


class TestLatencyScale:
    def test_brownout_scale_stretches_steps(self, make_scenario):
        base = _sched(make_scenario, _requests(4))
        base.advance_until(math.inf)
        braked = _sched(make_scenario, _requests(4))
        braked.latency_scale = 4.0
        braked.advance_until(math.inf)
        assert braked.clock_s == pytest.approx(4.0 * base.clock_s)

    def test_health_reflects_scale_in_snapshot(self, make_scenario):
        sched = _sched(make_scenario, _requests(1))
        assert sched.snapshot().latency_scale == 1.0
        sched.latency_scale = 2.5
        assert sched.snapshot().latency_scale == 2.5
